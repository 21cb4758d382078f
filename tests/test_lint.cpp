// The token-level determinism & contract analyzer (src/lint/): lexer,
// rule positives/negatives over the fixture pairs in tests/data/lint/,
// inline suppressions, the baseline ratchet, byte parity with the
// retired PR 5 regex tool, and the real binary's exit-code contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "lint/baseline.h"
#include "lint/emit.h"
#include "lint/engine.h"
#include "lint/rule.h"
#include "lint/token.h"
#include "obs/json.h"

namespace fs = std::filesystem;
using rdo::lint::Baseline;
using rdo::lint::Engine;
using rdo::lint::Finding;
using rdo::lint::lex;
using rdo::lint::TokKind;
using rdo::lint::Token;

namespace {

const std::string kData = std::string(RDO_TEST_DATA_DIR) + "/lint";
const std::string kBin = RDO_LINT_BIN;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Finding> lint_fixture(const Engine& eng, const std::string& name) {
  return eng.lint_file(kData + "/" + name, name);
}

/// Every finding carries `rule`, and there is at least one.
void expect_only(const std::vector<Finding>& found, const std::string& rule) {
  EXPECT_FALSE(found.empty()) << "expected at least one " << rule;
  for (const Finding& f : found) {
    EXPECT_EQ(f.rule, rule) << f.file << ":" << f.line << " " << f.message;
  }
}

int run(const std::string& cmd) {
  const int status = std::system((cmd + " > /dev/null 2>&1").c_str());
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Temp directory wiped at construction; removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("rdo_lint_test_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Lexer

TEST(Lexer, ClassifiesAndPositions) {
  const auto toks = lex("int x = 42; // trailing\n\"str\" 'c'\n");
  ASSERT_EQ(toks.size(), 8u);
  EXPECT_EQ(toks[0].kind, TokKind::Identifier);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[0].col, 1);
  EXPECT_EQ(toks[3].kind, TokKind::Number);
  EXPECT_EQ(toks[3].text, "42");
  EXPECT_EQ(toks[5].kind, TokKind::Comment);
  EXPECT_EQ(toks[5].text, "// trailing");
  EXPECT_EQ(toks[6].kind, TokKind::String);
  EXPECT_EQ(toks[6].line, 2);
  EXPECT_EQ(toks[6].col, 1);
  EXPECT_EQ(toks[7].kind, TokKind::CharLit);
}

TEST(Lexer, CommentsAreKeptNotStripped) {
  const auto toks = lex("/* block\ncomment */ x");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, TokKind::Comment);
  EXPECT_EQ(toks[0].text, "/* block\ncomment */");
  EXPECT_EQ(toks[1].text, "x");
  EXPECT_EQ(toks[1].line, 2);  // positions survive the embedded newline
}

TEST(Lexer, RawStringWithEmbeddedQuote) {
  // The PR 5 stripper desynchronised on exactly this shape.
  const auto toks = lex(R"src(auto s = R"(has a " quote)"; rand();)src");
  ASSERT_GE(toks.size(), 4u);
  EXPECT_EQ(toks[3].kind, TokKind::RawString);
  EXPECT_EQ(toks[3].text, "R\"(has a \" quote)\"");
  // The code after the raw string is still lexed as code.
  bool saw_rand = false;
  for (const auto& t : toks) {
    saw_rand |= t.kind == TokKind::Identifier && t.text == "rand";
  }
  EXPECT_TRUE(saw_rand);
}

TEST(Lexer, RawStringCustomDelimiter) {
  const auto toks = lex("auto p = R\"re(x)\" y)re\";");
  ASSERT_GE(toks.size(), 4u);
  EXPECT_EQ(toks[3].kind, TokKind::RawString);
  EXPECT_EQ(toks[3].text, "R\"re(x)\" y)re\"");
}

TEST(Lexer, MultiCharOperatorsLongestMatch) {
  const auto toks = lex("a <<= b->c >= d :: e");
  std::vector<std::string> punct;
  for (const auto& t : toks) {
    if (t.kind == TokKind::Punct) punct.push_back(t.text);
  }
  EXPECT_EQ(punct, (std::vector<std::string>{"<<=", "->", ">=", "::"}));
}

TEST(Lexer, LineContinuationKeepsCounting) {
  const auto toks = lex("#define M \\\n  body\nnext");
  const Token& last = toks.back();
  EXPECT_EQ(last.text, "next");
  EXPECT_EQ(last.line, 3);
}

// ---------------------------------------------------------------------------
// Rule fixture pairs: the positive file triggers only its rule, the
// negative file is silent.

struct PairCase {
  const char* rule;
  const char* stem;
};

class RulePair : public ::testing::TestWithParam<PairCase> {};

TEST_P(RulePair, PositiveFiresNegativeSilent) {
  const Engine eng;
  expect_only(lint_fixture(eng, std::string(GetParam().stem) + "_pos.cpp"),
              GetParam().rule);
  const auto neg =
      lint_fixture(eng, std::string(GetParam().stem) + "_neg.cpp");
  EXPECT_TRUE(neg.empty()) << neg.front().rule << ": "
                           << neg.front().message;
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, RulePair,
    ::testing::Values(PairCase{"naked-read", "naked_read"},
                      PairCase{"nondeterminism", "nondeterminism"},
                      PairCase{"unordered-iter", "unordered_iter"},
                      PairCase{"unbudgeted-alloc", "unbudgeted_alloc"},
                      PairCase{"float-reduce-order", "float_reduce_order"},
                      PairCase{"metric-name", "metric_name"},
                      PairCase{"pass-invariant", "pass_invariant"},
                      PairCase{"naked-getenv", "naked_getenv"}),
    [](const ::testing::TestParamInfo<PairCase>& info) {
      return std::string(info.param.stem);
    });

TEST(Rules, RawStringRegressionFixture) {
  // Two real violations AFTER raw strings with embedded quotes: proves
  // the lexer never desynchronises the way the old stripper did.
  const Engine eng;
  const auto found = lint_fixture(eng, "raw_string.cpp");
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].rule, "nondeterminism");
  EXPECT_EQ(found[0].line, 11);
  EXPECT_EQ(found[1].rule, "nondeterminism");
  EXPECT_EQ(found[1].line, 15);
}

TEST(Rules, CatalogueHasAtLeastEight) {
  const Engine eng;
  EXPECT_GE(eng.rules().size(), 8u);
}

TEST(Rules, SetEnabledRejectsUnknownNames) {
  Engine eng;
  EXPECT_THROW(eng.set_enabled({"no-such-rule"}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Suppressions

TEST(Suppressions, AllFormsSuppress) {
  const Engine eng;
  const auto found = lint_fixture(eng, "suppressed.cpp");
  EXPECT_TRUE(found.empty()) << found.front().rule << " at line "
                             << found.front().line;
}

TEST(Suppressions, UnusedSuppressionIsAFinding) {
  const Engine eng;
  const auto found = lint_fixture(eng, "unused_suppression.cpp");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].rule, rdo::lint::kUnusedSuppression);
  EXPECT_EQ(found[0].line, 1);
}

TEST(Suppressions, MalformedSuppressionsAreFindings) {
  const Engine eng;
  const auto found = lint_fixture(eng, "malformed_suppression.cpp");
  ASSERT_EQ(found.size(), 3u);
  for (const Finding& f : found) {
    EXPECT_EQ(f.rule, rdo::lint::kMalformedSuppression);
  }
  EXPECT_EQ(found[0].line, 1);  // unknown rule
  EXPECT_EQ(found[1].line, 4);  // missing reason
  EXPECT_EQ(found[2].line, 7);  // wrong verb
}

TEST(Suppressions, ProseMentioningTheMarkerIsNotADirective) {
  const Engine eng;
  const auto found = eng.lint_source(
      "doc.cpp",
      "// The directive looks like: rdo-lint: allow(bogus) reason\n"
      "int x = 1;\n");
  EXPECT_TRUE(found.empty());
}

// ---------------------------------------------------------------------------
// Baseline ratchet

TEST(Baseline, AbsorbsKnownAndFlagsFresh) {
  const Engine eng;
  auto found = lint_fixture(eng, "nondeterminism_pos.cpp");
  ASSERT_EQ(found.size(), 4u);

  // Baseline built from only the first three findings.
  Baseline b = rdo::lint::make_baseline(
      {found.begin(), found.begin() + 3});
  const auto r = rdo::lint::apply_baseline(found, b);
  EXPECT_EQ(r.absorbed, 3);
  EXPECT_EQ(r.fresh, 1);
  EXPECT_TRUE(r.stale.empty());
  EXPECT_TRUE(found[0].baselined);
  EXPECT_FALSE(found[3].baselined);
}

TEST(Baseline, FixedFindingGoesStale) {
  const Engine eng;
  auto found = lint_fixture(eng, "nondeterminism_pos.cpp");
  Baseline b = rdo::lint::make_baseline(found);
  b.entries.push_back(
      {"nondeterminism_pos.cpp", "nondeterminism", "long gone;", 2});
  const auto r = rdo::lint::apply_baseline(found, b);
  EXPECT_EQ(r.fresh, 0);
  ASSERT_EQ(r.stale.size(), 1u);
  EXPECT_EQ(r.stale[0].context, "long gone;");
  EXPECT_EQ(r.stale[0].count, 2);
}

TEST(Baseline, SaveLoadRoundTripsSorted) {
  TempDir tmp;
  const std::string path = (tmp.path / "baseline.json").string();
  Baseline b;
  b.entries.push_back({"b.cpp", "r2", "ctx", 1});
  b.entries.push_back({"a.cpp", "r1", "ctx", 3});
  rdo::lint::save_baseline(b, path);
  const Baseline loaded = rdo::lint::load_baseline(path);
  ASSERT_EQ(loaded.entries.size(), 2u);
  EXPECT_EQ(loaded.entries[0].file, "a.cpp");  // sorted on disk
  EXPECT_EQ(loaded.entries[0].count, 3);
  EXPECT_EQ(loaded.entries[1].file, "b.cpp");
}

TEST(Baseline, RejectsBrokenSchema) {
  TempDir tmp;
  const std::string path = (tmp.path / "broken.json").string();
  std::ofstream(path) << "{\"version\": 2, \"entries\": []}";
  EXPECT_THROW(rdo::lint::load_baseline(path), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Byte parity with the retired regex tool on the frozen fixture tree.
// tests/data/lint/legacy_expected.txt is the old binary's verbatim
// stderr; the token engine must reproduce it exactly.

TEST(LegacyParity, ByteIdenticalOnFrozenTree) {
  Engine eng;
  eng.set_enabled({"naked-read", "nondeterminism", "unordered-iter"});
  const auto files = rdo::lint::collect_files({kData + "/legacy"}, {});
  ASSERT_EQ(files.size(), 3u);
  std::vector<Finding> findings;
  for (const auto& f : files) {
    const std::string as_run =
        "tests/data/lint/legacy/" + f.filename().string();
    auto one = eng.lint_file(f, as_run);
    findings.insert(findings.end(), one.begin(), one.end());
  }
  const std::string got =
      rdo::lint::format_text(findings, static_cast<int>(files.size()));
  EXPECT_EQ(got, slurp(kData + "/legacy_expected.txt"));
}

// ---------------------------------------------------------------------------
// Emitters

TEST(Emit, SarifDocumentShape) {
  const Engine eng;
  auto found = lint_fixture(eng, "nondeterminism_pos.cpp");
  Baseline b = rdo::lint::make_baseline({found.begin(), found.begin() + 1});
  (void)rdo::lint::apply_baseline(found, b);

  const rdo::obs::Json doc = rdo::lint::sarif_document(eng, found, true);
  EXPECT_EQ(doc.find("version")->as_string(), "2.1.0");
  const auto& run0 = doc.find("runs")->at(0);
  const auto& driver = run0.find("tool")->find("driver");
  EXPECT_EQ(driver->find("name")->as_string(), "rdo_lint");
  // Rule catalogue covers the engine's rules plus the two pseudo-rules.
  EXPECT_EQ(driver->find("rules")->size(), eng.rules().size() + 2);
  const auto& results = *run0.find("results");
  ASSERT_EQ(results.size(), found.size());
  EXPECT_EQ(results.at(0).find("baselineState")->as_string(), "unchanged");
  EXPECT_EQ(results.at(1).find("baselineState")->as_string(), "new");
  const auto& loc = results.at(0).find("locations")->at(0);
  EXPECT_EQ(loc.find("physicalLocation")
                ->find("artifactLocation")
                ->find("uri")
                ->as_string(),
            "nondeterminism_pos.cpp");
}

TEST(Emit, TextSkipsBaselinedFindings) {
  std::vector<Finding> fs(2);
  fs[0] = {"r", "m", "f.cpp", "ctx", 1, 1, true};
  fs[1] = {"r", "m", "f.cpp", "ctx", 2, 1, false};
  const std::string text = rdo::lint::format_text(fs, 1);
  EXPECT_EQ(text, "f.cpp:2: [r] m\nrdo_lint: 1 file(s), 1 violation(s)\n");
}

// ---------------------------------------------------------------------------
// The real binary's exit-code contract and the end-to-end ratchet.

TEST(BinaryContract, UsageErrorsExitTwo) {
  EXPECT_EQ(run(kBin), 2);
  EXPECT_EQ(run(kBin + " --no-such-flag " + kData), 2);
  EXPECT_EQ(run(kBin + " --rules no-such-rule " + kData), 2);
  EXPECT_EQ(run(kBin + " --format bogus " + kData), 2);
  EXPECT_EQ(run(kBin + " --update-baseline " + kData), 2);
  EXPECT_EQ(run(kBin + " /no/such/path"), 2);
}

TEST(BinaryContract, CleanTreeExitsZero) {
  EXPECT_EQ(run(kBin + " " + kData + "/naked_read_neg.cpp"), 0);
}

TEST(BinaryContract, FindingsExitOne) {
  EXPECT_EQ(run(kBin + " " + kData + "/nondeterminism_pos.cpp"), 1);
}

TEST(BinaryContract, RatchetEndToEnd) {
  TempDir tmp;
  const fs::path tree = tmp.path / "tree";
  fs::create_directories(tree);
  fs::copy_file(kData + "/nondeterminism_pos.cpp", tree / "debt.cpp");
  const std::string baseline = (tmp.path / "baseline.json").string();
  const std::string base_cmd = kBin + " --relative-to " + tmp.path.string() +
                               " --baseline " + baseline + " " +
                               tree.string();

  // Adopt the existing debt, then the gate is green.
  EXPECT_EQ(run(base_cmd + " --update-baseline"), 0);
  EXPECT_EQ(run(base_cmd), 0);

  // A NEW violation fails the gate even though old debt is baselined.
  std::ofstream(tree / "fresh.cpp") << "#include <cstdlib>\n"
                                    << "int f() { return rand(); }\n";
  EXPECT_EQ(run(base_cmd), 1);
  fs::remove(tree / "fresh.cpp");

  // FIXING baselined debt also fails (stale entries force the shrink)...
  fs::remove(tree / "debt.cpp");
  std::ofstream(tree / "debt.cpp") << "int f() { return 4; }\n";
  EXPECT_EQ(run(base_cmd), 1);

  // ...and --update-baseline ratchets the ledger down to green again.
  EXPECT_EQ(run(base_cmd + " --update-baseline"), 0);
  EXPECT_EQ(run(base_cmd), 0);
}

TEST(BinaryContract, SarifOutputParses) {
  TempDir tmp;
  const std::string out = (tmp.path / "report.sarif").string();
  EXPECT_EQ(run(kBin + " --format sarif --output " + out + " " + kData +
                "/nondeterminism_pos.cpp"),
            1);
  const rdo::obs::Json doc = rdo::obs::read_json_file(out);
  EXPECT_EQ(doc.find("version")->as_string(), "2.1.0");
  EXPECT_EQ(doc.find("runs")->at(0).find("results")->size(), 4u);
}
