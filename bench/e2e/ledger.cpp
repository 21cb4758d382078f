#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace rdo::e2e {

Percentile percentile(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.n = static_cast<std::int64_t>(sorted.size());
  if (p.n == 0) return p;
  const auto rank = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(p.n))), 1,
      p.n);
  p.value = sorted[static_cast<std::size_t>(rank - 1)];
  p.beyond = p.n - rank;
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

void Digest::add_bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

struct Span {
  std::int64_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t covered_ns = 0;  ///< by direct children
  const std::string* name = nullptr;
  bool failed = false;
};

std::int64_t to_ns(double us) { return std::llround(us * 1000.0); }

}  // namespace

SpanTotals span_totals(const SpanLedger& spans, const std::string& name) {
  const auto it = spans.find(name);
  return it != spans.end() ? it->second : SpanTotals{};
}

SpanLedger span_ledger(const rdo::obs::Json& trace) {
  std::vector<Span> spans;
  const rdo::obs::Json* events = trace.find("traceEvents");
  if (events == nullptr || !events->is_array()) return {};
  for (std::size_t i = 0; i < events->size(); ++i) {
    const rdo::obs::Json& e = events->at(i);
    const rdo::obs::Json* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") continue;
    Span s;
    s.tid = e.find("tid")->as_int();
    s.start_ns = to_ns(e.find("ts")->as_double());
    s.end_ns = s.start_ns + to_ns(e.find("dur")->as_double());
    s.name = &e.find("name")->as_string();
    const rdo::obs::Json* args = e.find("args");
    s.failed = args != nullptr && args->find("error") != nullptr;
    spans.push_back(s);
  }
  // Per thread, parents before the children they contain.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::vector<Span*> open;
  for (Span& s : spans) {
    while (!open.empty() &&
           (open.back()->tid != s.tid || open.back()->end_ns <= s.start_ns)) {
      open.pop_back();
    }
    if (!open.empty()) {
      Span& parent = *open.back();
      parent.covered_ns += std::min(s.end_ns, parent.end_ns) - s.start_ns;
    }
    open.push_back(&s);
  }
  SpanLedger out;
  for (const Span& s : spans) {
    SpanTotals& t = out[*s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++t.count;
    t.busy_ms += 1e-6 * static_cast<double>(dur);
    t.self_ms +=
        1e-6 * static_cast<double>(std::max<std::int64_t>(0, dur - s.covered_ns));
    if (s.failed) ++t.failures;
  }
  return out;
}

}  // namespace rdo::e2e
