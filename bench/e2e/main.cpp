// rdo_e2e — end-to-end benchmark of the deployment stack with a per-layer
// ledger. See README.md for the workloads, the metrics and how to read a
// traced run.
//
//   rdo_e2e --workload sweep_lenet_pwt --seed 2021 --seconds 10
//           [--ops N] [--setup-reps N] [--json PATH] [--trace PATH]
//
// One process, closed loop: T = min(nproc, 4) lanes (RDO_THREADS, when
// set, replaces nproc) each start their next op when the previous one is
// done. Set-up (data, training, plans or the service, warm-up) runs
// --setup-reps times and reports the median. The measured phase runs for
// --seconds and at least one full round of distinct ops; afterwards every
// repeated op must have reproduced its first result bit for bit and the
// workload's own checks must pass. Latency percentiles are taken per op
// class and weighted by the class's share of the round. stdout carries one
// `metric <name> <value> <unit>` line per metric and, last, one JSON result
// line. With --trace the run records obs trace spans, writes them to PATH,
// and the result line carries the per-layer metrics instead.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ledger.h"
#include "nn/parallel.h"
#include "obs/env.h"
#include "obs/envvar.h"
#include "obs/json.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "workloads.h"

using namespace rdo;
using rdo::obs::Json;

namespace {

using Clock = std::chrono::steady_clock;

/// Hard cap on the measured phase, so a run ends well inside its time
/// limit even when one round cannot finish.
constexpr double kMaxMeasureSeconds = 90.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 2021;
  double seconds = 10.0;
  std::int64_t ops = 0;  ///< round size; 0 = the workload's default
  int setup_reps = 3;
  std::string json_path;
  std::string trace_path;
};

const char* usage() {
  return "usage: rdo_e2e --workload NAME [options]\n"
         "  --workload NAME     sweep_lenet_pwt | compile_mlp_sim | serve_hot |"
         " serve_churn\n"
         "  --seed N            input seed (default 2021; holdout seed 7)\n"
         "  --seconds S         measured-phase budget (default 10)\n"
         "  --ops N             round size: distinct ops, all run at least once\n"
         "  --setup-reps N      set-up repetitions, median reported (default 3)\n"
         "  --json PATH         write the full result document\n"
         "  --trace PATH        traced run: write the trace, report per-layer\n"
         "                      metrics\n";
}

bool parse_args(int argc, char** argv, Args& a, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      err = flag + " needs a value";
      return false;
    }
    const char* val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      const unsigned long long v = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0' || val[0] == '-') {
        err = "--seed: invalid value";
        return false;
      }
      a.seed = v;
    } else if (flag == "--seconds") {
      const double v = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(v >= 0.0 && v <= 600.0)) {
        err = "--seconds: expected a number in [0, 600]";
        return false;
      }
      a.seconds = v;
    } else if (flag == "--ops") {
      const long long v = std::strtoll(val, &end, 10);
      if (end == val || *end != '\0' || v < 1 || v > 1000000) {
        err = "--ops: expected an integer in [1, 1000000]";
        return false;
      }
      a.ops = v;
    } else if (flag == "--setup-reps") {
      const long v = std::strtol(val, &end, 10);
      if (end == val || *end != '\0' || v < 1 || v > 20) {
        err = "--setup-reps: expected an integer in [1, 20]";
        return false;
      }
      a.setup_reps = static_cast<int>(v);
    } else if (flag == "--json") {
      a.json_path = val;
    } else if (flag == "--trace") {
      a.trace_path = val;
    } else {
      err = "unknown flag \"" + flag + '"';
      return false;
    }
  }
  if (a.workload.empty()) {
    err = "--workload is required";
    return false;
  }
  return true;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Measured {
  std::vector<e2e::OpOutcome> ops;
  double wall_s = 0.0;
  /// Throughput window: from the start until the first lane ran out of
  /// work, so every lane was busy throughout it.
  double window_s = 0.0;
  double ops_in_window = 0.0;  ///< ops counted by their share in the window
  double cpu_s = 0.0;
  nn::PoolStats pool;  ///< delta over the measured phase
  e2e::SpanLedger spans;  ///< traced runs only
};

/// One closed-loop lane: claim the next op of the stream, run it, record
/// it; stop once the whole round is claimed and the deadline has passed.
void run_lane(e2e::Workload& w, std::int64_t round, std::atomic<std::int64_t>& next,
              Clock::time_point t0, Clock::time_point deadline,
              Clock::time_point hard_stop, std::vector<e2e::OpOutcome>& out) {
  for (;;) {
    const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
    const Clock::time_point start = Clock::now();
    if ((i >= round && start >= deadline) || start >= hard_stop) return;
    e2e::OpOutcome o;
    o.index = i;
    o.spec = i % round;
    o.start_s = std::chrono::duration<double>(start - t0).count();
    {
      obs::TraceSpan span("e2e:op", "e2e");
      span.arg("spec", o.spec);
      try {
        w.run_op(o.spec, o);
      } catch (const std::exception& e) {
        o.error = e.what();
      } catch (...) {
        o.error = "unknown exception";
      }
      if (!o.error.empty()) span.arg("error", o.error);
    }
    o.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    out.push_back(std::move(o));
  }
}

/// Run the op stream on `lanes` closed-loop lanes until the round is
/// claimed and `seconds` have passed; each lane's outcomes in claim order. Pool-fanned workloads run their lanes as pool chunks (the
/// ops' own parallel loops then run inline), the others as client
/// threads with the pool at one thread, so at most `lanes` threads are
/// busy either way.
std::vector<std::vector<e2e::OpOutcome>> run_lanes(e2e::Workload& w, int lanes,
                                                   std::int64_t round,
                                                   double seconds,
                                                   Clock::time_point t0) {
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const Clock::time_point deadline = at(seconds);
  const Clock::time_point hard_stop = at(kMaxMeasureSeconds);
  std::atomic<std::int64_t> next{0};
  std::vector<std::vector<e2e::OpOutcome>> per_lane(
      static_cast<std::size_t>(lanes));
  const auto lane = [&](std::int64_t l) {
    run_lane(w, round, next, t0, deadline, hard_stop,
             per_lane[static_cast<std::size_t>(l)]);
  };
  if (w.fans_out_over_pool()) {
    nn::set_thread_count(lanes);
    nn::parallel_for(lanes, [&](std::int64_t l0, std::int64_t l1) {
      for (std::int64_t l = l0; l < l1; ++l) lane(l);
    });
  } else {
    nn::set_thread_count(1);
    std::vector<std::thread> clients;
    for (int l = 0; l < lanes; ++l) clients.emplace_back(lane, l);
    for (std::thread& t : clients) t.join();
  }
  return per_lane;
}

Measured measure(e2e::Workload& w, int lanes, std::int64_t round,
                 double seconds, const std::string& trace_path) {
  const bool traced = !trace_path.empty();
  if (traced) obs::trace_start(trace_path);
  w.begin_measure(traced);

  Measured m;
  const nn::PoolStats p0 = nn::pool_stats();
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::vector<e2e::OpOutcome>> per_lane =
      run_lanes(w, lanes, round, seconds, t0);
  m.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  m.cpu_s = cpu_seconds() - cpu0;
  const nn::PoolStats p1 = nn::pool_stats();
  m.pool.parallel_loops = p1.parallel_loops - p0.parallel_loops;
  m.pool.chunks_executed = p1.chunks_executed - p0.chunks_executed;
  m.pool.chunks_stolen = p1.chunks_stolen - p0.chunks_stolen;
  w.end_measure();

  if (traced) {
    {
      obs::TraceSpan span("e2e:probe", "e2e");
      w.probe();
    }
    const std::string written = obs::trace_stop();
    if (written.empty()) throw std::runtime_error("cannot write trace " + trace_path);
    m.spans = e2e::span_ledger(obs::read_json_file(written));
  }
  nn::set_thread_count(lanes);
  // Lanes finish their last op at different times after the deadline; an
  // ops/wall ratio would count that idle tail, which is noise for ops
  // lasting a second. Count throughput only while all lanes were busy.
  m.window_s = m.wall_s;
  for (const auto& ops : per_lane) {
    if (!ops.empty()) {
      m.window_s = std::min(m.window_s, ops.back().start_s + ops.back().seconds);
    }
  }
  for (auto& ops : per_lane) {
    for (auto& o : ops) {
      const double inside = std::min(o.start_s + o.seconds, m.window_s) - o.start_s;
      m.ops_in_window += o.seconds > 0.0 ? std::clamp(inside / o.seconds, 0.0, 1.0)
                                         : 1.0;
      m.ops.push_back(std::move(o));
    }
  }
  std::sort(m.ops.begin(), m.ops.end(),
            [](const e2e::OpOutcome& a, const e2e::OpOutcome& b) {
              return a.index < b.index;
            });
  return m;
}

/// Deterministic counters of an op's public DeployStats record.
std::vector<std::int64_t> det_counters(const core::DeployStats& s) {
  return {s.cycles, s.weights_programmed, s.device_pulses,
          s.pwt_epochs, s.pwt_batches, s.pwt_offset_updates};
}

bool same_result(const e2e::OpOutcome& a, const e2e::OpOutcome& b) {
  return std::memcmp(&a.accuracy, &b.accuracy, sizeof(float)) == 0 &&
         a.tag == b.tag && a.samples == b.samples &&
         det_counters(a.stats) == det_counters(b.stats);
}

struct Metric {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics of the result line (BENCHMARK.json end_to_end).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "ops/s"},
    {"op_p50_ms", "ms"},       {"op_p90_ms", "ms"},
    {"cpu_ms_per_op", "ms"},   {"peak_rss_mb", "MiB"},
    {"accuracy", "fraction"},
};

/// Printed and kept in the JSON document, but not gated: p99 has fewer
/// than ten samples beyond it on the slow-op workloads, and error_rate is
/// 0 on a correct run, while a gated metric must never read 0 (failures
/// are gated through the result's "correct" and "failed").
constexpr Metric kInformational[] = {
    {"op_p99_ms", "ms"},
    {"error_rate", "fraction"},
};

/// The per-layer metrics of a traced result line (BENCHMARK.json
/// per_layer).
constexpr Metric kPerLayer[] = {
    {"nn.train_s", "s"},
    {"nn.pool_steal_ratio", "fraction"},
    {"nn.pool_parallel_loops", "count"},
    {"rram.lut_build_ms", "ms"},
    {"core.prepare_ms", "ms"},
    {"core.vawo_solve_ms", "ms"},
    {"core.compile_ms", "ms"},
    {"core_opt.pipeline_ms", "ms"},
    {"backend.program_ms", "ms"},
    {"backend.tune_ms", "ms"},
    {"backend.tune_share", "fraction"},
    {"backend.pwt_batches", "count"},
    {"backend.evaluate_ms", "ms"},
    {"backend.evaluate_us_per_sample", "us"},
    {"sim.program_ms", "ms"},
    {"sim.evaluate_us_per_sample", "us"},
    {"plan_io.disk_hit_rate", "fraction"},
    {"plan_io.save_ms", "ms"},
    {"plan_io.load_ms", "ms"},
    {"serve.fingerprint_ms", "ms"},
    {"serve.parse_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.plan_hit_rate", "fraction"},
    {"serve.backend_reuse_rate", "fraction"},
    {"serve.plan_evictions", "count"},
    {"serve.active_mean", "count"},
    {"serve.queued_max", "count"},
};

/// Per-layer values: the pool and training figures every workload has,
/// then the layers the workload's ops exercise.
e2e::LayerValues per_layer(const Measured& m, const e2e::Workload& w,
                           const std::vector<double>& train_s) {
  e2e::LayerValues v;
  v["nn.train_s"] = e2e::median(train_s);
  v["nn.pool_steal_ratio"] =
      m.pool.chunks_executed > 0 ? static_cast<double>(m.pool.chunks_stolen) /
                                       static_cast<double>(m.pool.chunks_executed)
                                 : 0.0;
  v["nn.pool_parallel_loops"] = static_cast<double>(m.pool.parallel_loops);
  w.layer_values(m.spans, m.ops, v);
  return v;
}

/// One op class: its share of the round, its latency percentiles over the
/// measured ops and the accuracy of its round ops (over their samples).
struct ClassStats {
  double share = 0.0;
  e2e::Percentile p50, p90;
  double correct = 0.0, samples = 0.0;
};

/// Per-class statistics. A round mixes classes whose latencies differ many
/// times over (slice sizes, schemes, grid points), so a pooled percentile
/// sits at a class boundary and jumps with small changes in the mix;
/// per-class percentiles do not.
std::map<std::string, ClassStats> class_stats(
    const std::vector<e2e::OpOutcome>& ops,
    const std::map<std::int64_t, const e2e::OpOutcome*>& first, const e2e::Workload& w,
    std::int64_t round) {
  std::map<std::string, ClassStats> out;
  for (std::int64_t spec = 0; spec < round; ++spec) {
    out[w.op_class(spec)].share += 1.0 / static_cast<double>(round);
  }
  for (const auto& [spec, o] : first) {
    if (o->accuracy < 0.0f) continue;
    ClassStats& c = out[w.op_class(spec)];
    c.correct += static_cast<double>(o->accuracy) * static_cast<double>(o->samples);
    c.samples += static_cast<double>(o->samples);
  }
  std::map<std::string, std::vector<double>> lat_ms;
  for (const e2e::OpOutcome& o : ops) lat_ms[w.op_class(o.spec)].push_back(1e3 * o.seconds);
  for (auto& [cls, v] : lat_ms) {
    std::sort(v.begin(), v.end());
    out[cls].p50 = e2e::percentile(v, 0.50);
    out[cls].p90 = e2e::percentile(v, 0.90);
  }
  return out;
}

Json metric_json(double value, const char* unit) {
  Json j = Json::object();
  j["value"] = value;
  j["unit"] = unit;
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  std::string err;
  if (!parse_args(argc, argv, a, err)) {
    std::fprintf(stderr, "rdo_e2e: %s\n\n%s", err.c_str(), usage());
    return 2;
  }
  // The benchmark owns cache and trace state: no knob from the caller's
  // environment may leak cached plans or tracing into a run.
  for (const char* knob : {"RDO_LUT_CACHE_DIR", "RDO_PLAN_CACHE_DIR", "RDO_TRACE",
                           "RDO_SLOW_REQUEST_MS"}) {
    ::unsetenv(knob);
  }
  const int nproc = online_cpus();
  const int lanes = std::min(
      4, obs::env_knob("RDO_THREADS") != nullptr ? nn::thread_count() : nproc);
  std::unique_ptr<e2e::Workload> w = e2e::make_workload(a.workload, a.seed, lanes);
  if (w == nullptr) {
    std::fprintf(stderr, "rdo_e2e: unknown workload \"%s\"\n\n%s",
                 a.workload.c_str(), usage());
    return 2;
  }
  const std::int64_t round = a.ops > 0 ? a.ops : w->default_round();
  const bool traced = !a.trace_path.empty();

  std::vector<double> setup_s, train_s;
  Measured m;
  try {
    for (int r = 0; r < a.setup_reps; ++r) {
      nn::set_thread_count(lanes);
      const obs::Stopwatch watch;
      w->setup(round);
      setup_s.push_back(watch.seconds());
      train_s.push_back(w->train_seconds());
    }
    m = measure(*w, lanes, round, a.seconds, a.trace_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rdo_e2e: %s\n", e.what());
    return 1;
  }

  // --- correctness -------------------------------------------------------
  std::vector<std::string> failures;
  std::map<std::int64_t, const e2e::OpOutcome*> first;
  for (const e2e::OpOutcome& o : m.ops) first.emplace(o.spec, &o);  // sorted by index
  if (static_cast<std::int64_t>(first.size()) < round) {
    failures.push_back("round incomplete: " + std::to_string(first.size()) + " of " +
                       std::to_string(round) + " ops ran");
  }
  std::map<std::int64_t, std::string> bad_specs;
  for (const e2e::OpOutcome& o : m.ops) {
    if (o.error.empty() && !same_result(o, *first.at(o.spec))) {
      bad_specs.emplace(o.spec, "repeat of op " + std::to_string(o.spec) +
                                    " differs from its first run");
    }
  }
  std::vector<std::int64_t> replay_counters;
  try {
    for (auto& [spec, why] : w->verify(first, replay_counters)) {
      bad_specs.emplace(spec, why);
    }
  } catch (const std::exception& e) {
    failures.push_back(std::string("verify: ") + e.what());
  }
  std::int64_t failed = 0;
  for (const e2e::OpOutcome& o : m.ops) {
    const auto bad = bad_specs.find(o.spec);
    if (!o.error.empty() || bad != bad_specs.end()) {
      ++failed;
      if (failures.size() < 20) {
        failures.push_back("op " + std::to_string(o.index) + ": " +
                           (o.error.empty() ? bad->second : o.error));
      }
    }
  }
  const auto attempted = static_cast<std::int64_t>(m.ops.size());
  const bool correct = failed == 0 && failures.empty() && attempted > 0;

  // Deterministic digest: the round's results in op order, then the
  // workload's replay counters.
  e2e::Digest digest;
  for (const auto& [spec, o] : first) {
    digest.add(spec);
    digest.add(o->accuracy);
    digest.add(o->samples);
    digest.add(o->tag);
    for (std::int64_t c : det_counters(o->stats)) digest.add(c);
  }
  for (std::int64_t c : replay_counters) digest.add(c);

  // --- end-to-end metrics -----------------------------------------------
  std::vector<double> lat_ms;
  for (const e2e::OpOutcome& o : m.ops) lat_ms.push_back(1e3 * o.seconds);
  std::sort(lat_ms.begin(), lat_ms.end());
  const e2e::Percentile p50 = e2e::percentile(lat_ms, 0.50);
  const e2e::Percentile p90 = e2e::percentile(lat_ms, 0.90);
  const e2e::Percentile p99 = e2e::percentile(lat_ms, 0.99);
  // Latency percentiles: each class's, weighted by its share of the round.
  // Accuracy: over every sample the round evaluated, so small serve slices
  // weigh less than large ones.
  const std::map<std::string, ClassStats> classes = class_stats(m.ops, first, *w, round);
  double class_p50 = 0.0, class_p90 = 0.0, correct_samples = 0.0, samples = 0.0;
  for (const auto& [cls, c] : classes) {
    class_p50 += c.share * c.p50.value;
    class_p90 += c.share * c.p90.value;
    correct_samples += c.correct;
    samples += c.samples;
  }
  const double n_ops = std::max<double>(1.0, static_cast<double>(attempted));
  std::map<std::string, double> e2e_values = {
      {"setup_s", e2e::median(setup_s)},
      {"ops_per_s", m.ops_in_window / m.window_s},
      {"op_p50_ms", class_p50},
      {"op_p90_ms", class_p90},
      {"op_p99_ms", p99.value},
      {"cpu_ms_per_op", 1e3 * m.cpu_s / n_ops},
      {"peak_rss_mb", peak_rss_mib()},
      {"accuracy", samples > 0.0 ? correct_samples / samples : 0.0},
      {"error_rate", static_cast<double>(failed) / n_ops},
  };

  Json env = obs::capture_env(a.seed);
  env["nproc"] = nproc;
  env["pool_threads"] = w->fans_out_over_pool() ? lanes : 1;
  env["lanes"] = lanes;
  env["clients"] = w->fans_out_over_pool() ? 0 : lanes;

  std::printf("rdo_e2e workload=%s seed=%llu lanes=%d nproc=%d round=%lld ops=%lld "
              "wall_s=%.3f traced=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), lanes,
              nproc, static_cast<long long>(round), static_cast<long long>(attempted),
              m.wall_s, traced ? 1 : 0);
  Json doc = Json::object();
  doc["schema"] = "rdo_e2e/1";
  doc["workload"] = a.workload;
  doc["seed"] = a.seed;
  doc["env"] = std::move(env);
  doc["round"] = round;
  doc["correct"] = correct;
  doc["attempted"] = attempted;
  doc["failed"] = failed;
  doc["digest"] = digest.hex();
  Json all = Json::object();
  const auto report = [&](const Metric& em) {
    const double value = e2e_values.at(em.name);
    std::printf("metric %s %.6g %s\n", em.name, value, em.unit);
    all[em.name] = metric_json(value, em.unit);
  };
  for (const Metric& em : kEndToEnd) report(em);
  for (const Metric& em : kInformational) report(em);
  doc["metrics"] = std::move(all);
  // Pooled percentiles over all ops, then each class's.
  const auto percentile_json = [](const e2e::Percentile& p) {
    Json pj = Json::object();
    pj["ms"] = p.value;
    pj["n"] = p.n;
    pj["beyond"] = p.beyond;
    return pj;
  };
  Json lat = Json::object();
  for (const auto& [q, p] : {std::pair<const char*, e2e::Percentile>{"p50", p50},
                             {"p90", p90}, {"p99", p99}}) {
    std::printf("latency %s %.6g ms n=%lld beyond=%lld\n", q, p.value,
                static_cast<long long>(p.n), static_cast<long long>(p.beyond));
    lat[q] = percentile_json(p);
  }
  Json cj = Json::object();
  for (const auto& [cls, c] : classes) {
    const double acc = c.samples > 0.0 ? c.correct / c.samples : -1.0;
    std::printf("class %s share=%.4f n=%lld p50=%.6g ms p90=%.6g ms beyond_p90=%lld "
                "accuracy=%.4f\n",
                cls.c_str(), c.share, static_cast<long long>(c.p50.n), c.p50.value,
                c.p90.value, static_cast<long long>(c.p90.beyond), acc);
    Json one = Json::object();
    one["share"] = c.share;
    one["accuracy"] = acc;
    one["p50"] = percentile_json(c.p50);
    one["p90"] = percentile_json(c.p90);
    cj[cls] = std::move(one);
  }
  lat["classes"] = std::move(cj);
  doc["latency"] = std::move(lat);
  Json setup = Json::object();
  Json ss = Json::array(), ts = Json::array();
  for (double s : setup_s) ss.push_back(s);
  for (double s : train_s) ts.push_back(s);
  setup["setup_s"] = std::move(ss);
  setup["train_s"] = std::move(ts);
  doc["setup"] = std::move(setup);
  std::printf("digest %s\n", digest.hex().c_str());

  Json result_metrics = Json::object();
  if (traced) {
    const e2e::LayerValues layer = per_layer(m, *w, train_s);
    Json pl = Json::object();
    for (const Metric& lm : kPerLayer) {
      const auto it = layer.find(lm.name);
      const double value = it != layer.end() ? it->second : 0.0;
      std::printf("layer %s %.6g %s\n", lm.name, value, lm.unit);
      pl[lm.name] = metric_json(value, lm.unit);
    }
    result_metrics = pl;
    doc["per_layer"] = std::move(pl);
    Json layers = Json::object();
    for (const auto& [name, t] : m.spans) {
      Json lj = Json::object();
      lj["count"] = t.count;
      lj["busy_ms"] = t.busy_ms;
      lj["self_ms"] = t.self_ms;
      lj["failures"] = t.failures;
      layers[name] = std::move(lj);
    }
    doc["layers"] = std::move(layers);
  } else {
    for (const Metric& em : kEndToEnd) {
      result_metrics[em.name] = metric_json(e2e_values.at(em.name), em.unit);
    }
  }
  Json fj = Json::array();
  for (const std::string& f : failures) {
    std::fprintf(stderr, "rdo_e2e: FAIL %s\n", f.c_str());
    fj.push_back(f);
  }
  doc["failures"] = std::move(fj);
  if (!a.json_path.empty()) {
    try {
      obs::write_json_file(doc, a.json_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rdo_e2e: %s\n", e.what());
      return 1;
    }
  }

  Json result = Json::object();
  result["correct"] = correct;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = std::move(result_metrics);
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}
