// The four rdo_e2e workloads (see README.md for why each exists).
//
// A workload is a fixed, seeded list of distinct ops (its "round"). The
// measured phase runs the op stream round[i % round_size] for i = 0, 1, ...
// in a closed loop on T lanes until the time budget is spent and at least
// one full round is done; every repetition of an op must reproduce the
// round's first result bit for bit.
//
// Every op belongs to a class (a grid point, a config family, a request
// kind and slice size), fixed by its position in the round. Each round
// holds every class in a fixed share, so latency percentiles are taken per
// class and combined by those shares.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/deploy.h"
#include "ledger.h"

namespace rdo::e2e {

/// The outcome of one op, filled on the lane that ran it.
struct OpOutcome {
  std::int64_t index = 0;     ///< position in the op stream
  std::int64_t spec = 0;      ///< index into the round (index % round)
  double start_s = 0.0;       ///< start, seconds into the measured phase
  double seconds = 0.0;       ///< op latency
  float accuracy = -1.0f;     ///< < 0: the op reports no accuracy
  std::int64_t samples = 0;   ///< samples evaluated
  rdo::core::DeployStats stats;  ///< public pipeline record of the op
  std::string tag;            ///< deterministic response class (serve)
  std::string error;          ///< non-empty: the op failed
};

/// Per-layer values of a traced run, keyed by per-layer metric name. A
/// layer a workload bypasses is absent and reported as 0.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Round size when --ops is not given.
  [[nodiscard]] virtual std::int64_t default_round() const = 0;
  /// True: lanes fan out over nn::parallel_for with the pool at T threads
  /// (nested loops run inline). False: T client threads, pool size 1.
  [[nodiscard]] virtual bool fans_out_over_pool() const = 0;

  /// Build everything the measured phase needs from scratch: data, model
  /// training, compiled plans or the service, and the warm-up. Called
  /// several times; each call replaces the previous state.
  virtual void setup(std::int64_t round) = 0;
  /// Seconds the last setup() spent training its model.
  [[nodiscard]] virtual double train_seconds() const = 0;

  /// The latency class of round op `spec`.
  [[nodiscard]] virtual std::string op_class(std::int64_t spec) const = 0;

  /// Hooks around the measured phase (counter snapshots, gate sampling).
  virtual void begin_measure(bool traced) { (void)traced; }
  virtual void end_measure() {}

  /// Run round op `spec`; thread-safe across lanes.
  virtual void run_op(std::int64_t spec, OpOutcome& out) = 0;

  /// Traced runs only, after the measured phase and still traced: time,
  /// in e2e:probe:* spans, the calls the ops make that the benchmark cannot
  /// wrap from outside.
  virtual void probe() {}

  /// Post-run correctness checks beyond repeat-determinism. Returns the
  /// specs whose check failed, each with a reason; `digest_counters`
  /// receives deterministic counters to fold into the run digest.
  virtual std::vector<std::pair<std::int64_t, std::string>> verify(
      const std::map<std::int64_t, const OpOutcome*>& first_by_spec,
      std::vector<std::int64_t>& digest_counters) {
    (void)first_by_spec;
    (void)digest_counters;
    return {};
  }

  /// Traced runs only: the values of the layers this workload's ops
  /// exercise, from the trace's span totals, the ops' records and the
  /// counters read around the measured phase.
  virtual void layer_values(const SpanLedger& spans,
                            const std::vector<OpOutcome>& ops,
                            LayerValues& v) const = 0;
};

/// nullptr for an unknown name. `threads` is T, the lane count.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      int threads);

}  // namespace rdo::e2e
