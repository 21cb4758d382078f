// Monotonic wall clock for timings that are not a scope: a BENCH
// report's whole-run total_seconds, per-trial wall times
// (SchemeResult::trial_seconds) and a service's uptime. Header-only.
// A timed *scope* is a TraceSpan with an accumulator (obs/trace.h): it
// feeds DeployStats, the BENCH phase table (BenchReport::phase) and
// RDO_TRACE from one pair of clock reads.
//
// Timing never feeds back into any computation — clocks are read only to
// fill the volatile `timing` section of a report — so instrumented code
// keeps PR 1's bit-identical determinism guarantee.
#pragma once

#include <chrono>

namespace rdo::obs {

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  void reset() { start_ = clock::now(); }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace rdo::obs
