// Deterministic thread-pool execution layer.
//
// parallel_for(n, body) runs body(begin, end) over disjoint chunks that
// exactly cover [0, n). Each index is processed by exactly one task and
// the iteration order *within* a chunk is the serial order, so any loop
// whose chunks touch disjoint outputs produces bit-identical results for
// every thread count (including 1). All randomness in this repo flows
// through explicit Rng streams (see nn/rng.h) that are split per work
// item, never shared across tasks, so parallel Monte-Carlo trials are
// reproducible too.
//
// The pool size is resolved once from the RDO_THREADS environment
// variable (default: std::thread::hardware_concurrency) and can be
// overridden programmatically with set_thread_count. Nested parallel_for
// calls execute inline on the calling worker (no oversubscription, no
// deadlock).
#pragma once

#include <cstdint>
#include <functional>

namespace rdo::nn {

/// Number of threads parallel_for may use, including the calling thread
/// (always >= 1). Resolution order: set_thread_count override, then the
/// RDO_THREADS environment variable, then hardware_concurrency.
int thread_count();

/// Override the pool size. n >= 1 forces that many threads (1 = serial
/// execution); n <= 0 resets to the RDO_THREADS/hardware default. Must
/// not be called concurrently with a running parallel_for (intended for
/// harness setup and tests).
void set_thread_count(int n);

/// True while the calling thread executes inside a parallel_for body;
/// nested parallel_for calls detect this and run inline.
[[nodiscard]] bool in_parallel_region();

/// Cumulative execution-layer statistics since process start; a window
/// is the difference of two pool_stats() snapshots. Counters are advisory observability data:
/// they vary with thread count and load and belong in the *volatile*
/// `pool` section of structured reports, never in deterministic results.
struct PoolStats {
  std::int64_t parallel_loops = 0;   ///< loops dispatched to the pool
  std::int64_t inline_loops = 0;     ///< loops run inline (serial/nested/small)
  std::int64_t chunks_executed = 0;  ///< chunks retired across all loops
  std::int64_t chunks_stolen = 0;    ///< chunks claimed by helper workers
};

[[nodiscard]] PoolStats pool_stats();

/// Chunked parallel loop over [0, n). `body(begin, end)` receives
/// half-open disjoint ranges covering [0, n); chunks are claimed by an
/// atomic counter (cheap work stealing) so load imbalance between chunks
/// is absorbed. `grain` is the minimum chunk length — raise it when one
/// iteration is tiny so dispatch overhead cannot dominate.
///
/// The first exception thrown by any chunk is rethrown on the calling
/// thread after all chunks finish. Runs inline when n <= grain, when the
/// pool has one thread, or when already inside a parallel region.
void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& body,
                  std::int64_t grain = 1);

}  // namespace rdo::nn
