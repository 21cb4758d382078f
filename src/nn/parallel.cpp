#include "nn/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/envvar.h"
#include "obs/trace.h"

namespace rdo::nn {

namespace {

thread_local bool tls_in_parallel = false;

int default_thread_count() {
  if (const char* s = rdo::obs::env_knob("RDO_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end != s && v >= 1) {
      return static_cast<int>(std::min<long>(v, 512));
    }
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

std::atomic<int> g_thread_override{0};  // <= 0: use the env/hw default

// Execution-layer statistics (see PoolStats). Relaxed atomics: the
// counts are observability data, not synchronization.
std::atomic<std::int64_t> g_parallel_loops{0};
std::atomic<std::int64_t> g_inline_loops{0};
std::atomic<std::int64_t> g_chunks_executed{0};
std::atomic<std::int64_t> g_chunks_stolen{0};

/// One parallel_for invocation. Chunks are claimed with an atomic
/// counter; completion is signalled when the last chunk retires, so the
/// caller never waits on helper threads that found nothing to steal.
struct ForLoop {
  std::int64_t n = 0;
  std::int64_t chunk = 1;
  std::int64_t num_chunks = 0;
  const std::function<void(std::int64_t, std::int64_t)>* body = nullptr;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first failure wins; guarded by mu

  void work(bool helper) {
    const bool was_in_parallel = tls_in_parallel;
    tls_in_parallel = true;
    for (;;) {
      const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_chunks) break;
      const std::int64_t begin = i * chunk;
      const std::int64_t end = std::min(n, begin + chunk);
      rdo::obs::TraceSpan span("pool:chunk", "pool");
      span.arg("begin", begin);
      span.arg("end", end);
      try {
        (*body)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      // Stats are bumped per chunk, sequenced before this chunk's `done`
      // increment: once the waiter has observed every chunk retire, every
      // stats increment happened-before it as well, so a pool_stats()
      // snapshot taken after the loop returns already holds every count
      // of the loop and none leaks into the next window.
      g_chunks_executed.fetch_add(1, std::memory_order_relaxed);
      if (helper) g_chunks_stolen.fetch_add(1, std::memory_order_relaxed);
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        std::lock_guard<std::mutex> lock(mu);  // pairs with the waiter
        cv.notify_all();
      }
    }
    tls_in_parallel = was_in_parallel;
  }
};

/// Lazily started persistent worker pool. Workers pull whole ForLoops
/// from a queue and drain chunks from them; several concurrent
/// parallel_for calls (from distinct user threads) simply enqueue more
/// entries.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void post(const std::shared_ptr<ForLoop>& loop, int copies) {
    std::unique_lock<std::mutex> lock(mu_);
    ensure_workers(copies);
    for (int i = 0; i < copies; ++i) queue_.push_back(loop);
    lock.unlock();
    cv_.notify_all();
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

 private:
  // Grow-only: shrinking would require draining in-flight work; unused
  // workers just sleep on the queue.
  void ensure_workers(int target) {
    while (static_cast<int>(workers_.size()) < target) {
      // Worker i owns trace track i+1 for its whole lifetime (track 0
      // is the first unbound thread, normally main), so spans stay on
      // stable per-worker rows across trace start/stop cycles.
      const int idx = static_cast<int>(workers_.size()) + 1;
      workers_.emplace_back([this, idx] {
        rdo::obs::trace_bind_thread(idx,
                                    "pool-worker-" + std::to_string(idx));
        worker_main();
      });
    }
  }

  void worker_main() {
    for (;;) {
      std::shared_ptr<ForLoop> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task->work(/*helper=*/true);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<ForLoop>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace

int thread_count() {
  const int override = g_thread_override.load(std::memory_order_relaxed);
  if (override >= 1) return override;
  static const int resolved = default_thread_count();
  return resolved;
}

void set_thread_count(int n) {
  g_thread_override.store(n >= 1 ? n : 0, std::memory_order_relaxed);
}

bool in_parallel_region() { return tls_in_parallel; }

PoolStats pool_stats() {
  PoolStats s;
  s.parallel_loops = g_parallel_loops.load(std::memory_order_relaxed);
  s.inline_loops = g_inline_loops.load(std::memory_order_relaxed);
  s.chunks_executed = g_chunks_executed.load(std::memory_order_relaxed);
  s.chunks_stolen = g_chunks_stolen.load(std::memory_order_relaxed);
  return s;
}

void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& body,
                  std::int64_t grain) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const int threads = thread_count();
  if (threads <= 1 || tls_in_parallel || n <= grain) {
    g_inline_loops.fetch_add(1, std::memory_order_relaxed);
    body(0, n);
    return;
  }
  g_parallel_loops.fetch_add(1, std::memory_order_relaxed);
  rdo::obs::TraceSpan span("pool:parallel_for", "pool");
  auto loop = std::make_shared<ForLoop>();
  loop->n = n;
  // ~4 chunks per thread absorbs per-chunk load imbalance without
  // shrinking chunks below `grain`.
  loop->chunk = std::max<std::int64_t>(
      grain, (n + static_cast<std::int64_t>(threads) * 4 - 1) /
                 (static_cast<std::int64_t>(threads) * 4));
  loop->num_chunks = (n + loop->chunk - 1) / loop->chunk;
  loop->body = &body;
  span.arg("n", n);
  span.arg("chunks", loop->num_chunks);
  span.arg("grain", grain);
  const int helpers = static_cast<int>(std::min<std::int64_t>(
      threads - 1, loop->num_chunks - 1));
  if (helpers > 0) Pool::instance().post(loop, helpers);
  loop->work(/*helper=*/false);  // the caller is a worker too
  {
    std::unique_lock<std::mutex> lock(loop->mu);
    loop->cv.wait(lock, [&] {
      return loop->done.load(std::memory_order_acquire) == loop->num_chunks;
    });
  }
  if (span.active()) {
    rdo::obs::trace_counter(
        "pool_chunks_executed",
        g_chunks_executed.load(std::memory_order_relaxed));
    rdo::obs::trace_counter(
        "pool_chunks_stolen",
        g_chunks_stolen.load(std::memory_order_relaxed));
  }
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace rdo::nn
