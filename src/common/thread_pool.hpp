// Fixed-size worker pool with order-preserving data-parallel helpers.
//
// The execution engine behind every parallel hot path in the framework:
// Fabric endorsement fan-out, Quorum transaction-manager envelope
// encryption, Corda flow sealing, Merkle leaf hashing and Miller-Rabin
// witness rounds all funnel through `parallel_for`/`parallel_map`.
//
// Design constraints, in order of importance:
//
//  1. Determinism. `parallel_map` writes result `i` to slot `i`, so the
//     output is bit-identical to the serial loop regardless of thread
//     count or scheduling. Callers that consume an `Rng` draw from it
//     *before* entering the parallel region.
//  2. Graceful degradation. With one thread (the default when
//     `VEIL_THREADS` is unset on a single-core host, or explicitly with
//     `VEIL_THREADS=1`) no worker threads exist at all and every helper
//     executes inline on the caller — the sim-clock/Rng-driven tests see
//     exactly the code path they saw before the pool existed.
//  3. Exceptions propagate. The first exception thrown by any index is
//     captured and rethrown on the calling thread after the region
//     completes; remaining indices are skipped (claimed but not run).
//
// Worker threads that call back into `parallel_for` (nested parallelism)
// run the nested region inline, so composition can never deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace veil::common {

class ThreadPool {
 public:
  /// A pool with `threads` total execution streams (including the
  /// caller, which participates in every parallel region). `threads <= 1`
  /// creates no workers: all helpers run inline.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution streams (workers + caller); >= 1.
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Run `body(i)` for every i in [0, n). Blocks until all indices have
  /// completed. The caller participates. The first exception (if any) is
  /// rethrown here after the region drains.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Order-preserving map: returns {fn(0), fn(1), ..., fn(n-1)}.
  /// R must be default-constructible.
  template <typename F>
  auto parallel_map(std::size_t n, F&& fn)
      -> std::vector<decltype(fn(std::size_t{}))> {
    using R = decltype(fn(std::size_t{}));
    std::vector<R> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// The process-wide pool. Sized from `VEIL_THREADS` when set (>= 1),
  /// otherwise from std::thread::hardware_concurrency().
  static ThreadPool& global();

  /// Rebuild the global pool with `threads` streams (benchmarks and the
  /// determinism tests sweep this). Not safe to call while another
  /// thread is using the global pool.
  static void set_global_threads(std::size_t threads);

 private:
  struct ForState;

  void worker_main();
  static void run_region(ForState& st);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace veil::common
