#include "common/thread_pool.hpp"

#include <cstdlib>
#include <memory>

namespace veil::common {

namespace {

// Set while a pool worker (or a thread already inside a parallel region)
// is on the stack; nested regions then run inline rather than re-queueing
// work they would have to wait on.
thread_local bool t_inside_pool = false;

std::size_t default_thread_count() {
  if (const char* env = std::getenv("VEIL_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

// Shared state of one parallel_for region. Indices are claimed in chunks
// through `next`; `done` counts *completed* indices so the caller's wait
// cannot finish while a worker is still inside `body`.
struct ThreadPool::ForState {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> abort{false};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t workers = threads <= 1 ? 0 : threads - 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_main() {
  t_inside_pool = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::run_region(ForState& st) {
  for (;;) {
    const std::size_t begin = st.next.fetch_add(st.chunk);
    if (begin >= st.n) return;
    const std::size_t end = std::min(begin + st.chunk, st.n);
    for (std::size_t i = begin; i < end; ++i) {
      if (!st.abort.load(std::memory_order_relaxed)) {
        try {
          (*st.body)(i);
        } catch (...) {
          st.abort.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(st.mu);
          if (!st.error) st.error = std::current_exception();
        }
      }
    }
    const std::size_t finished =
        st.done.fetch_add(end - begin, std::memory_order_acq_rel) +
        (end - begin);
    if (finished == st.n) {
      // Completion can happen on any thread; wake the caller.
      std::lock_guard<std::mutex> lock(st.mu);
      st.cv.notify_all();
      return;
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || t_inside_pool) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto st = std::make_shared<ForState>();
  st->body = &body;
  st->n = n;
  // Chunked claiming amortizes the atomic per cheap body; heavy bodies
  // (signature verification, primality rounds) get chunk 1 and balance.
  st->chunk = std::max<std::size_t>(1, n / (thread_count() * 8));

  const std::size_t helpers = std::min(workers_.size(), n - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < helpers; ++i) {
      queue_.emplace_back([st] { run_region(*st); });
    }
  }
  cv_.notify_all();

  t_inside_pool = true;
  run_region(*st);
  t_inside_pool = false;

  {
    std::unique_lock<std::mutex> lock(st->mu);
    st->cv.wait(lock, [&] { return st->done.load() == st->n; });
    if (st->error) std::rethrow_exception(st->error);
  }
}

namespace {
std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool =
      std::make_unique<ThreadPool>(default_thread_count());
  return pool;
}
}  // namespace

ThreadPool& ThreadPool::global() { return *global_slot(); }

void ThreadPool::set_global_threads(std::size_t threads) {
  global_slot() = std::make_unique<ThreadPool>(threads < 1 ? 1 : threads);
}

}  // namespace veil::common
