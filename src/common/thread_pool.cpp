#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/env.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace slicer {

namespace {

/// Depth of ScopedSerial guards on this thread. Thread-local so a guard in
/// a benchmark thread never affects concurrently running pool users.
thread_local int serial_depth = 0;

/// Test/bench override of the process-wide pool (see ScopedPool).
std::atomic<ThreadPool*> pool_override{nullptr};

std::size_t configured_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return env::size_knob("SLICER_THREADS", hw == 0 ? 1 : hw, 1, 4096);
}

/// Shared state of one parallel_for: an index dispenser plus completion
/// accounting. Helpers hold it via shared_ptr so a queued closure that is
/// popped after the job finished finds an exhausted dispenser and returns.
struct Job {
  std::size_t n = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> abort{false};
  std::mutex m;
  std::condition_variable cv;
  std::exception_ptr error;

  /// Claims and runs chunks until the dispenser is exhausted.
  void run_chunks() {
    for (;;) {
      const std::size_t lo = next.fetch_add(grain);
      if (lo >= n) return;
      const std::size_t hi = std::min(lo + grain, n);
      if (!abort.load(std::memory_order_relaxed)) {
        try {
          for (std::size_t i = lo; i < hi; ++i) (*body)(i);
        } catch (...) {
          abort.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(m);
          if (!error) error = std::current_exception();
        }
      }
      const std::size_t completed =
          done.fetch_add(hi - lo, std::memory_order_acq_rel) + (hi - lo);
      if (completed == n) {
        std::lock_guard<std::mutex> lock(m);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::instance() {
  if (ThreadPool* p = pool_override.load(std::memory_order_acquire)) return *p;
  static ThreadPool pool(configured_threads());
  return pool;
}

bool ThreadPool::is_serial() const {
  return workers_.empty() || serial_depth > 0;
}

void ThreadPool::worker_loop() {
  static metrics::Counter& helpers_run =
      metrics::counter("common.thread_pool.helpers_run");
  static metrics::Gauge& queue_depth =
      metrics::gauge("common.thread_pool.queue_depth");
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    }
    helpers_run.add();
    task();
  }
}

void ThreadPool::enqueue_helpers(std::size_t count,
                                 const std::function<void()>& helper) {
  static metrics::Counter& helpers_enqueued =
      metrics::counter("common.thread_pool.helpers_enqueued");
  static metrics::Gauge& queue_depth =
      metrics::gauge("common.thread_pool.queue_depth");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < count; ++i) queue_.push_back(helper);
    queue_depth.set(static_cast<std::int64_t>(queue_.size()));
  }
  helpers_enqueued.add(count);
  if (count == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  static metrics::Counter& inline_jobs =
      metrics::counter("common.thread_pool.inline_jobs");
  static metrics::Counter& parallel_jobs =
      metrics::counter("common.thread_pool.parallel_jobs");
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (is_serial() || n <= grain) {
    inline_jobs.add();
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  parallel_jobs.add();

  auto job = std::make_shared<Job>();
  job->n = n;
  job->grain = grain;
  job->body = &body;

  // One helper per worker, capped by the number of chunks beyond the one
  // the caller will take itself.
  const std::size_t chunks = (n + grain - 1) / grain;
  const std::size_t helpers = std::min(workers_.size(), chunks - 1);
  enqueue_helpers(helpers, [job, parent = trace::current_span_id()] {
    trace::AdoptParent adopt(parent);
    job->run_chunks();
  });

  // The caller works the same dispenser, so the job progresses even when
  // all workers are occupied by other (possibly enclosing) jobs.
  job->run_chunks();

  std::unique_lock<std::mutex> lock(job->m);
  job->cv.wait(lock, [&job] { return job->done.load() == job->n; });
  if (job->error) std::rethrow_exception(job->error);
}

void ThreadPool::invoke2(const std::function<void()>& a,
                         const std::function<void()>& b) {
  if (is_serial()) {
    a();
    b();
    return;
  }
  parallel_for(2, [&](std::size_t i) {
    if (i == 0) {
      a();
    } else {
      b();
    }
  });
}

ThreadPool::ScopedSerial::ScopedSerial() { ++serial_depth; }
ThreadPool::ScopedSerial::~ScopedSerial() { --serial_depth; }

ThreadPool::ScopedPool::ScopedPool(std::size_t threads)
    : pool_(threads),
      previous_(pool_override.exchange(&pool_, std::memory_order_acq_rel)) {}

ThreadPool::ScopedPool::~ScopedPool() {
  pool_override.store(previous_, std::memory_order_release);
}

}  // namespace slicer
