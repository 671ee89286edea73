// Work-stealing-free thread pool behind the parallel hot paths.
//
// One process-wide pool (sized by SLICER_THREADS, default
// std::thread::hardware_concurrency()) backs `parallel_for` /
// `parallel_map` / `invoke2`. The design is deliberately simple — a single
// FIFO of helper closures plus an atomic index counter per job — because
// every parallel region in Slicer is an index-addressed fan-out over
// expensive, independent big-integer operations:
//
//   * the caller participates: it claims index chunks exactly like a
//     worker, so a job always makes progress even when every worker is
//     busy (this is what makes nested parallel_for calls — e.g. the
//     product-tree inside a forked all_witnesses half — deadlock-free);
//   * results are written to per-index slots, so scheduling order never
//     changes the output: a run with N threads is bit-identical to a run
//     with SLICER_THREADS=1, which executes everything inline on the
//     calling thread with no pool interaction at all;
//   * helpers adopt the caller's live trace span as their parent, so spans
//     opened on worker lanes join the caller's trace tree.
//
// Every region is fork-join: the pool takes no standalone tasks. A
// long-lived request (a network server handler) runs on its own thread,
// which becomes the caller lane of the regions it issues.
//
// Thread-safety contract: ThreadPool methods are safe to call from any
// thread, including from inside a running parallel region.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace slicer {

/// Fixed-size thread pool with caller participation.
class ThreadPool {
 public:
  /// `threads` is the total parallelism (caller lane included):
  /// threads == 1 spawns no workers and runs everything inline.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool: sized by the SLICER_THREADS environment
  /// variable (default hardware_concurrency, minimum 1), unless a
  /// ScopedPool override is active on this thread's process.
  static ThreadPool& instance();

  /// Total parallel lanes (workers + the calling thread).
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// True when this call would run inline on the calling thread — either
  /// the pool has a single lane or a ScopedSerial guard is active.
  bool is_serial() const;

  /// Runs body(i) for every i in [0, n), blocking until all complete.
  /// Indices are claimed in chunks of `grain` from a shared counter; the
  /// caller participates. The first exception thrown by any body is
  /// rethrown here (remaining indices may be skipped). Serial pools (or an
  /// active ScopedSerial) execute `body(0..n-1)` in order on this thread.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  /// parallel_for that materializes results: out[i] = fn(i).
  /// T must be default-constructible and movable.
  template <typename T, typename Fn>
  std::vector<T> parallel_map(std::size_t n, Fn&& fn, std::size_t grain = 1) {
    std::vector<T> out(n);
    parallel_for(
        n, [&](std::size_t i) { out[i] = fn(i); }, grain);
    return out;
  }

  /// Fork-join of two thunks (the all_witnesses recursion splitter).
  void invoke2(const std::function<void()>& a, const std::function<void()>& b);

  /// RAII guard forcing every parallel_for issued from the current thread
  /// (and the regions nested inside it) to run inline — the exact
  /// SLICER_THREADS=1 code path. Benchmarks use it to time the serial
  /// baseline inside a parallel process.
  class ScopedSerial {
   public:
    ScopedSerial();
    ~ScopedSerial();
    ScopedSerial(const ScopedSerial&) = delete;
    ScopedSerial& operator=(const ScopedSerial&) = delete;
  };

  /// RAII guard replacing ThreadPool::instance() with a pool of the given
  /// size (defined after the class — it owns a ThreadPool by value). For
  /// tests and benchmarks only: installation is not synchronized, so
  /// establish the override before spawning any work.
  class ScopedPool;

 private:
  void worker_loop();
  void enqueue_helpers(std::size_t count, const std::function<void()>& helper);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

class ThreadPool::ScopedPool {
 public:
  explicit ScopedPool(std::size_t threads);
  ~ScopedPool();
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

  ThreadPool& pool() { return pool_; }

 private:
  ThreadPool pool_;
  ThreadPool* previous_;
};

}  // namespace slicer
