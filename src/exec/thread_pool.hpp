#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hadas::exec {

/// Run `body(i)` for i in [0, n) on the calling thread, feeding the same
/// "exec.tasks_total" / "exec.task_seconds" instruments the pool's workers
/// do. The serial dispatch paths use this so the task counter means "tasks
/// executed" regardless of thread count (the per-task clock is read only
/// while obs::enabled(), like everywhere else).
void run_serial_instrumented(std::size_t n,
                             const std::function<void(std::size_t)>& body);

/// Fixed-size worker pool over one mutex-guarded FIFO queue.
///
/// The only entry point is `parallel_for`, which blocks until every
/// iteration ran. The calling thread claims iterations too, so a nested
/// parallel_for (a task that itself fans out) cannot deadlock even with
/// every worker busy. Iterations run in scheduling-dependent order; callers
/// that need a deterministic result order merge by index (as
/// ParallelDispatcher does), never by completion order.
///
/// parallel_for posts at most one helper task per worker and hands out
/// iterations through an atomic counter, so the queue holds a handful of
/// entries and its one lock is not a contention point. The destructor lets
/// the workers drain the queue, then joins them.
///
/// A pool constructed with 0 or 1 threads runs everything inline on the
/// calling thread — the serial fallback used for debugging.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (0 = inline execution).
  std::size_t size() const { return workers_.size(); }

  /// Run `body(i)` for every i in [0, n). Iterations are claimed from an
  /// atomic counter by the caller plus up to size() workers; the call
  /// returns once all n ran. The first exception thrown by any iteration is
  /// rethrown here (remaining iterations still run to completion).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  void post(std::function<void()> task);
  void worker_loop();

  std::mutex mutex_;  // guards queue_ and stop_
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace hadas::exec
