// Fixed-size worker pool for the parallel execution layer.
//
// The pool is a plain task queue: submit() enqueues a callable, workers drain
// the queue in FIFO order.  It makes no ordering promises of its own — the
// deterministic-ordering contract lives one level up in parallel_for (see
// parallel_for.hpp and DESIGN.md §"Parallel execution"): callers arrange for
// every task to write only its own pre-assigned output slots, so results are
// positionally identical no matter which worker runs which task when.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cosmicdance::exec {

/// Number of workers to use for a requested thread count: 0 means "all
/// hardware threads", anything else is used as given (minimum 1).
[[nodiscard]] std::size_t resolve_thread_count(int requested) noexcept;

class ThreadPool {
 public:
  /// Spawns `thread_count` workers (minimum 1).  Workers live until
  /// destruction; the destructor drains nothing — submitted work must be
  /// waited on by the caller (parallel_for always does).
  explicit ThreadPool(std::size_t thread_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task.  Throws std::runtime_error after shutdown began.
  void submit(std::function<void()> task);

  /// Process-wide shared pool sized at hardware concurrency, created on
  /// first use.  parallel_for draws workers from here so repeated parallel
  /// sections do not pay thread spawn/join costs.
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutting_down_ = false;
};

}  // namespace cosmicdance::exec
