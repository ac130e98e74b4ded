#ifndef DISCSEC_COMMON_THREAD_POOL_H_
#define DISCSEC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace discsec {

/// A bounded pool of worker threads with a shared FIFO queue — the execution
/// substrate for the parallel verification engine. Deliberately simple: no
/// work stealing, no priorities, no futures; parallel work is expressed as a
/// taskgraph::TaskGraph run on the pool, which is safe to nest (the calling
/// thread always participates, so a nested graph makes progress even when
/// every pool worker is busy).
///
/// Callers thread a `ThreadPool*` through their options; a null pool runs the
/// same graphs on the caller, and stays the default.
class ThreadPool {
 public:
  /// Spawns `threads` workers. Zero is allowed: Submit still works (a task
  /// graph's caller drains every node itself), which keeps a 1-thread sweep
  /// honest in the benchmarks.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return workers_.size(); }

  /// Enqueues `task` for execution by a worker. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t HardwareThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace discsec

#endif  // DISCSEC_COMMON_THREAD_POOL_H_
