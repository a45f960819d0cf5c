// Fixed-size thread pool used for concurrent insert/query experiments and
// the background merge executor.

#ifndef RTSI_COMMON_THREAD_POOL_H_
#define RTSI_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rtsi {

class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks (unbounded queue).
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  std::size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // Signals workers: new task or stop.
  std::condition_variable idle_cv_;   // Signals Wait(): all drained.
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rtsi

#endif  // RTSI_COMMON_THREAD_POOL_H_
