// A small fixed-size thread pool used to parallelize the batch linear-algebra
// paths (initial ELM training, batch-based baseline detectors). The fully
// sequential hot path of the proposed detector never touches it — on the
// microcontroller targets the paper addresses there is exactly one core.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace edgedrift::util {

/// Fixed-size worker pool with a parallel_for convenience wrapper.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  /// Enqueues a fire-and-forget task: no future, no promise allocation.
  /// The caller tracks completion itself (PipelineManager counts drain
  /// tasks with its own atomics) — the cheap dispatch for the serving path.
  void submit_detached(std::function<void()> task);

  /// Runs body(i) for i in [begin, end), split into contiguous chunks across
  /// the pool; blocks until all chunks are done. Runs inline when the range
  /// is small, the pool has a single worker, or the caller is itself a pool
  /// worker — a nested parallel_for would otherwise block a worker on
  /// futures that only another (possibly busy) worker can complete.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t min_chunk = 256);

  /// Marks the calling thread as an inline worker: parallel_for on it runs
  /// the whole range inline, exactly as on a pool worker. PipelineManager's
  /// shard drain workers call this so a pipeline's internal batch kernels
  /// never fan out onto the shared pool mid-drain — cross-shard isolation
  /// is the point of sharding.
  static void mark_inline_worker();

  std::size_t size() const { return workers_.size(); }

  /// Process-wide pool sized to the hardware.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace edgedrift::util
