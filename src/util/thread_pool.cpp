#include "edgedrift/util/thread_pool.hpp"

#include <algorithm>

namespace edgedrift::util {
namespace {

// Set while a thread is executing inside worker_loop(). Used to run nested
// parallel_for calls inline instead of deadlocking the pool.
thread_local bool t_in_worker = false;

}  // namespace

void ThreadPool::mark_inline_worker() { t_in_worker = true; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  auto promise = std::make_shared<std::promise<void>>();
  auto future = promise->get_future();
  submit_detached([promise = std::move(promise), task = std::move(task)] {
    try {
      task();
      promise->set_value();
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return future;
}

void ThreadPool::submit_detached(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_chunk) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = size();
  if (workers <= 1 || n <= min_chunk || t_in_worker) {
    body(begin, end);
    return;
  }
  const std::size_t chunks = std::min(workers, (n + min_chunk - 1) / min_chunk);
  const std::size_t step = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * step;
    const std::size_t hi = std::min(end, lo + step);
    if (lo >= hi) break;
    futures.push_back(submit([&body, lo, hi] { body(lo, hi); }));
  }
  for (auto& f : futures) f.get();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace edgedrift::util
