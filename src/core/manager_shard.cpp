// The drain cycle both dispatch modes share, the per-stream drain with its
// scheduling handoff, the per-shard drain workers' take-all/park loop, and
// best-effort core pinning.
//
// Park/wake protocol (no lost wakeups): a producer pushes onto the ready
// stack, THEN loads `parked`; the worker stores `parked = true`, THEN
// rechecks the stack (and the cv wait predicate rechecks it again under the
// wake mutex). All four accesses are seq_cst, so in the single total order
// either the producer's push precedes the worker's recheck (the worker sees
// the stream and skips the sleep) or the worker's parked-store precedes the
// producer's load (the producer takes the wake mutex and notifies into the
// wait). There is no interleaving in which the push lands after the final
// recheck AND the parked-load misses the flag.
#include <algorithm>
#include <thread>

#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/util/thread_pool.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace edgedrift::core {

void PipelineManager::start_workers() {
  for (auto& shard : shards_) {
    Shard* sp = shard.get();
    sp->worker = std::thread([this, sp] { shard_worker(*sp); });
  }
}

void PipelineManager::maybe_schedule(Stream& s) {
  Shard& shard = *shards_[s.shard];
  if (options_.dispatch == DispatchMode::kManual) {
    // No worker: list the stream for the next drain(), once until that
    // drain takes it. The consumer role stays with `scheduled`.
    if (!s.listed.exchange(true)) shard.ready.push(&s);
    return;
  }
  if (s.scheduled.exchange(true)) return;  // A drain cycle already owns it.
  active_.fetch_add(1);
  shard.ready.push(&s);
  if (shard.parked.load()) {
    // Lock-and-drop pins the worker either before its wait predicate (it
    // will see the push) or inside the wait (it will get this notify).
    { std::lock_guard lock(shard.wake_mutex); }
    shard.wake_cv.notify_one();
  }
}

void PipelineManager::shard_worker(Shard& shard) {
  // The shard worker is this shard's compute thread: any parallel_for a
  // pipeline issues mid-drain must run inline here, not fan out onto the
  // shared pool where shards would contend with each other.
  util::ThreadPool::mark_inline_worker();
  if (options_.pin_cores) pin_worker(shard);
  for (;;) {
    Stream* chain = shard.ready.take_all();
    if (chain == nullptr) {
      if (shard.stopping.load()) return;
      shard.parked.store(true);
      if (shard.ready.empty() && !shard.stopping.load()) {
        std::unique_lock lock(shard.wake_mutex);
        shard.wake_cv.wait(lock, [&] {
          return !shard.ready.empty() || shard.stopping.load();
        });
        shard.obs.add_worker_park();
      }
      shard.parked.store(false);
      continue;
    }
    // Every chained stream's producer won its scheduled flag, so the
    // worker holds each consumer role and no link is reused before
    // drain_cycle hands the role back.
    auto& cand = shard.plan_candidates;
    cand.clear();
    for (Stream* s = chain; s != nullptr;
         s = s->ready_next.load(std::memory_order_relaxed)) {
      cand.push_back(s);
    }
    drain_cycle(shard);
    // One decrement per cycle, under done_mutex_ so a drain() waiter can
    // only observe active_ == 0 after this cycle is past its last member
    // access — the manager may be destroyed the moment the wait returns.
    // (The worker itself is joined by the destructor, which can only run
    // after drain() returned.)
    std::lock_guard lock(done_mutex_);
    active_.fetch_sub(cand.size());
    if (pending_.load() == 0 && active_.load() == 0) done_cv_.notify_all();
  }
}

void PipelineManager::drain_cycle(Shard& shard) {
  auto& cand = shard.plan_candidates;
  std::reverse(cand.begin(), cand.end());  // The stack is newest-first.
  // The coalesced pass drains shared-projection groups in one mega-batch
  // each; run_stream then drains leftovers (staging caps, recovery
  // fallbacks) and hands back every stream's consumer role.
  if (options_.coalesce) coalesce_candidates(shard);
  for (Stream* s : cand) run_stream(*s);
}

void PipelineManager::run_stream(Stream& s) {
  for (;;) {
    drain_burst(s);
    // Handoff: clear the flag, then re-check for rows published in the
    // gap. exchange(true) == false means we won the flag back and keep
    // draining; true means a producer already scheduled a successor cycle.
    s.scheduled.store(false);
    if (s.tail.load() == s.head.load()) break;
    if (s.scheduled.exchange(true)) break;
  }
  after_drain(s);
}

void PipelineManager::pin_worker(Shard& shard) {
#if defined(__linux__)
  // Pin shard i to the i-th CPU this process is allowed to run on — the
  // allowed set, not raw core numbers, so cgroup/taskset restrictions are
  // respected. With more shards than allowed cores, shards wrap.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int target = -1;
  std::size_t seen = 0;
  const std::size_t count = static_cast<std::size_t>(CPU_COUNT(&allowed));
  if (count == 0) return;
  const std::size_t want = shard.index % count;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (seen == want) {
      target = c;
      break;
    }
    ++seen;
  }
  if (target < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(target, &one);
  if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0) {
    shard.pinned.store(true);
  }
#else
  (void)shard;
#endif
}

}  // namespace edgedrift::core
