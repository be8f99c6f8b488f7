// PipelineManager: construction, ingestion (submit/submit_batch), the
// per-stream ring drain, the kManual entry points poll() and drain(), and
// the stats surfaces. The drain cycle and the shard worker loop live in
// manager_shard.cpp; the eviction/restore layer in manager_eviction.cpp.
#include "edgedrift/core/pipeline_manager.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "edgedrift/io/checkpoint.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::core {
namespace {

using detail::burst_bucket;
using detail::kRingPageRows;
using detail::RingPage;

void set_status(SubmitStatus* status, SubmitStatus value) {
  if (status != nullptr) *status = value;
}

}  // namespace

PipelineManager::PipelineManager(const PipelineConfig& config,
                                 std::size_t num_streams)
    : PipelineManager(config, num_streams, ManagerOptions{}) {}

PipelineManager::PipelineManager(const PipelineConfig& config,
                                 std::size_t num_streams,
                                 const ManagerOptions& options)
    : options_(options),
      template_config_(config),
      obs_on_(obs::kObsCompiled && config.obs.enabled) {
  EDGEDRIFT_ASSERT(num_streams > 0, "need at least one stream");
  EDGEDRIFT_ASSERT(options_.queue_capacity > 0, "queue_capacity must be > 0");
  if (options_.shards == 0) options_.shards = 1;
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>(config.input_dim);
    shard->index = i;
    if (!options_.cold_spill_dir.empty()) {
      shard->cold.set_spill_dir(options_.cold_spill_dir);
    }
    shards_.push_back(std::move(shard));
  }
  init_streams(config, num_streams);
  if (options_.dispatch == DispatchMode::kShard) start_workers();
}

void PipelineManager::init_streams(const PipelineConfig& config,
                                   std::size_t num_streams) {
  streams_.reserve(num_streams);
  for (std::size_t i = 0; i < num_streams; ++i) {
    PipelineConfig stream_config = template_config_;
    stream_config.seed = config.seed + i;
    auto stream = std::make_unique<Stream>();
    stream->id = i;
    stream->shard = shard_of(i);
    stream->pipeline = std::make_unique<Pipeline>(stream_config);
    stream->pages.assign(detail::ring_page_slots(options_.queue_capacity),
                         nullptr);
    Shard& shard = *shards_[stream->shard];
    {
      std::lock_guard lock(shard.evict_mutex);
      stream->hot_footprint_bytes = hot_footprint(*stream);
      shard.lru.push_mru(stream.get());
      ++shard.hot_streams;
      shard.hot_bytes += stream->hot_footprint_bytes;
    }
    streams_.push_back(std::move(stream));
  }
}

PipelineManager::~PipelineManager() {
  drain();
  for (auto& shard : shards_) {
    shard->stopping.store(true);
    // Pin the worker either before its park recheck or inside the cv wait,
    // then wake it — the same no-lost-wakeup argument producers use.
    { std::lock_guard lock(shard->wake_mutex); }
    shard->wake_cv.notify_all();
    if (shard->worker.joinable()) shard->worker.join();
  }
}

Pipeline& PipelineManager::stream(std::size_t id) {
  EDGEDRIFT_ASSERT(id < streams_.size(), "stream id out of range");
  EDGEDRIFT_ASSERT(streams_[id]->pipeline != nullptr,
                   "stream is evicted — restore it (submit) or check "
                   "resident(id) first");
  return *streams_[id]->pipeline;
}

const Pipeline& PipelineManager::stream(std::size_t id) const {
  EDGEDRIFT_ASSERT(id < streams_.size(), "stream id out of range");
  EDGEDRIFT_ASSERT(streams_[id]->pipeline != nullptr,
                   "stream is evicted — restore it (submit) or check "
                   "resident(id) first");
  return *streams_[id]->pipeline;
}

void PipelineManager::fit(std::size_t id, const linalg::Matrix& x,
                          std::span<const int> labels) {
  stream(id).fit(x, labels);
}

bool PipelineManager::submit(std::size_t id, std::span<const double> x,
                             int true_label, SubmitStatus* status) {
  return submit_batch(id, linalg::ConstMatrixView(x), {&true_label, 1},
                      status) == 1;
}

std::size_t PipelineManager::submit_batch(std::size_t id,
                                          linalg::ConstMatrixView x,
                                          std::span<const int> true_labels,
                                          SubmitStatus* status) {
  set_status(status, SubmitStatus::kOk);
  if (id >= streams_.size()) {
    set_status(status, SubmitStatus::kUnknownStream);
    return 0;
  }
  // A partial label span would silently pair rows with the wrong labels (or
  // read past the span) — only all-or-nothing is accepted.
  if (!true_labels.empty() && true_labels.size() != x.rows()) {
    set_status(status, SubmitStatus::kBadLabelSpan);
    return 0;
  }
  Stream& s = *streams_[id];
  if (x.cols() != template_config_.input_dim) {
    set_status(status, SubmitStatus::kDimensionMismatch);
    return 0;
  }
  // One NaN or Inf poisons the detector's centroids and distances for good
  // (the stream then never detects a drift), so the whole block is refused.
  const double* values = x.data();
  if (!std::all_of(values, values + x.rows() * x.cols(),
                   [](double v) { return std::isfinite(v); })) {
    set_status(status, SubmitStatus::kNonFinite);
    return 0;
  }
  Shard& shard = *shards_[s.shard];
  const std::uint64_t capacity = options_.queue_capacity;
  std::size_t accepted = 0;
  {
    std::unique_lock lock(s.produce_mutex);
    bool counted_block = false;
    std::size_t r = 0;
    while (r < x.rows()) {
      // Checked inside the loop: every wait below releases produce_mutex,
      // and an evictor may push the stream cold while this producer sleeps
      // (space_waiters blocks that for the cv wait, but the kManual poll
      // unlock has no such guard) — the pipeline must be restored before
      // any row is written.
      if (s.residency == Stream::Residency::kCold &&
          !restore_cold(shard, s)) {
        set_status(status, SubmitStatus::kRestoreFailed);
        return accepted;
      }
      const std::uint64_t tail = s.tail.load();
      const std::uint64_t avail = capacity - (tail - s.head.load());
      if (avail == 0) {
        if (options_.backpressure == BackpressurePolicy::kReject) {
          s.pipeline->obs().counters.add_rejected(x.rows() - r);
          break;
        }
        if (!counted_block) {
          ++s.telemetry.blocked;
          counted_block = true;
        }
        if (options_.dispatch == DispatchMode::kManual) {
          // No consumer exists to free rows: drain the stream on this
          // thread (manual mode is single-threaded operation by design).
          lock.unlock();
          poll(id);
          lock.lock();
          continue;
        }
        // Make sure a consumer is actually running before sleeping on it.
        maybe_schedule(s);
        s.space_waiters.fetch_add(1);
        s.space_cv.wait(lock, [&] {
          return s.tail.load() - s.head.load() < capacity;
        });
        s.space_waiters.fetch_sub(1);
        continue;
      }
      // One reservation covers every row that fits right now: map its
      // pages, copy the rows, then publish with a single tail store.
      const std::size_t take =
          static_cast<std::size_t>(std::min<std::uint64_t>(avail,
                                                           x.rows() - r));
      // pending_ rises before the rows are published so the consumer's
      // burst-sized decrement can never run ahead of it.
      pending_.fetch_add(take);
      map_pages(shard, s, tail, take);
      // Only rows whose absolute position matches the sample mask are
      // stamped — the drain side, which advances the same counter, reads
      // exactly those. The clock is read once per reservation, and only
      // when it holds a sampled row: every sampled row of it entered the
      // ring "now" for submit->drain latency purposes.
      const std::uint64_t mask =
          obs_on_ ? s.pipeline->obs().latency_sample_mask() : 0;
      const bool sampled = obs_on_ && ((tail + mask) & ~mask) < tail + take;
      const std::uint64_t t_sub = sampled ? obs::now_ns() : 0;
      // One copy per page: the block's rows are contiguous, and so are a
      // page's.
      for (std::size_t i = 0; i < take;) {
        const std::uint64_t row = tail + i;
        const std::size_t pos = static_cast<std::size_t>(row % kRingPageRows);
        const std::size_t seg = std::min(take - i, kRingPageRows - pos);
        RingPage& page = s.page_of(row);
        std::memcpy(page.rows.row(pos).data(), x.row(r + i).data(),
                    seg * x.cols() * sizeof(double));
        if (true_labels.empty()) {
          std::fill_n(page.labels.begin() + pos, seg, -1);
        } else {
          std::copy_n(true_labels.begin() + r + i, seg,
                      page.labels.begin() + pos);
        }
        if (sampled) {
          for (std::size_t j = 0; j < seg; ++j) {
            if (((row + j) & mask) == 0) page.submit_ns[pos + j] = t_sub;
          }
        }
        i += seg;
      }
      s.tail.store(tail + take);
      s.telemetry.submitted += take;
      s.pipeline->obs().counters.update_ring_high_water(tail + take -
                                                        s.head.load());
      accepted += take;
      r += take;
    }
  }
  if (accepted > 0) maybe_schedule(s);
  return accepted;
}

void PipelineManager::map_pages(Shard& shard, Stream& s, std::uint64_t tail,
                                std::size_t take) {
  // Only the page holding a mid-page tail can be mapped already; every
  // later page starts at a row this reservation writes.
  std::uint64_t page = tail / kRingPageRows;
  if (s.page_entry(page) != nullptr) ++page;
  const std::uint64_t end = (tail + take - 1) / kRingPageRows + 1;
  if (page == end) return;
  RingPage* chain =
      shard.ring_pages.take(static_cast<std::size_t>(end - page));
  for (; page < end; ++page, chain = chain->next_free) {
    s.page_entry(page) = chain;
  }
}

void PipelineManager::give_pages(Stream& s, std::uint64_t first,
                                 std::uint64_t end) {
  if (first == end) return;
  RingPage* chain = nullptr;
  RingPage* chain_last = nullptr;
  for (std::uint64_t page = first; page < end; ++page) {
    RingPage*& entry = s.page_entry(page);
    entry->next_free = chain;
    chain = entry;
    if (chain_last == nullptr) chain_last = entry;
    entry = nullptr;
  }
  shards_[s.shard]->ring_pages.give(chain, chain_last);
}

void PipelineManager::drain_burst(Stream& s) {
  std::uint64_t head = s.head.load();
  std::uint64_t tail = s.tail.load();
  while (head != tail) {
    const std::size_t queued = static_cast<std::size_t>(tail - head);
    const std::size_t pos = static_cast<std::size_t>(head % kRingPageRows);
    // The largest contiguous range: stop at the page boundary (the rest
    // is the next burst, from the next page's first row) and at the
    // stream's scoring chunk, max_batch_rows.
    const std::size_t burst =
        std::min({queued, kRingPageRows - pos,
                  s.pipeline->config().max_batch_rows});
    const RingPage& page = s.page_of(head);
    const std::uint64_t t0 = obs::now_ns();
    {
      std::lock_guard lock(s.steps_mutex);
      s.pipeline->process_rows(
          {page.rows, pos, pos + burst},
          std::span<const int>(page.labels).subspan(pos, burst), s.steps);
    }
    release_rows(s, head, burst, queued);
    pending_.fetch_sub(burst);
    s.telemetry.busy_ns += obs::now_ns() - t0;
    head += burst;
    tail = s.tail.load();
  }
  charge_private_copy(s);
}

void PipelineManager::release_rows(Stream& s, std::uint64_t head,
                                   std::size_t take, std::size_t queued) {
  // Record before the pages go back: another stream's producer may reuse
  // their stamps the moment they do. Only the sampled rows (absolute
  // position & mask == 0) carry stamps.
  obs::StreamObs& ob = s.pipeline->obs();
  const std::uint64_t end = head + take;
  if (obs_on_) {
    const std::uint64_t mask = ob.latency_sample_mask();
    const std::uint64_t first = (head + mask) & ~mask;
    if (first < end) {
      const std::uint64_t t_end = obs::now_ns();
      for (std::uint64_t a = first; a < end; a += mask + 1) {
        ob.submit_to_drain.record(
            t_end - s.page_of(a).submit_ns[a % kRingPageRows]);
      }
    }
  }
  ob.counters.update_ring_high_water(queued);
  // Every page whose last row the new head passes goes back to the pool,
  // its entry nulled before the head store: from that store on, a
  // producer may map the entry one lap later.
  give_pages(s, head / kRingPageRows, end / kRingPageRows);
  s.head.store(end);
  notify_space(s);
  ++s.telemetry.drain_bursts;
  ++s.telemetry.drain_burst_hist[burst_bucket(take)];
  s.telemetry.processed += take;
}

void PipelineManager::notify_space(Stream& s) {
  if (s.space_waiters.load() == 0) return;
  // Taking the produce mutex pins any producer either before its full-ring
  // check (it will see the new head) or inside the cv wait (it will get
  // this notify) — no missed wakeup.
  { std::lock_guard lock(s.produce_mutex); }
  s.space_cv.notify_all();
}

void PipelineManager::notify_done() {
  if (pending_.load() != 0 || active_.load() != 0) return;
  std::lock_guard lock(done_mutex_);
  done_cv_.notify_all();
}

void PipelineManager::poll(std::size_t id) {
  EDGEDRIFT_ASSERT(id < streams_.size(), "stream id out of range");
  Stream& s = *streams_[id];
  // An empty ring needs no consumer: skip the claim and the after_drain
  // bookkeeping. Otherwise take the consumer role through the same flag
  // the shard workers and drain() use, so poll() never violates the
  // one-consumer-per-stream invariant; a stream whose role another
  // consumer holds is left to it.
  if (s.tail.load() == s.head.load() || s.scheduled.exchange(true)) return;
  run_stream(s);
  notify_done();
}

void PipelineManager::drain() {
  if (options_.dispatch == DispatchMode::kManual) {
    // Each shard's ready stack holds the streams listed since the last
    // pass, the only ones that can hold rows, so the drain never scans the
    // registered streams. Manual mode is single-threaded by design, but
    // the consumer role is still claimed per stream through the scheduled
    // flag, so a concurrent poll() can never double-drain. The loop
    // condition re-checks for racing producers.
    while (pending_.load() != 0) {
      for (auto& shard : shards_) {
        auto& cand = shard->plan_candidates;
        cand.clear();
        for (Stream* s = shard->ready.take_all(); s != nullptr;) {
          // Read the link before clearing the flag: from then on a producer
          // may list the stream again, reusing ready_next. The ring read
          // after the clear sees every row published before it; an earlier
          // poll() may have emptied the ring, or evict() pushed the stream
          // cold while it was idle. A stream whose role a concurrent poll()
          // holds is left to it.
          Stream* next = s->ready_next.load(std::memory_order_relaxed);
          s->listed.store(false);
          if (s->tail.load() != s->head.load() &&
              !s->scheduled.exchange(true)) {
            cand.push_back(s);
          }
          s = next;
        }
        drain_cycle(*shard);
      }
    }
    return;
  }
  std::unique_lock lock(done_mutex_);
  done_cv_.wait(lock, [this] {
    return pending_.load() == 0 && active_.load() == 0;
  });
}

std::vector<PipelineStep> PipelineManager::take_steps(std::size_t id) {
  EDGEDRIFT_ASSERT(id < streams_.size(), "stream id out of range");
  Stream& s = *streams_[id];
  std::lock_guard lock(s.steps_mutex);
  std::vector<PipelineStep> steps = std::move(s.steps);
  s.steps.clear();
  return steps;
}

void PipelineManager::take_steps(std::size_t id,
                                 std::vector<PipelineStep>& out) {
  EDGEDRIFT_ASSERT(id < streams_.size(), "stream id out of range");
  Stream& s = *streams_[id];
  std::lock_guard lock(s.steps_mutex);
  out.insert(out.end(), s.steps.begin(), s.steps.end());
  s.steps.clear();
}

const StreamTelemetry& PipelineManager::telemetry(std::size_t id) const {
  EDGEDRIFT_ASSERT(id < streams_.size(), "stream id out of range");
  return streams_[id]->telemetry;
}

PipelineStats PipelineManager::stats(std::size_t id) const {
  EDGEDRIFT_ASSERT(id < streams_.size(), "stream id out of range");
  const Stream& s = *streams_[id];
  std::lock_guard lock(shards_[s.shard]->evict_mutex);
  PipelineStats stats;
  if (s.carried_obs != nullptr) stats = s.carried_obs->counters;
  if (s.residency == Stream::Residency::kHot) stats += s.pipeline->stats();
  return stats;
}

obs::Snapshot PipelineManager::stats() const {
  obs::Snapshot snap;
  snap.streams.reserve(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    Stream& s = *streams_[i];
    Shard& shard = *shards_[s.shard];
    // The shard's evict mutex freezes this stream's residency for the read:
    // the snapshot never observes a half-evicted stream. Uncontended unless
    // an eviction or restore is in flight on the same shard.
    std::lock_guard lock(shard.evict_mutex);
    obs::StreamSnapshot ss;
    if (s.carried_obs != nullptr) ss = *s.carried_obs;
    ss.stream_id = i;
    if (s.residency == Stream::Residency::kHot) {
      const obs::StreamObs& live = s.pipeline->obs();
      ss.merge(live.snapshot(i), live.journal.capacity());
    }
    snap.streams.push_back(std::move(ss));
  }
  snap.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->evict_mutex);
    obs::ShardSnapshot sh = shard->obs.snapshot(shard->index);
    sh.pinned = shard->pinned.load();
    sh.hot_streams = shard->hot_streams;
    sh.cold_streams = shard->cold_streams;
    sh.hot_bytes = shard->hot_bytes + shard->ring_pages.bytes();
    sh.cold_bytes = shard->cold.bytes();
    snap.shards.push_back(std::move(sh));
  }
  return snap;
}

}  // namespace edgedrift::core
