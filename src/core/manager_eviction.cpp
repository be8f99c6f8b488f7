// The LRU admission/eviction layer: serializing idle streams into the
// per-shard cold store, restoring them on the next submit, and the
// mass-registration path that seeds large stream populations cold.
//
// Locking (see serving_shard.hpp): every residency transition holds the
// stream's produce_mutex AND the shard's evict_mutex. The restore path
// (producer) acquires produce -> evict; the eviction side acquires evict
// first and only ever try_locks a victim's produce_mutex, so the two orders
// cannot deadlock — a busy victim is simply skipped until its next idle
// moment.
#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/io/checkpoint.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::core {

std::size_t PipelineManager::hot_footprint(const Stream& s) const {
  if (s.pipeline == nullptr) return 0;
  // The manager holds a template's model; a stream on it is charged only
  // its own state (detector, recovery bookkeeping, reference buffers).
  const bool shares =
      s.model_template != nullptr &&
      &s.pipeline->model() == &s.model_template->pipeline.model();
  return shares ? s.pipeline->detector_memory_bytes()
                : s.pipeline->memory_bytes();
}

bool PipelineManager::evictable_locked(const Stream& s) const {
  // Idle: no published-but-undrained rows, no drain cycle holding the
  // consumer role (the worker only touches the pipeline inside a cycle),
  // and no producer parked in the space_cv wait — a waiter released the
  // produce_mutex (so the try_lock may succeed) but will write into the
  // ring the moment rows free up. Serializable: fitted, centroid-family
  // detector (the checkpoint format's requirement), and not mid-recovery
  // (recovery state is not persisted).
  return s.residency == Stream::Residency::kHot &&
         !s.scheduled.load() && s.head.load() == s.tail.load() &&
         s.space_waiters.load() == 0 &&
         s.pipeline != nullptr && s.pipeline->fitted() &&
         !s.pipeline->recovering() &&
         s.pipeline->centroid_detector() != nullptr;
}

bool PipelineManager::evict_locked(Shard& shard, Stream& s) {
  const std::uint64_t t0 = obs_on_ ? obs::now_ns() : 0;
  // A stream on its template's model saves a template delta: its detector
  // state and window around the template's handle, not the model.
  auto blob = std::make_shared<std::string>();
  if (!io::save_pipeline(*blob, *s.pipeline, s.model_template)) return false;
  shard.cold.put(static_cast<std::uint64_t>(s.id), std::move(blob));

  // Carry the pipeline's obs books across the residency gap — the live
  // block dies with the pipeline, stats(id)/stats() report carried + live.
  const obs::StreamObs& live_obs = s.pipeline->obs();
  obs::StreamSnapshot live = live_obs.snapshot(s.id);
  if (s.carried_obs == nullptr) {
    s.carried_obs = std::make_unique<obs::StreamSnapshot>(std::move(live));
  } else {
    s.carried_obs->merge(live, live_obs.journal.capacity());
  }

  // Release the hot state: the model, and the ring's one page, the head's
  // partial page, which goes back to the shard's pool (the ring is empty,
  // so no other page is mapped). Telemetry, steps and the monotonic ring
  // counters stay; the next write after the restore maps a fresh page.
  shard.lru.erase(&s);
  EDGEDRIFT_ASSERT(shard.hot_streams > 0, "hot-stream accounting underflow");
  --shard.hot_streams;
  ++shard.cold_streams;
  shard.hot_bytes -= s.hot_footprint_bytes;
  s.hot_footprint_bytes = 0;
  s.pipeline.reset();
  const std::uint64_t head_page = s.head.load() / detail::kRingPageRows;
  if (s.page_entry(head_page) != nullptr) {
    give_pages(s, head_page, head_page + 1);
  }
  s.residency = Stream::Residency::kCold;

  shard.obs.add_eviction();
  if (obs_on_) shard.obs.evict_ns().record(obs::now_ns() - t0);
  return true;
}

void PipelineManager::enforce_budget_locked(Shard& shard,
                                            const Stream* skip) {
  const std::size_t budget = options_.hot_stream_budget;
  while (shard.hot_streams > budget) {
    // Walk from the LRU end toward MRU for the first evictable victim; a
    // stream whose producer is mid-submit (try_lock fails) or which is
    // busy/unserializable is skipped. `skip` marks the stream whose
    // producer is running this enforcement (a restore): its produce_mutex
    // is already held by this thread, so try_locking it would be UB — and
    // evicting the stream being restored would be pointless anyway.
    Stream* victim = shard.lru.lru();
    bool evicted = false;
    while (victim != nullptr) {
      Stream* next_older = victim->lru_prev;
      if (victim != skip) {
        std::unique_lock plock(victim->produce_mutex, std::try_to_lock);
        if (plock.owns_lock() && evictable_locked(*victim) &&
            evict_locked(shard, *victim)) {
          evicted = true;
          break;
        }
      }
      victim = next_older;
    }
    if (!evicted) {
      // Over budget but nothing can go right now (everything hot is busy
      // or unserializable). Count it and retry after the next drain.
      shard.obs.add_evict_skipped();
      break;
    }
  }
}

void PipelineManager::charge_private_copy(Stream& s) {
  // A model address other than the template's means the pipeline wrote a
  // private copy (a recovery): charge it from now on. The stream never
  // returns to the template's model, so its evictions save full blobs. The
  // caller is the stream's consumer, the only thread that writes its model;
  // after_drain runs once the consumer role is released, when a poll() on
  // another thread may be copying it.
  if (s.model_template == nullptr ||
      &s.pipeline->model() == &s.model_template->pipeline.model()) {
    return;
  }
  Shard& shard = *shards_[s.shard];
  std::lock_guard lock(shard.evict_mutex);
  s.model_template = nullptr;
  shard.hot_bytes -= s.hot_footprint_bytes;
  s.hot_footprint_bytes = hot_footprint(s);
  shard.hot_bytes += s.hot_footprint_bytes;
}

void PipelineManager::after_drain(Stream& s) {
  Shard& shard = *shards_[s.shard];
  std::lock_guard lock(shard.evict_mutex);
  if (s.residency == Stream::Residency::kHot && s.in_lru) {
    shard.lru.touch(&s);
  }
  if (options_.hot_stream_budget > 0) enforce_budget_locked(shard);
}

bool PipelineManager::evict(std::size_t id) {
  if (id >= streams_.size()) return false;
  Stream& s = *streams_[id];
  Shard& shard = *shards_[s.shard];
  std::lock_guard elock(shard.evict_mutex);
  std::unique_lock plock(s.produce_mutex, std::try_to_lock);
  if (!plock.owns_lock()) return false;
  if (!evictable_locked(s)) return false;
  return evict_locked(shard, s);
}

bool PipelineManager::resident(std::size_t id) const {
  EDGEDRIFT_ASSERT(id < streams_.size(), "stream id out of range");
  Stream& s = *streams_[id];
  Shard& shard = *shards_[s.shard];
  std::lock_guard lock(shard.evict_mutex);
  return s.residency == Stream::Residency::kHot;
}

bool PipelineManager::restore_cold(Shard& shard, Stream& s) {
  // Caller holds s.produce_mutex, so no other producer can race this
  // restore and the eviction side's try_lock keeps its hands off s.
  const std::uint64_t t0 = obs_on_ ? obs::now_ns() : 0;
  const std::shared_ptr<const std::string> blob =
      shard.cold.peek(static_cast<std::uint64_t>(s.id));
  if (blob == nullptr) {
    shard.obs.add_restore_failure();
    return false;
  }
  std::optional<Pipeline> pipeline =
      io::load_pipeline(*blob, template_config_.numerics, nullptr,
                        &template_config_, s.model_template);
  if (!pipeline) {
    // The blob stays in the store: the stream remains cold-but-addressed,
    // and the caller surfaces kRestoreFailed (with the blob intact an
    // operator can still extract or repair it).
    shard.obs.add_restore_failure();
    return false;
  }
  s.pipeline = std::make_unique<Pipeline>(std::move(*pipeline));
  // The ring needs no storage of its own: the next write maps a page from
  // the shard's pool. A seeded stream sizes its page table on its first
  // restore and keeps it.
  if (s.pages.empty()) {
    s.pages.assign(detail::ring_page_slots(options_.queue_capacity), nullptr);
  }
  {
    std::lock_guard elock(shard.evict_mutex);
    s.residency = Stream::Residency::kHot;
    s.hot_footprint_bytes = hot_footprint(s);
    ++shard.hot_streams;
    EDGEDRIFT_ASSERT(shard.cold_streams > 0,
                     "cold-stream accounting underflow");
    --shard.cold_streams;
    shard.hot_bytes += s.hot_footprint_bytes;
    shard.lru.push_mru(&s);
    shard.cold.erase(static_cast<std::uint64_t>(s.id));
    shard.obs.add_restore();
    if (obs_on_) shard.obs.restore_ns().record(obs::now_ns() - t0);
    // Admitting this stream may push the shard over budget: make room by
    // evicting someone colder before the submit proceeds.
    if (options_.hot_stream_budget > 0) enforce_budget_locked(shard, &s);
  }
  return true;
}

std::size_t PipelineManager::seed_cold_from(std::size_t source_id,
                                            std::size_t count) {
  EDGEDRIFT_ASSERT(source_id < streams_.size(), "source stream out of range");
  Stream& src = *streams_[source_id];
  EDGEDRIFT_ASSERT(src.residency == Stream::Residency::kHot &&
                       src.pipeline != nullptr && src.pipeline->fitted(),
                   "seed_cold_from needs a fitted, resident source stream");
  // One model: the source's checkpoint is loaded once, with every check,
  // and the manager keeps it as the template a seeded stream's restore
  // shares instead of building, parsing and requantizing its own.
  std::string source;
  const bool ok = io::save_pipeline(source, *src.pipeline);
  EDGEDRIFT_ASSERT(ok, "seed_cold_from: source stream is not serializable "
                       "(centroid detector required, not recovering)");
  std::optional<io::ModelTemplate> loaded = io::load_template(
      source, template_config_.numerics, nullptr, &template_config_);
  EDGEDRIFT_ASSERT(loaded.has_value(),
                   "seed_cold_from: the template blob does not load");
  templates_.push_back(
      std::make_unique<io::ModelTemplate>(std::move(*loaded)));
  const io::ModelTemplate* model_template = templates_.back().get();
  // And one template delta, shared by every seeded id: the whole
  // population costs one delta string, however large `count` is.
  auto blob = std::make_shared<std::string>();
  io::save_pipeline(*blob, model_template->pipeline, model_template);
  const std::size_t first = streams_.size();
  streams_.reserve(first + count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t id = first + i;
    auto s = std::make_unique<Stream>();
    s->id = id;
    s->shard = shard_of(id);
    s->residency = Stream::Residency::kCold;
    s->model_template = model_template;
    Shard& shard = *shards_[s->shard];
    shard.cold.put_memory(static_cast<std::uint64_t>(id), blob);
    {
      std::lock_guard lock(shard.evict_mutex);
      ++shard.cold_streams;
    }
    streams_.push_back(std::move(s));
  }
  return first;
}

std::size_t PipelineManager::hot_streams() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->evict_mutex);
    total += shard->hot_streams;
  }
  return total;
}

std::size_t PipelineManager::cold_streams() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->evict_mutex);
    total += shard->cold_streams;
  }
  return total;
}

}  // namespace edgedrift::core
