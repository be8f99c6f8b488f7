// core::detail — the per-stream and per-shard state behind PipelineManager.
//
// The sharded serving layer (see core/pipeline_manager.hpp) is built from
// the pieces defined here:
//
//   ManagedStream — one stream's full serving state: the SPSC ring (a page
//     table over monotonic head/tail counters), the Pipeline while the
//     stream is hot, the intrusive hooks linking it into its shard's ready
//     stack and LRU list, and the obs books carried across evict/restore
//     cycles.
//   ReadyStack — a Treiber stack of streams with published-but-undrained
//     rows, serving both dispatch modes. Producers push after winning a
//     stream's flag: `scheduled` in kShard dispatch, where the shard's
//     single worker takes the whole stack at once, and `listed` in kManual
//     dispatch, where drain() takes it, so a drain visits only the streams
//     that published rows since the last one. Either flag guarantees a
//     stream is pushed at most once until the stack is taken, so the
//     classic ABA hazard (pop racing a reinsertion) cannot arise — nobody
//     pops single nodes. The taken chain runs newest push first; its
//     consumer walks it once into the shard's plan_candidates, and the
//     drain cycle runs them in push order.
//   RingPagePool — one shard's grow-only free list of ring pages: 64-row
//     blocks of rows, labels and submit stamps that its streams' rings map
//     while they hold queued rows.
//   ShardState — everything one shard owns: the ready stack, the worker
//     thread and its park/wake latch, the LRU list + hot/cold gauges under
//     the shard's evict mutex, the ring page pool, the cold store, and the
//     shard obs block.
//
// StreamTelemetry also lives here (re-exported through pipeline_manager.hpp,
// which is the intended include) because ManagedStream embeds it.
//
// Lock order (deadlock discipline): a producer holds its own stream's
// produce_mutex, then may take the shard's evict_mutex (restore/admission),
// then try_lock another stream's produce_mutex (budget enforcement). The
// eviction side always acquires victims with try_lock, so the produce ->
// evict edge never forms a cycle with evict -> produce. The page pool's
// mutex is a leaf: producers, the consumer and evictions take it with or
// without the others held, and nothing is locked while it is held.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "edgedrift/core/cold_store.hpp"
#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/obs/shard_obs.hpp"
#include "edgedrift/obs/snapshot.hpp"

namespace edgedrift::io {
struct ModelTemplate;
}  // namespace edgedrift::io

namespace edgedrift::core {

/// Per-stream serving-layer counters: what the ring and its drains did.
/// The stream's pipeline and ring events (samples, drifts, kReject drops,
/// ring high-water, ...) are counted in its obs::Counters book, read
/// through PipelineManager::stats(id). Plain fields, written by the
/// consumer (and, for submitted/blocked, by producers under the stream's
/// produce mutex); read them only after drain() — the drain-first
/// contract.
struct StreamTelemetry {
  std::size_t submitted = 0;   ///< Samples accepted into the ring.
  std::size_t blocked = 0;     ///< submit() calls that had to wait (kBlock).
  /// Rows the ring released after the pipeline processed them (equal to
  /// the book's samples for a managed stream).
  std::size_t processed = 0;
  std::size_t drain_bursts = 0;         ///< Contiguous drain segments run.
  /// Wall time spent draining: per burst, or a coalesced group's time
  /// split by row share. Timed with obs::now_ns() in every build.
  std::uint64_t busy_ns = 0;
  /// drain_burst_hist[b] counts bursts of size in [2^(b-1)+1, 2^b]
  /// (bucket 0 = single-sample bursts): the drain-batch-size histogram.
  std::array<std::size_t, 17> drain_burst_hist{};

  /// Processed samples per second of busy drain time.
  double samples_per_second() const {
    return busy_ns == 0
               ? 0.0
               : static_cast<double>(processed) * 1e9 /
                     static_cast<double>(busy_ns);
  }
};

namespace detail {

/// Histogram bucket for a drain burst of `n` rows: bucket 0 holds
/// single-sample bursts, bucket b holds sizes (2^(b-1), 2^b].
inline std::size_t burst_bucket(std::size_t n) {
  const std::size_t b = n <= 1 ? 0 : std::bit_width(n - 1);
  return std::min<std::size_t>(b, 16);
}

/// Rows per ring page. A power of two, so a row's page and its offset in
/// the page are a shift and a mask.
inline constexpr std::size_t kRingPageRows = 64;
static_assert(std::has_single_bit(kRingPageRows));

/// Entries of a stream's page table at `queue_capacity` (> 0): one per
/// page a full ring can span with its head mid-page, ceil(capacity / 64)
/// + 1, so the pages of every queued row map to distinct entries.
inline std::size_t ring_page_slots(std::size_t queue_capacity) {
  return (queue_capacity - 1) / kRingPageRows + 2;
}

/// kRingPageRows consecutive ring rows of one stream: the rows, their
/// labels and their submit stamps. A page belongs to its shard's pool and is
/// mapped into one stream's page table at a time.
struct RingPage {
  explicit RingPage(std::size_t cols) : rows(kRingPageRows, cols) {}

  linalg::Matrix rows;  ///< [kRingPageRows x input_dim]
  std::array<int, kRingPageRows> labels{};
  /// Enqueue timestamps feeding the submit->drain histogram; only rows
  /// whose absolute position matches the sample mask are stamped.
  std::array<std::uint64_t, kRingPageRows> submit_ns{};
  RingPage* next_free = nullptr;  ///< Free-list and hand-back link.
};

/// One shard's ring pages. Grow-only: a page, once allocated, lives until
/// the manager does, on the free list or in a stream's page table, so the
/// steady state maps and frees pages without touching the heap. Producers
/// take pages inside their ring reservation, the consumer gives back each
/// page its head passes, and an eviction gives back the stream's partial
/// page. The mutex is a leaf lock.
class RingPagePool {
 public:
  explicit RingPagePool(std::size_t cols) : cols_(cols) {}

  /// Takes `n` > 0 pages, free ones first, and returns them as a chain
  /// through next_free.
  RingPage* take(std::size_t n) {
    std::lock_guard lock(mutex_);
    RingPage* chain = nullptr;
    for (std::size_t i = 0; i < n; ++i) {
      RingPage* page = free_;
      if (page != nullptr) {
        free_ = page->next_free;
      } else {
        owned_.push_back(std::make_unique<RingPage>(cols_));
        page = owned_.back().get();
      }
      page->next_free = chain;
      chain = page;
    }
    return chain;
  }

  /// Puts back the chain first..last, linked through next_free.
  void give(RingPage* first, RingPage* last) {
    std::lock_guard lock(mutex_);
    last->next_free = free_;
    free_ = first;
  }

  /// Bytes of every page this pool has allocated, free or mapped: their
  /// rows, labels and stamps (the shard's hot_bytes charge).
  std::size_t bytes() const {
    std::lock_guard lock(mutex_);
    return owned_.size() * kRingPageRows *
           (cols_ * sizeof(double) + sizeof(int) + sizeof(std::uint64_t));
  }

 private:
  mutable std::mutex mutex_;
  RingPage* free_ = nullptr;
  std::vector<std::unique_ptr<RingPage>> owned_;
  std::size_t cols_;
};

/// Per-stream serving state. Producers serialize on produce_mutex and
/// publish rows via tail; the shard's single worker owns head, the
/// pipeline, steps and telemetry. Consumer handoff between drain cycles
/// goes through the seq_cst scheduled flag, which orders each burst's
/// plain-field writes before the next burst reads them.
///
/// Residency: a kHot stream owns its pipeline and the ring pages its queued
/// rows (and its head's partial page) occupy; a kCold stream has released
/// them — its state is a checkpoint blob in the shard's ColdStore — and
/// keeps only the cheap fields (telemetry, steps, carried obs books, the
/// all-null page table). Residency writes hold BOTH the stream's
/// produce_mutex and the shard's evict_mutex, so holding either is enough
/// to read it.
struct ManagedStream {
  enum class Residency : std::uint8_t { kHot, kCold };

  std::size_t id = 0;     ///< Manager-wide stream id.
  std::size_t shard = 0;  ///< Owning shard (stable: shard_of_stream(id)).

  // ---- hot-only state (released on eviction, rebuilt on restore) ----
  std::unique_ptr<Pipeline> pipeline;

  // ---- the SPSC ring ----
  /// The ring's page table: entry (row / kRingPageRows) % pages.size()
  /// holds the page of absolute row `row` from the write of the page's
  /// first queued row until the head passes its last row, and is null
  /// otherwise (ring_page_slots(queue_capacity) entries). Producers map
  /// pages under produce_mutex before the tail store that publishes their
  /// rows; the consumer nulls an entry before the head store that frees
  /// its page, after which a producer may map the entry one lap later.
  /// Sized when the stream first turns hot and kept while it is cold.
  std::vector<RingPage*> pages;

  /// The page table entry of absolute page number `page`.
  RingPage*& page_entry(std::uint64_t page) {
    return pages[static_cast<std::size_t>(page % pages.size())];
  }
  /// The mapped page holding absolute ring row `row`.
  RingPage& page_of(std::uint64_t row) {
    return *page_entry(row / kRingPageRows);
  }

  /// Monotonic sample counters; a row's page and offset follow from its
  /// counter value. tail is published by producers after the row copy,
  /// head by the consumer after the row is processed (freeing its page
  /// once the head passes the page's last row). They keep counting across
  /// evict/restore cycles (eviction requires an empty ring, so
  /// head == tail whenever the stream is cold).
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};

  std::atomic<bool> scheduled{false};  ///< A drain cycle is queued/running.
  /// kManual dispatch only: the stream sits on its shard's ready stack
  /// waiting for drain(). Separate from `scheduled`, which stays the
  /// consumer role that poll() and drain() claim. drain() reads ready_next,
  /// then clears this flag, then reads the ring, so rows published after
  /// the clear list the stream again.
  std::atomic<bool> listed{false};

  std::mutex produce_mutex;  ///< Serializes producers; kBlock cv anchor.
  std::condition_variable space_cv;
  std::atomic<std::size_t> space_waiters{0};

  std::mutex steps_mutex;
  std::vector<PipelineStep> steps;

  StreamTelemetry telemetry;

  // ---- residency / eviction bookkeeping (guarded by shard evict_mutex
  //      unless noted) ----
  Residency residency = Residency::kHot;  ///< See class comment for locking.
  /// Bytes this stream adds to the shard's hot_bytes while hot: its
  /// pipeline, without the model while it shares its template's. Its ring
  /// pages are charged as the shard's pool.
  std::size_t hot_footprint_bytes = 0;
  /// The template this stream was seeded from (seed_cold_from), or null.
  /// Evictions pass it to io::save_pipeline, which writes a template delta
  /// while the stream runs on the template's model, and restores pass it
  /// to io::load_pipeline, which loads the delta onto that model. Cleared,
  /// and the model charged to hot_bytes, once the stream has written a
  /// private copy (it never returns to the template's model). Written by
  /// the consumer under evict_mutex, read by the consumer, evictions and
  /// restores.
  const io::ModelTemplate* model_template = nullptr;

  /// Treiber-stack link; owned by the ready stack between push and take.
  std::atomic<ManagedStream*> ready_next{nullptr};
  /// LRU hooks (MRU at the list head). in_lru makes erase idempotent.
  ManagedStream* lru_prev = nullptr;
  ManagedStream* lru_next = nullptr;
  bool in_lru = false;

  /// The obs books (counters, histograms, journal) accumulated over every
  /// previous hot period, merged in at eviction time (the live pipeline's
  /// books are destroyed with it). Null until the first eviction, so the
  /// 100k cold-seeded streams pay nothing for it.
  std::unique_ptr<obs::StreamSnapshot> carried_obs;
};

/// Lock-free multi-producer stack of streams awaiting a drain cycle.
/// push() is called by producers, at most once per stream until the stack
/// is taken: the scheduled flag gates it in kShard dispatch, the listed
/// flag in kManual. take_all() is called by the shard's single consumer:
/// its worker (kShard) or the thread running drain() (kManual), which
/// walks the chain once.
class ReadyStack {
 public:
  void push(ManagedStream* s) {
    ManagedStream* head = head_.load();
    do {
      s->ready_next.store(head, std::memory_order_relaxed);
    } while (!head_.compare_exchange_weak(head, s));
  }

  /// Detaches the whole stack and returns it as a chain via ready_next,
  /// newest push first, or nullptr when empty.
  ManagedStream* take_all() { return head_.exchange(nullptr); }

  bool empty() const { return head_.load() == nullptr; }

 private:
  std::atomic<ManagedStream*> head_{nullptr};
};

/// Intrusive LRU list over ManagedStream (head = MRU, tail = LRU).
/// Externally guarded by the owning shard's evict_mutex.
class LruList {
 public:
  void push_mru(ManagedStream* s) {
    s->lru_prev = nullptr;
    s->lru_next = head_;
    if (head_ != nullptr) head_->lru_prev = s;
    head_ = s;
    if (tail_ == nullptr) tail_ = s;
    s->in_lru = true;
    ++size_;
  }

  void erase(ManagedStream* s) {
    if (!s->in_lru) return;
    if (s->lru_prev != nullptr) s->lru_prev->lru_next = s->lru_next;
    if (s->lru_next != nullptr) s->lru_next->lru_prev = s->lru_prev;
    if (head_ == s) head_ = s->lru_next;
    if (tail_ == s) tail_ = s->lru_prev;
    s->lru_prev = s->lru_next = nullptr;
    s->in_lru = false;
    --size_;
  }

  void touch(ManagedStream* s) {
    erase(s);
    push_mru(s);
  }

  ManagedStream* lru() const { return tail_; }
  std::size_t size() const { return size_; }

 private:
  ManagedStream* head_ = nullptr;
  ManagedStream* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// Everything one serving shard owns. No field here is ever touched by
/// another shard's worker; producers touch only the ready stack, the
/// park/wake latch, the page pool (under its own lock), and (under
/// evict_mutex) the LRU + cold store.
struct ShardState {
  explicit ShardState(std::size_t input_dim) : ring_pages(input_dim) {}

  std::size_t index = 0;

  ReadyStack ready;

  // Worker park/wake latch. The worker sets parked before rechecking the
  // ready stack; producers push, then check parked — under the seq_cst
  // total order one of the two always observes the other, so no wakeup is
  // lost (see manager_shard.cpp).
  std::thread worker;
  std::mutex wake_mutex;
  std::condition_variable wake_cv;
  std::atomic<bool> parked{false};
  std::atomic<bool> stopping{false};
  std::atomic<bool> pinned{false};  ///< Worker successfully core-pinned.

  // Eviction state: LRU order, hot/cold gauges, and every stream's
  // residency transition for this shard happen under evict_mutex.
  std::mutex evict_mutex;
  LruList lru;
  std::size_t hot_streams = 0;
  std::size_t cold_streams = 0;
  std::size_t hot_bytes = 0;  ///< Sum of hot streams' footprints.

  RingPagePool ring_pages;  ///< Its streams' ring pages (leaf lock).

  ColdStore cold;
  obs::ShardObs obs;

  // ---- coalesced-drain staging (core/manager_coalesce.cpp) ----
  // Touched only by the thread currently acting as this shard's consumer:
  // the shard worker in kShard dispatch, or the single caller running
  // drain() in kManual dispatch. Grow-only scratch, so the steady state is
  // allocation-free once the high-water group size has been seen.
  struct GroupMember {
    ManagedStream* stream = nullptr;
    std::uint64_t head = 0;    ///< Ring head at planning time.
    std::size_t take = 0;      ///< Rows packed from this stream.
    std::size_t offset = 0;    ///< First staging row of this stream's block.
    std::size_t queued = 0;    ///< Ring depth at planning time (high-water).
  };
  /// This cycle's streams, each with its consumer role held: the chain
  /// taken off the ready stack (in kManual, those of them with rows whose
  /// role drain() won), newest push first until drain_cycle reverses it.
  std::vector<ManagedStream*> plan_candidates;
  /// Eligible candidates keyed by projection fingerprint — one pipeline
  /// pointer chase per stream per planning pass; the group sort and the
  /// run scan compare flat keys.
  std::vector<std::pair<std::uint64_t, ManagedStream*>> plan_keys;
  std::vector<GroupMember> plan;                ///< The current group.
  linalg::Matrix stage_x;       ///< [group rows x dim] gathered inputs.
  linalg::Matrix stage_hidden;  ///< Shared projection of stage_x.
  std::vector<int> stage_labels;
  /// Prepacked GEMM panels of the group projection's alpha, keyed by the
  /// raw projection fingerprint (tier-independent — the pack depends only
  /// on alpha's bytes). The high-density steady state drains one seeded
  /// template group per shard, so the pack survives across mega-batches and
  /// each GEMM skips its per-call B-pack.
  linalg::PackedGemmB packed_alpha;
  std::uint64_t packed_alpha_fp = 0;
  bool packed_alpha_valid = false;
};

}  // namespace detail
}  // namespace edgedrift::core
