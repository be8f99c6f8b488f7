// core::PipelineManager — the sharded multi-stream serving layer: one
// detect-and-retrain Pipeline per sensor stream, partitioned across N
// independent shards, with an LRU eviction layer that keeps only a bounded
// hot set of streams resident.
//
// An edge gateway rarely watches a single signal; it aggregates N sensors,
// each with its own concept. The manager owns one stream slot per sensor
// and exposes a submit(stream_id, sample) entry point: samples of one
// stream are processed strictly in submission order (a stream is never
// touched by two workers at once), while distinct streams run concurrently.
//
// Sharding: streams are assigned to shards by a stable hash of the id
// (core/shard_router.hpp), fixed for the manager's lifetime. Each shard
// owns a dedicated drain worker (optionally core-pinned), its own ready
// queue, its own LRU list and cold store — in the steady state no two
// shards ever touch the same mutex, queue, or ring page, so drain
// throughput scales with shards up to the core count. submit() routes to
// the owning shard lock-free (hash + per-stream producer mutex only).
//
// Ingestion is a bounded SPSC ring per stream: samples are copied into
// 64-row pages that the stream maps from its shard's grow-only page pool
// while they hold queued rows (zero per-sample heap allocation on the
// steady path), and published by a monotonic atomic tail counter; the
// shard worker advances an atomic head and hands each page back once the
// head passes it. A stream's ring memory follows its queued rows: at most
// ceil(queued / 64) + 1 pages, one while idle. Producers of one stream are
// serialized by a per-stream mutex (so submit() stays safe from any
// thread), but no global lock is taken per sample. A ring holding
// queue_capacity rows either blocks the producer until the worker frees
// rows or rejects the sample, per BackpressurePolicy.
//
// Eviction: with hot_stream_budget > 0, each shard keeps at most that many
// streams resident. After a drain cycle the worker pushes the least-
// recently-active idle streams out: the Pipeline is serialized through the
// io checkpoint layer (format v4, tier and Algorithm 1's window recorded)
// into the shard's ColdStore (in-memory, or spilled to cold_spill_dir),
// and the ring's partial page goes back to the pool. The next submit() to a
// cold stream restores it transparently before enqueueing. The round trip
// is bit-identical at kExactF64 and drift-decision-equivalent at
// kFastF32/kQuantI8 — the same contract the checkpoint layer already
// guarantees (tests/test_eviction.cpp).
// seed_cold_from() registers large stream populations (100k+) directly in
// the cold store from one fitted template, so registered-stream count is
// bounded by cold-store bytes, not by resident models. The manager also
// loads that template once and holds its model for its whole lifetime; a
// seeded stream is stored as a template delta (its detector state and
// window around the template's handle, io/checkpoint.hpp), and its
// restores score against that one model until the stream first writes it
// (a recovery), when it copies it (copy on write, see core/pipeline.hpp)
// and its evictions save full blobs from then on. Template models are held by the manager and are not
// part of any shard's hot_bytes: a stream on its template's model is
// charged only its own bytes (detector, recovery bookkeeping), and its
// private copy is charged once it makes one; a shard's hot_bytes adds
// every ring page its pool holds.
//
// Both dispatch modes drain through one cycle (manager_shard.cpp) over the
// streams taken off a shard's ready stack: with coalescing on, each
// projection group first shares a mega-batch projection GEMM
// (manager_coalesce.cpp), then every stream drains what is left in
// contiguous bursts straight out of its pages, one Pipeline::process_rows()
// call per burst of up to max_batch_rows rows within one page —
// bit-identical to process() row by row. poll() runs the same per-stream
// drain for one stream.
//
// Counting: each stream's pipeline and ring events are counted once, in
// its obs::Counters book (always on); stats(id) reads it, summed across
// evict/restore cycles, and stats() snapshots every book. telemetry(id)
// holds only what the serving layer itself did (submits, blocked waits,
// released rows, drain bursts, busy time).
//
// Thread-safety contract: submit()/submit_batch() may be called from any
// thread. fit(), stream(), steps() and telemetry() must not race with
// in-flight samples for the same stream — drain() first. stats(id),
// stats() (the obs snapshot) and evict() are safe at any time.
// seed_cold_from() is a setup-phase API: it must not race submits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/core/serving_shard.hpp"
#include "edgedrift/core/shard_router.hpp"
#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/obs/snapshot.hpp"

namespace edgedrift::core {

/// What submit() does when a stream's ring is full.
enum class BackpressurePolicy {
  kBlock,   ///< Wait until the consumer frees rows.
  kReject,  ///< Drop the sample and count it in telemetry.
};

/// Who runs the consumer.
enum class DispatchMode {
  kShard,   ///< Dedicated per-shard drain workers (optionally core-pinned).
  /// submit() only enqueues, listing the stream on its shard's ready
  /// stack; the caller drains via poll() or drain(), and drain() visits
  /// only the listed streams.
  kManual,
};

/// Why a submit was (partially) refused. kOk also covers kReject
/// backpressure drops — those are policy, not errors, and are reported via
/// the return value and telemetry.
enum class SubmitStatus {
  kOk,
  kUnknownStream,      ///< Stream id was never registered.
  kDimensionMismatch,  ///< Sample width != the manager's input_dim.
  kBadLabelSpan,       ///< true_labels neither empty nor one per row.
  kRestoreFailed,      ///< Stream is cold and could not be restored.
  kNonFinite,          ///< The block holds a NaN or an infinity.
};

/// Serving-layer knobs, fixed at construction. Everything about a stream's
/// own processing (numerics tier, recovery, batch size, obs) comes
/// from the PipelineConfig the manager is built from.
struct ManagerOptions {
  /// The backlog bound: the most rows a stream may hold queued, at which
  /// submit() blocks or rejects per `backpressure`. Not storage — a ring
  /// maps 64-row pages only for the rows it holds.
  std::size_t queue_capacity = 1024;
  /// Cross-stream coalescing (see manager_coalesce.cpp). When a drain cycle
  /// covers several ready streams that share a projection group — equal
  /// alpha/bias fingerprint, dims, activation and numerics tier, which is
  /// every stream seeded from one template via seed_cold_from() — the
  /// planner gathers their pending ring bursts into one staging slab, runs
  /// a single shared projection GEMM over the mega-batch, and scatters the
  /// hidden rows back into each stream's own scoring/detection. Results are
  /// bit-identical to per-stream draining (false) at every tier: the
  /// projection is row-independent and a row scores the same in any block.
  bool coalesce = true;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  DispatchMode dispatch = DispatchMode::kShard;
  /// Independent serving shards (kShard dispatch spawns one worker each).
  std::size_t shards = 1;
  /// Hot streams each shard keeps resident; 0 = unlimited (eviction off).
  std::size_t hot_stream_budget = 0;
  /// Pin each shard worker to one allowed CPU core (Linux; best-effort —
  /// ShardSnapshot::pinned reports the outcome).
  bool pin_cores = false;
  /// When non-empty, evicted streams spill to files in this directory
  /// instead of staying in memory (must exist and be writable).
  std::string cold_spill_dir;
};

/// Owns N per-stream pipelines partitioned across per-core serving shards.
class PipelineManager {
 public:
  /// Builds `num_streams` resident pipelines from `config`; stream i uses
  /// seed config.seed + i so the streams' random projections are
  /// independent. Larger populations are added cold via seed_cold_from().
  PipelineManager(const PipelineConfig& config, std::size_t num_streams);
  PipelineManager(const PipelineConfig& config, std::size_t num_streams,
                  const ManagerOptions& options);

  /// Drains all in-flight samples, then stops the shard workers.
  ~PipelineManager();

  PipelineManager(const PipelineManager&) = delete;
  PipelineManager& operator=(const PipelineManager&) = delete;

  std::size_t num_streams() const { return streams_.size(); }
  const ManagerOptions& options() const { return options_; }
  std::size_t num_shards() const { return shards_.size(); }
  /// The shard owning stream `id` (stable hash, core/shard_router.hpp).
  std::size_t shard_of(std::size_t id) const {
    return shard_of_stream(static_cast<std::uint64_t>(id), shards_.size());
  }

  /// The per-stream pipeline. Not safe while samples for this stream are
  /// in flight, and the stream must be resident — drain() first, check
  /// resident(id) under eviction.
  Pipeline& stream(std::size_t id);
  const Pipeline& stream(std::size_t id) const;

  /// Convenience: initial training of one stream's pipeline.
  void fit(std::size_t id, const linalg::Matrix& x,
           std::span<const int> labels);

  /// Enqueues one sample: submit_batch() of the 1-row block x with its
  /// label. Returns true when the sample was accepted.
  bool submit(std::size_t id, std::span<const double> x, int true_label = -1,
              SubmitStatus* status = nullptr);

  /// Enqueues every row of a block (copied into the stream's ring pages)
  /// under one producer lock: one ring reservation and tail publish for
  /// all the rows that fit at once, one scheduling check. `x` is a
  /// row-block view; a Matrix converts implicitly. A cold stream is
  /// restored first (transparently; the rows then proceed as usual). When
  /// the ring holds queue_capacity rows, kBlock waits for space (in
  /// kManual dispatch the submitting thread drains the stream inline
  /// instead of deadlocking); kReject refuses the rows that do not fit and
  /// counts the drop. Processing happens on the owning shard's worker in
  /// submission order per stream (kShard) or when the caller polls
  /// (kManual). Returns the number of rows accepted (< x.rows() under
  /// kReject backpressure or on a typed error). On failure `status` (when
  /// non-null) receives the typed reason instead of an assertion: an
  /// unknown id, a failed restore, a row width other than input_dim, a
  /// `true_labels` span that is neither empty nor one label per row
  /// (kBadLabelSpan; never read out of bounds), or a NaN or infinity
  /// anywhere in the block (kNonFinite). The last three refuse the whole
  /// block before any row is reserved.
  std::size_t submit_batch(std::size_t id, linalg::ConstMatrixView x,
                           std::span<const int> true_labels = {},
                           SubmitStatus* status = nullptr);

  /// Drains the given stream on the calling thread until its ring is empty.
  /// The kManual dispatch consumer; in kShard mode it is also safe — racing
  /// the shard worker for bursts is prevented by the scheduled flag.
  void poll(std::size_t id);

  /// Blocks until every submitted sample has been processed. In kManual
  /// dispatch, drains on the calling thread the streams listed on the
  /// shards' ready stacks since the last drain — those that published rows
  /// — so a drain costs O(streams with rows), not O(registered streams).
  void drain();

  /// Evicts stream `id` now if it is resident and idle (empty ring, no
  /// drain in flight, fitted, not recovering): serializes its state into
  /// the shard's cold store and releases the pipeline + ring. Returns
  /// false when the stream is busy or not evictable. Safe from any thread;
  /// eviction also happens automatically under hot_stream_budget.
  bool evict(std::size_t id);

  /// True when the stream currently holds a resident Pipeline.
  bool resident(std::size_t id) const;

  /// Registers `count` new streams cold: stream `source_id` (fitted,
  /// resident) is serialized once, loaded once through io::load_template
  /// with every check, and the manager holds that template model until it
  /// is destroyed. Every new id maps to one shared template delta in its
  /// shard's cold store — the 100k-stream registration path, costing one
  /// checkpoint, one template model and one delta regardless of count. New ids are num_streams()..num_streams()+count-1;
  /// returns the first new id. A seeded stream is restored on its first
  /// submit with its own detector and ring, sharing the template's model
  /// until its first write (a recovery), which goes to a private copy; from
  /// then on it diverges with its own samples. Setup-phase API: must not
  /// race submits.
  std::size_t seed_cold_from(std::size_t source_id, std::size_t count);

  /// Resident / evicted stream totals across shards.
  std::size_t hot_streams() const;
  std::size_t cold_streams() const;

  /// Steps produced so far for a stream, in submission order; clears the
  /// stored steps. Call after drain() for a complete, race-free view.
  std::vector<PipelineStep> take_steps(std::size_t id);

  /// Appends the steps into `out` (keeping out's capacity) and clears the
  /// stored steps — the allocation-free twin of take_steps() once `out`
  /// has reached its high-water capacity.
  void take_steps(std::size_t id, std::vector<PipelineStep>& out);

  /// One stream's serving-layer counters (submits, blocked waits,
  /// released rows, drain bursts, busy time). drain() first.
  const StreamTelemetry& telemetry(std::size_t id) const;

  /// One stream's counter book (samples, drifts, recoveries, kReject
  /// drops, ring high-water, ...), summed across its evict/restore cycles.
  /// Safe at any time; drain() first for a final count.
  PipelineStats stats(std::size_t id) const;

  /// Observability snapshot: every stream (carried history + live block
  /// for resident streams) plus one ShardSnapshot per shard; totals() of
  /// it sums the counter books of all streams, hot and cold. Safe to call
  /// at any time from any thread — per-shard consistency is provided by
  /// briefly holding each shard's evict mutex while its streams are read,
  /// so a snapshot never observes a half-evicted stream.
  obs::Snapshot stats() const;

 private:
  using Stream = detail::ManagedStream;
  using Shard = detail::ShardState;

  void init_streams(const PipelineConfig& config, std::size_t num_streams);
  void start_workers();
  /// Hands the stream to its shard worker if no drain cycle owns it
  /// (kShard), or lists it for drain() if it is not listed yet (kManual).
  void maybe_schedule(Stream& s);
  /// Worker body for one shard: take-all / drain_cycle / park loop.
  void shard_worker(Shard& shard);
  /// Best-effort core pinning for a shard worker (Linux).
  void pin_worker(Shard& shard);
  /// The consumer cycle of both dispatch modes over shard.plan_candidates,
  /// whose roles the caller holds: the coalesced planning pass, then
  /// run_stream() for each stream in push order.
  void drain_cycle(Shard& shard);
  /// Drains one stream whose role the caller holds with scheduled-flag
  /// handoff, then runs the eviction bookkeeping (LRU touch + budget).
  void run_stream(Stream& s);
  /// The drain planner (manager_coalesce.cpp): partitions the streams in
  /// shard.plan_candidates by projection fingerprint and runs one shared
  /// mega-batch GEMM per group, scattering hidden rows into each member's
  /// scoring. Leftover rows (caps, recovery handoff) drain in the
  /// run_stream() pass that follows.
  void coalesce_candidates(Shard& shard);
  /// One group's stage-GEMM-scatter step over shard.plan.
  void coalesce_group(Shard& shard);
  /// True when the planner may put `s` into a shared mega-batch.
  bool coalesce_eligible(const Stream& s) const;
  /// Processes everything currently published.
  void drain_burst(Stream& s);
  /// Maps a page from the shard's pool into every unmapped page table
  /// entry the ring rows [tail, tail + take) need, under one pool lock.
  /// The caller is the stream's producer, before its tail store.
  void map_pages(Shard& shard, Stream& s, std::uint64_t tail,
                 std::size_t take);
  /// Unmaps the pages [first, end) (absolute page numbers) and gives them
  /// back to the stream's shard pool under one lock.
  void give_pages(Stream& s, std::uint64_t first, std::uint64_t end);
  /// Frees `take` processed rows from ring position `head` (`queued` were
  /// waiting): stamps, high-water, the pages the head passes, head store,
  /// producer wake-up, burst telemetry.
  void release_rows(Stream& s, std::uint64_t head, std::size_t take,
                    std::size_t queued);
  /// LRU touch + enforce_budget after a drain cycle.
  void after_drain(Stream& s);
  /// Once a stream that shared its template's model has written a private
  /// copy, charges the copy to hot_bytes and drops the template handle.
  /// Called by the stream's consumer right after its pipeline ran.
  void charge_private_copy(Stream& s);
  /// Evicts LRU-idle streams until the shard is within budget. Caller
  /// holds shard.evict_mutex. `skip` (may be null) is never victimized —
  /// the stream whose restore triggered this enforcement, whose
  /// produce_mutex the calling thread already holds.
  void enforce_budget_locked(Shard& shard, const Stream* skip = nullptr);
  /// Serializes + releases one stream. Caller holds shard.evict_mutex and
  /// s.produce_mutex, and s must be eligible (idle, fitted, hot).
  bool evict_locked(Shard& shard, Stream& s);
  /// True when `s` may be evicted right now. Caller holds both mutexes.
  bool evictable_locked(const Stream& s) const;
  /// Rebuilds a cold stream from its blob. Caller holds s.produce_mutex;
  /// takes shard.evict_mutex itself. False -> kRestoreFailed.
  bool restore_cold(Shard& shard, Stream& s);
  /// Pipeline bytes of a resident stream, without the model while it
  /// shares its template's (the per-stream hot_bytes unit; ring pages are
  /// charged per shard).
  std::size_t hot_footprint(const Stream& s) const;
  /// Wakes kBlock producers after head advanced.
  void notify_space(Stream& s);
  /// Wakes drain() waiters when pending and active both reached zero.
  void notify_done();

  ManagerOptions options_;
  /// Stream-template config: seeds restored pipelines' runtime-only fields
  /// (detector spec, recovery, obs, max_batch_rows) and fixes
  /// input_dim and the numerics tier for restores and dimension checks.
  PipelineConfig template_config_;
  /// Cached latency-timing gate (kObsCompiled && obs.enabled): submit
  /// stamps, the submit->drain and evict/restore histograms. The counters
  /// and the busy_ns clock do not consult it.
  bool obs_on_ = false;
  /// One per seed_cold_from() call: the template whose model its seeded
  /// streams share. Held for the manager's lifetime, so a stream on it
  /// always sees a second owner and copies before writing.
  std::vector<std::unique_ptr<io::ModelTemplate>> templates_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Submitted-not-yet-processed samples (raised before tail publish,
  /// lowered per drain burst or coalesced group) and streams handed to a
  /// shard worker whose cycle has not ended. Only the worker's decrement
  /// holds done_mutex_, which anchors the done_cv_ wait in drain().
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> active_{0};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
};

}  // namespace edgedrift::core
