// The cross-stream drain planner: shared-projection mega-batch scoring.
//
// A high-density shard wakes with many ready streams, each carrying a small
// burst (often 1-8 rows). Draining them one stream at a time runs one tiny
// projection GEMM per stream — all kernel ramp, no steady state. But every
// stream seeded from one template (seed_cold_from) or restored from the
// same checkpoint shares a bit-identical random projection, so their bursts
// can share ONE GEMM: the planner gathers the pending ring rows of every
// ready stream in the same projection group into a staging slab, projects
// the whole mega-batch once, and scatters the hidden rows back into each
// stream's own packed-beta scoring and drift detection (one
// Pipeline::process_rows() call per member, hidden rows supplied).
//
// Grouping is keyed on Pipeline::projection_fingerprint() — the alpha/bias/
// shape/activation digest folded with the numerics tier — so two streams
// land in one group only when their hidden batches are bit-identical and
// their scoring replicas have the same format. The projection GEMM is
// row-independent and a row scores the same in any block, which makes the
// coalesced drain bit-identical to the per-stream drain at every tier
// (tests/test_coalesced_drain.cpp).
//
// Scheduling safety: drain_cycle's caller owns every candidate's
// `scheduled` flag (the shard worker took them off the ready stack; the
// kManual drain takes the listed streams off the same stack and wins the
// flag explicitly, skipping a stream a concurrent poll() holds), which is
// exactly the condition that blocks eviction (evictable_locked requires
// !scheduled) — so no stream can be evicted or restored between group
// formation and scatter. Streams that are ineligible (recovering,
// unfitted, released) or whose group is too small fall back to the
// per-stream drain that follows every planning pass in drain_cycle; the
// same pass also picks up rows the staging caps left behind.
#include <algorithm>
#include <cstring>

#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::core {
namespace {

/// Largest mega-batch the planner stages for one shared GEMM. Rows beyond
/// it drain through the per-stream path the same cycle.
constexpr std::size_t kCoalesceRows = 1024;
/// Smallest projection group worth staging: a group of one would only add a
/// copy on top of the same GEMM.
constexpr std::size_t kCoalesceMinStreams = 2;

}  // namespace

bool PipelineManager::coalesce_eligible(const Stream& s) const {
  // Residency and the pipeline pointer are stable while the caller holds
  // the stream's scheduled flag: eviction requires !scheduled. A stream
  // mid-recovery trains one row at a time, so it drains per-stream.
  return s.residency == Stream::Residency::kHot && s.pipeline != nullptr &&
         s.pipeline->fitted() && !s.pipeline->recovering() &&
         s.head.load() != s.tail.load();
}

void PipelineManager::coalesce_candidates(Shard& shard) {
  auto& cand = shard.plan_candidates;
  if (cand.empty()) return;
  if (cand.size() < kCoalesceMinStreams) {
    shard.obs.add_coalesce_fallback(cand.size());
    return;
  }
  // One fingerprint read (and pipeline pointer chase) per stream; the sort
  // and the run scan below compare flat keys. Sorting by fingerprint makes
  // every projection group one contiguous run.
  auto& keys = shard.plan_keys;
  keys.clear();
  std::size_t ineligible = 0;
  for (Stream* s : cand) {
    if (coalesce_eligible(*s)) {
      keys.emplace_back(s->pipeline->projection_fingerprint(), s);
    } else {
      ++ineligible;
    }
  }
  shard.obs.add_coalesce_fallback(ineligible);
  const auto fp_less = [](const std::pair<std::uint64_t, Stream*>& a,
                          const std::pair<std::uint64_t, Stream*>& b) {
    return a.first < b.first;
  };
  // The high-density steady state is one seeded template group — already
  // "sorted". Pay O(n) to check before paying O(n log n) to sort.
  if (!std::is_sorted(keys.begin(), keys.end(), fp_less)) {
    std::sort(keys.begin(), keys.end(), fp_less);
  }

  auto run_begin = keys.begin();
  while (run_begin != keys.end()) {
    auto run_end = run_begin + 1;
    while (run_end != keys.end() && run_end->first == run_begin->first) {
      ++run_end;
    }
    const std::size_t width = static_cast<std::size_t>(run_end - run_begin);
    if (width < kCoalesceMinStreams) {
      // Group of one (or a fingerprint mismatch splitting the shard):
      // staging would only add a copy on top of the same GEMM.
      shard.obs.add_coalesce_fallback(width);
      run_begin = run_end;
      continue;
    }
    // Pack the group: one row block per member, bounded per stream by its
    // max_batch_rows and overall by the staging budget. Only rows already
    // published at planning time are taken — the planner never waits on a
    // producer.
    shard.plan.clear();
    std::size_t total = 0;
    for (auto it = run_begin; it != run_end && total < kCoalesceRows; ++it) {
      Stream& s = *it->second;
      const std::uint64_t head = s.head.load();
      const std::size_t queued =
          static_cast<std::size_t>(s.tail.load() - head);
      const std::size_t take =
          std::min({queued, s.pipeline->config().max_batch_rows,
                    kCoalesceRows - total});
      if (take == 0) continue;
      shard.plan.push_back({&s, head, take, total, queued});
      total += take;
    }
    if (shard.plan.size() < kCoalesceMinStreams) {
      shard.obs.add_coalesce_fallback(width);
    } else {
      coalesce_group(shard);
    }
    run_begin = run_end;
  }
}

void PipelineManager::coalesce_group(Shard& shard) {
  auto& plan = shard.plan;
  const std::size_t total = plan.back().offset + plan.back().take;
  const std::uint64_t t0 = obs::now_ns();

  // Gather: each member's ring burst is one contiguous segment per ring
  // page it touches, copied into its reserved staging block. Labels ride
  // along in a parallel array so the scatter can hand each stream a span
  // indexed by staging row, exactly like the per-stream drain hands a
  // page's labels indexed by row.
  const std::size_t dim = template_config_.input_dim;
  shard.stage_x.resize_discard(total, dim);
  if (shard.stage_labels.size() < total) shard.stage_labels.resize(total);
  for (const auto& m : plan) {
    for (std::size_t i = 0; i < m.take;) {
      const std::uint64_t row = m.head + i;
      const std::size_t pos =
          static_cast<std::size_t>(row % detail::kRingPageRows);
      const std::size_t seg =
          std::min(m.take - i, detail::kRingPageRows - pos);
      const detail::RingPage& page = m.stream->page_of(row);
      std::memcpy(shard.stage_x.row(m.offset + i).data(),
                  page.rows.row(pos).data(), seg * dim * sizeof(double));
      std::copy_n(page.labels.begin() + pos, seg,
                  shard.stage_labels.begin() + m.offset + i);
      i += seg;
    }
  }

  // One shared projection GEMM for the whole group. Any member's
  // projection produces bit-identical rows (equal fingerprints), so the
  // first one serves. Alpha's GEMM panels are prepacked and cached on the
  // shard keyed by the raw projection fingerprint — in the one-template
  // steady state every mega-batch reuses the pack.
  const oselm::Projection& proj =
      *plan.front().stream->pipeline->model().projection();
  if (!shard.packed_alpha_valid ||
      shard.packed_alpha_fp != proj.fingerprint()) {
    proj.pack_alpha(shard.packed_alpha);
    shard.packed_alpha_fp = proj.fingerprint();
    shard.packed_alpha_valid = true;
  }
  proj.hidden_batch_into(shard.stage_x, shard.stage_hidden,
                         shard.packed_alpha);

  // Scatter: each stream scores its row block against its own packed beta
  // and runs its own detector, then releases its ring rows through the
  // same release_rows() as drain_burst.
  for (const auto& m : plan) {
    Stream& s = *m.stream;
    {
      std::lock_guard lock(s.steps_mutex);
      const linalg::ConstMatrixView hidden{shard.stage_hidden, m.offset,
                                           m.offset + m.take};
      s.pipeline->process_rows(
          {shard.stage_x, m.offset, m.offset + m.take},
          std::span<const int>(shard.stage_labels).subspan(m.offset, m.take),
          s.steps, &hidden);
    }
    charge_private_copy(s);
    release_rows(s, m.head, m.take, m.queued);
  }

  // One decrement for the whole group: nothing waits on pending_ between
  // the member scatters (done-notification comes after the drain cycle),
  // so batching the RMW is observationally equivalent and drops
  // group_size-1 contended atomics per mega-batch.
  pending_.fetch_sub(total);

  // The group's wall time covers gather + GEMM + every member's scatter;
  // attribute it to members by row share so per-stream samples_per_second
  // stays meaningful. The clock runs in every build, as in drain_burst.
  const std::uint64_t elapsed = obs::now_ns() - t0;
  for (const auto& m : plan) {
    m.stream->telemetry.busy_ns += elapsed * m.take / total;
  }
  shard.obs.add_coalesced_gemm(total, plan.size());
}

}  // namespace edgedrift::core
