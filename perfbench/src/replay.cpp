#include "replay.hpp"

#include <algorithm>
#include <bit>

#include "common.hpp"

namespace perfbench {
namespace {

using edgedrift::core::ManagerOptions;
using edgedrift::core::PipelineManager;
using edgedrift::core::PipelineStep;
using edgedrift::core::SubmitStatus;
using edgedrift::linalg::Matrix;

bool same(const ExpectedStep& a, const ExpectedStep& b) {
  return a.score_bits == b.score_bits && a.label == b.label &&
         a.flags == b.flags;
}

std::uint64_t digest_step(std::uint64_t h, const ExpectedStep& s) {
  h = fnv1a_value(h, s.score_bits);
  h = fnv1a_value(h, s.label);
  return fnv1a_value(h, s.flags);
}

/// Reusable per-round buffers: one staged input block and one step vector
/// per tick slot, sized once so the loop itself allocates nothing.
struct RoundBuffers {
  std::vector<Matrix> stage;
  std::vector<std::vector<PipelineStep>> out;

  explicit RoundBuffers(const Workload& w)
      : stage(w.max_round_ticks, Matrix(w.tick_rows, w.config.input_dim)),
        out(w.max_round_ticks) {
    for (auto& o : out) o.reserve(w.tick_rows);
  }

  void load(const Workload& w, std::span<const Tick> ticks) {
    const std::size_t n = w.tick_rows * w.config.input_dim;
    for (std::size_t k = 0; k < ticks.size(); ++k) {
      const double* src = w.rows.row(ticks[k].offset).data();
      std::copy(src, src + n, stage[k].data());
      out[k].clear();
    }
  }
};

/// The untraced gateway round: submit every tick, drain, collect.
std::uint64_t plain_round(PipelineManager& m, std::span<const Tick> ticks,
                          RoundBuffers& buf, std::uint64_t& refused) {
  const std::uint64_t t0 = now_ns();
  for (std::size_t k = 0; k < ticks.size(); ++k) {
    SubmitStatus status = SubmitStatus::kOk;
    refused += ticks[k].rows -
               m.submit_batch(ticks[k].stream, buf.stage[k], {}, &status);
  }
  m.drain();
  for (std::size_t k = 0; k < ticks.size(); ++k) {
    m.take_steps(ticks[k].stream, buf.out[k]);
  }
  return now_ns() - t0;
}

/// The same round with a span around every public call into core.
std::uint64_t traced_round(PipelineManager& m, std::span<const Tick> ticks,
                           RoundBuffers& buf, std::uint64_t& refused,
                           bool after_first, SpanTotals& spans) {
  auto add = [&spans](SpanKind kind, std::uint64_t ns, std::uint64_t rows) {
    spans.ns[kind] += ns;
    ++spans.calls[kind];
    spans.rows[kind] += rows;
  };
  std::uint64_t round_rows = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t k = 0; k < ticks.size(); ++k) {
    const Tick& t = ticks[k];
    const std::uint64_t a = now_ns();
    const bool hot = m.resident(t.stream);
    const std::uint64_t b = now_ns();
    SubmitStatus status = SubmitStatus::kOk;
    const std::size_t accepted =
        m.submit_batch(t.stream, buf.stage[k], {}, &status);
    const std::uint64_t c = now_ns();
    refused += t.rows - accepted;
    round_rows += t.rows;
    add(kSpanResident, b - a, 0);
    add(hot ? kSpanSubmit : kSpanRestore, c - b, t.rows);
    if (!hot && after_first) ++spans.restores_after_first;
  }
  const std::uint64_t d0 = now_ns();
  m.drain();
  const std::uint64_t d1 = now_ns();
  add(kSpanDrain, d1 - d0, round_rows);
  std::uint64_t end = d1;
  for (std::size_t k = 0; k < ticks.size(); ++k) {
    const std::uint64_t e0 = now_ns();
    m.take_steps(ticks[k].stream, buf.out[k]);
    end = now_ns();
    add(kSpanCollect, end - e0, ticks[k].rows);
  }
  if (after_first) spans.rows_after_first += round_rows;
  spans.round_ns += end - t0;
  return end - t0;
}

CoreCounters read_counters(const Workload& w, const PipelineManager& m) {
  CoreCounters c;
  const auto snap = m.stats();
  c.all_pinned = !snap.shards.empty();
  for (const auto& shard : snap.shards) {
    c.evictions += shard.evictions;
    c.coalesced_rows += shard.coalesced_rows;
    c.coalesced_gemms += shard.coalesced_gemms;
    c.worker_parks += shard.worker_parks;
    c.all_pinned = c.all_pinned && shard.pinned;
  }
  for (std::size_t id = 0; id < w.num_streams(); ++id) {
    c.processed += m.telemetry(id).processed;
    c.drain_bursts += m.telemetry(id).drain_bursts;
  }
  return c;
}

}  // namespace

ExpectedStep summarize(const PipelineStep& step) {
  ExpectedStep s;
  s.score_bits = std::bit_cast<std::uint64_t>(step.prediction.score);
  s.label = static_cast<std::uint32_t>(step.prediction.label);
  s.flags = static_cast<std::uint8_t>((step.drift_detected ? 1 : 0) |
                                      (step.reconstructing ? 2 : 0));
  return s;
}

Reference replay_reference(const Workload& w, const std::string& blob) {
  Reference ref;
  ref.steps.resize(w.rows.rows());
  std::vector<std::vector<std::uint32_t>> by_stream(w.num_streams());
  for (std::size_t k = 0; k < w.ticks.size(); ++k) {
    by_stream[w.ticks[k].stream].push_back(static_cast<std::uint32_t>(k));
  }
  for (std::size_t id = 0; id < by_stream.size(); ++id) {
    if (by_stream[id].empty()) continue;
    auto pipeline = lone_pipeline(w, id, blob);
    for (const std::uint32_t k : by_stream[id]) {
      const Tick& t = w.ticks[k];
      for (std::size_t j = 0; j < t.rows; ++j) {
        const std::uint64_t a = now_ns();
        const PipelineStep step = pipeline.process(w.rows.row(t.offset + j));
        const std::uint64_t b = now_ns();
        if (step.reconstructing) {
          ref.recover_ns += b - a;
          ++ref.recover_rows;
        } else {
          ref.steady_ns += b - a;
          ++ref.steady_rows;
        }
        ref.steps[t.offset + j] = summarize(step);
      }
    }
    ref.drifts += pipeline.stats().drifts;
    ref.recoveries += pipeline.stats().recoveries;
  }
  std::uint64_t h = kFnvBasis;
  for (const auto& s : ref.steps) h = digest_step(h, s);
  ref.decision_digest = h;
  return ref;
}

PassResult run_pass(const Workload& w, const ManagerOptions& options,
                    const Reference& ref, bool traced) {
  PassResult res;
  RoundBuffers buf(w);
  std::vector<std::uint32_t> stream_rows(w.num_streams(), 0);
  res.round_us.reserve(w.num_rounds());

  const std::uint64_t s0 = now_ns();
  auto manager = set_up(w, options);
  res.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

  std::uint64_t digest = kFnvBasis;
  for (std::size_t r = 0; r < w.num_rounds(); ++r) {
    const auto ticks = w.round(r);
    buf.load(w, ticks);
    const std::uint64_t ns =
        traced ? traced_round(*manager, ticks, buf, res.refused, r > 0,
                              res.spans)
               : plain_round(*manager, ticks, buf, res.refused);
    // Round 0 is the warm-up: first touches restore seeded streams and
    // fault in fresh memory, which a long-running gateway pays once.
    if (r > 0) {
      res.round_ns += ns;
      res.round_us.push_back(static_cast<double>(ns) / 1e3);
    }
    for (std::size_t k = 0; k < ticks.size(); ++k) {
      const Tick& t = ticks[k];
      res.rows += t.rows;
      if (r > 0) res.timed_rows += t.rows;
      const auto& out = buf.out[k];
      const std::size_t n = std::min<std::size_t>(out.size(), t.rows);
      for (std::size_t j = 0; j < n; ++j) {
        const ExpectedStep got = summarize(out[j]);
        digest = digest_step(digest, got);
        if (same(got, ref.steps[t.offset + j])) continue;
        ++res.mismatched;
        if (res.first_mismatches.size() < 8) {
          res.first_mismatches.push_back({t.stream, stream_rows[t.stream] + j});
        }
      }
      stream_rows[t.stream] += t.rows;
    }
  }
  res.decision_digest = digest;
  if (traced ||
      options.dispatch == edgedrift::core::DispatchMode::kShard) {
    res.counters = read_counters(w, *manager);
  }
  return res;
}

double backlog_ns_per_row(const Workload& w, std::size_t backlog) {
  ManagerOptions options = w.options;
  options.shards = 1;
  options.hot_stream_budget = 0;
  PipelineManager m(w.config, 1, options);
  m.fit(0, w.fits[0].x, w.fits[0].labels);
  const auto& src = w.fits[0].x;
  constexpr std::size_t kBurst = 4;
  Matrix block(kBurst, w.config.input_dim);
  std::size_t next = 0;
  auto fill = [&] {
    for (std::size_t j = 0; j < kBurst; ++j, next = (next + 1) % src.rows()) {
      const auto row = src.row(next);
      std::copy(row.begin(), row.end(), block.row(j).begin());
    }
  };
  for (std::size_t held = 0; held < backlog; held += kBurst) {
    fill();
    m.submit_batch(0, block);
    m.drain();
  }
  std::vector<double> ns;
  for (int i = 0; i < 64; ++i) {
    fill();
    const std::uint64_t t0 = now_ns();
    m.submit_batch(0, block);
    m.drain();
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(std::move(ns)) / static_cast<double>(kBurst);
}

}  // namespace perfbench
