// obs::DriftJournal — a fixed-capacity ring of drift-event records.
//
// Replaces ad-hoc logging of detections: when the detector fires, the
// pipeline begins an event (sample index, detector statistic, per-label
// centroid displacement, theta_drift, window span, recovery action); when
// the recovery finishes, the same event is completed with its duration in
// samples. The ring holds the most recent `capacity` events — older ones
// are overwritten, with total_events() preserving the lifetime count.
//
// Storage is preallocated at construction (one slot array plus one flat
// [capacity x num_labels] distance buffer), so begin/complete never touch
// the heap — they can run inside the serving hot path's drift branch.
// Every field is an atomic, stored with release and loaded with acquire,
// and each slot carries a seqlock-style sequence counter (odd while being
// written, bumped with release on publish), so concurrent snapshot() readers
// always observe a coherent record or retry — no locks and no fences
// anywhere, so ThreadSanitizer models every ordering the reader relies on.
//
// The journal is switched like latency timing: under EDGEDRIFT_NO_OBS it
// allocates nothing and records nothing, and with ObsOptions::enabled off
// the pipeline never writes it. The drift count itself is the counter
// book's (obs::Counters::drifts), which counts in every build.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "edgedrift/obs/counters.hpp"

namespace edgedrift::obs {

/// What a detection triggered (mirrors core::RecoveryPolicy without the
/// dependency; core/pipeline.cpp maps between them).
enum class RecoveryAction : std::uint8_t {
  kNone = 0,         ///< Detect-only: the model was left untouched.
  kReconstruct = 1,  ///< Streaming model reconstruction (Algorithms 2-4).
};

/// Plain-value copy of one drift event (what snapshot() hands out).
struct DriftEvent {
  std::uint64_t sample_index = 0;  ///< 0-based stream index of the firing.
  double statistic = 0.0;          ///< Detector distance/statistic at fire.
  double theta_drift = 0.0;        ///< Threshold in force when it fired.
  std::uint32_t window_span = 0;   ///< Evaluation window size W.
  RecoveryAction action = RecoveryAction::kNone;
  bool completed = false;          ///< The recovery has finished.
  std::uint64_t recovery_samples = 0;  ///< Samples the recovery consumed.
  /// Per-label |recent - trained| centroid displacement at the firing
  /// (empty when the detector tracks no centroids).
  std::vector<double> per_label_distance;
};

/// Lock-free fixed-capacity drift-event ring. Single writer (the stream's
/// consumer thread), any number of concurrent snapshot() readers.
class DriftJournal {
 public:
  DriftJournal(std::size_t capacity, std::size_t num_labels)
      : capacity_(kObsCompiled ? capacity : 0), num_labels_(num_labels) {
    if constexpr (kObsCompiled) {
      slots_ = std::vector<Slot>(capacity_);
      distances_ =
          std::vector<std::atomic<double>>(capacity_ * num_labels_);
    }
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t num_labels() const { return num_labels_; }

  /// Lifetime count of begun events (>= what the ring still holds).
  std::uint64_t total_events() const {
    if constexpr (!kObsCompiled) return 0;
    return events_.load(std::memory_order_acquire);
  }

  /// Opens a new event record. `per_label` holds num_labels displacement
  /// terms or is empty. Allocation-free.
  void begin_event(std::uint64_t sample_index, double statistic,
                   double theta_drift, std::uint32_t window_span,
                   RecoveryAction action,
                   std::span<const double> per_label) {
    if constexpr (!kObsCompiled) return;
    if (capacity_ == 0) return;
    const std::uint64_t event = events_.load(std::memory_order_relaxed);
    const std::size_t slot = static_cast<std::size_t>(event % capacity_);
    Slot& s = slots_[slot];
    // Odd sequence = record under construction; readers retry.
    s.seq.fetch_add(1, std::memory_order_acq_rel);
    s.sample_index.store(sample_index, std::memory_order_release);
    s.statistic.store(statistic, std::memory_order_release);
    s.theta_drift.store(theta_drift, std::memory_order_release);
    s.window_span.store(window_span, std::memory_order_release);
    s.action.store(static_cast<std::uint8_t>(action),
                   std::memory_order_release);
    // Detect-only events have no recovery to wait for.
    s.completed.store(action == RecoveryAction::kNone,
                      std::memory_order_release);
    s.recovery_samples.store(0, std::memory_order_release);
    s.has_distances.store(!per_label.empty(), std::memory_order_release);
    for (std::size_t c = 0; c < num_labels_ && c < per_label.size(); ++c) {
      distances_[slot * num_labels_ + c].store(per_label[c],
                                               std::memory_order_release);
    }
    s.seq.fetch_add(1, std::memory_order_release);
    events_.store(event + 1, std::memory_order_release);
  }

  /// Marks the most recently begun event finished after `recovery_samples`
  /// consumed samples. Allocation-free; no-op when nothing is open.
  void complete_event(std::uint64_t recovery_samples) {
    if constexpr (!kObsCompiled) return;
    const std::uint64_t event = events_.load(std::memory_order_relaxed);
    if (capacity_ == 0 || event == 0) return;
    Slot& s = slots_[static_cast<std::size_t>((event - 1) % capacity_)];
    s.seq.fetch_add(1, std::memory_order_acq_rel);
    s.recovery_samples.store(recovery_samples, std::memory_order_release);
    s.completed.store(true, std::memory_order_release);
    s.seq.fetch_add(1, std::memory_order_release);
  }

  /// Coherent copy of the retained events, oldest first. Allocates (never
  /// call on the hot path).
  std::vector<DriftEvent> snapshot() const {
    std::vector<DriftEvent> out;
    if constexpr (!kObsCompiled) return out;
    if (capacity_ == 0) return out;
    const std::uint64_t total = events_.load(std::memory_order_acquire);
    const std::uint64_t retained =
        total < capacity_ ? total : static_cast<std::uint64_t>(capacity_);
    out.reserve(static_cast<std::size_t>(retained));
    for (std::uint64_t e = total - retained; e < total; ++e) {
      const std::size_t slot = static_cast<std::size_t>(e % capacity_);
      DriftEvent ev;
      if (read_slot(slot, ev)) out.push_back(std::move(ev));
      // A slot that keeps changing mid-read is being overwritten by newer
      // events; dropping it keeps the snapshot coherent.
    }
    return out;
  }

  void reset() {
    if constexpr (!kObsCompiled) return;
    events_.store(0, std::memory_order_release);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> sample_index{0};
    std::atomic<double> statistic{0.0};
    std::atomic<double> theta_drift{0.0};
    std::atomic<std::uint32_t> window_span{0};
    std::atomic<std::uint8_t> action{0};
    std::atomic<bool> completed{false};
    std::atomic<std::uint64_t> recovery_samples{0};
    std::atomic<bool> has_distances{false};
  };

  /// Seqlock read of one slot; false after repeated torn reads. Each field
  /// load is an acquire: one that reads a newer write's field synchronizes
  /// with that write's release store, which follows its odd sequence bump,
  /// so the closing sequence load sees the bump and the read retries.
  bool read_slot(std::size_t slot, DriftEvent& ev) const {
    const Slot& s = slots_[slot];
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::uint64_t seq0 = s.seq.load(std::memory_order_acquire);
      if (seq0 % 2 != 0) continue;  // Mid-write; retry.
      ev.sample_index = s.sample_index.load(std::memory_order_acquire);
      ev.statistic = s.statistic.load(std::memory_order_acquire);
      ev.theta_drift = s.theta_drift.load(std::memory_order_acquire);
      ev.window_span = s.window_span.load(std::memory_order_acquire);
      ev.action = static_cast<RecoveryAction>(
          s.action.load(std::memory_order_acquire));
      ev.completed = s.completed.load(std::memory_order_acquire);
      ev.recovery_samples =
          s.recovery_samples.load(std::memory_order_acquire);
      ev.per_label_distance.clear();
      if (s.has_distances.load(std::memory_order_acquire)) {
        ev.per_label_distance.resize(num_labels_);
        for (std::size_t c = 0; c < num_labels_; ++c) {
          ev.per_label_distance[c] = distances_[slot * num_labels_ + c].load(
              std::memory_order_acquire);
        }
      }
      if (s.seq.load(std::memory_order_relaxed) == seq0) return true;
    }
    return false;
  }

  std::size_t capacity_;
  std::size_t num_labels_;
  std::vector<Slot> slots_;
  std::vector<std::atomic<double>> distances_;
  std::atomic<std::uint64_t> events_{0};
};

}  // namespace edgedrift::obs
