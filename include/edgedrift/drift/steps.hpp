// The per-sample steps of the proposed system's Algorithms 1-4, written once
// for both copies of it: the library's CentroidDetector, Reconstructor and
// Pipeline run them at double on linalg::Matrix storage, and
// mcu::StaticPipeline runs them at float on fixed-capacity arrays. Algorithm
// 2's row dispatch (reconstruct_row) is here too; the OS-ELM math
// (projection, scoring, training, instance reset) stays in each copy and
// reaches the dispatch through two callbacks.
//
// Every centroid or coordinate set is a flat row-major C x D span. The steps
// compute through the linalg kernels, so at double they add the same doubles
// in the same order as the kernels always have, and the f64 transcripts stay
// bit-identical.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>

#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::drift {

/// Phase lengths of Algorithm 2.
struct ReconstructorConfig {
  std::size_t n_search = 20;   ///< N_search: samples spent spreading coords.
  std::size_t n_update = 120;  ///< N_update: samples spent refining coords.
  std::size_t n_total = 600;   ///< N: samples until reconstruction finishes.
};

/// Current phase of a running reconstruction.
enum class ReconstructionPhase {
  kIdle,          ///< Not reconstructing.
  kSearchCoords,  ///< Algorithm 3 (Init_Coord).
  kUpdateCoords,  ///< Algorithm 4 (Update_Coord).
  kTrainNearest,  ///< Algorithm 2 lines 8-9.
  kTrainPredict,  ///< Algorithm 2 lines 11-12.
};

namespace steps {

/// Row r of a flat row-major matrix whose rows hold `dim` values.
template <class T>
std::span<T> row(std::span<T> rows, std::size_t dim, std::size_t r) {
  return rows.subspan(r * dim, dim);
}

// ---- Algorithm 1 ----------------------------------------------------------

/// Algorithm 1's window: open (`check`) and the samples it folded (`win`).
struct Window {
  bool open = false;
  std::size_t pos = 0;
};

/// Algorithm 1 lines 8-17 for one predicted sample: opens the window when
/// `score` reaches theta_error, then folds x into the recent centroid of
/// `label` — a running mean, or an EWMA when ewma_decay > 0 — and counts it.
/// Returns true when this sample closed the window; the caller then
/// compares window_distance() with theta_drift.
template <class T, class Count>
bool window_observe(Window& w, std::span<const T> x, std::size_t label,
                    T score, T theta_error, std::size_t window_size,
                    T ewma_decay, std::span<T> recent,
                    std::span<Count> counts) {
  if (!w.open && score >= theta_error) w = {true, 0};
  if (!w.open) return false;
  const std::span<T> mean = row(recent, x.size(), label);
  if (ewma_decay > T(0)) {
    linalg::ewma_update(mean, x, ewma_decay);
  } else {
    linalg::running_mean_update(mean, x, counts[label]);
  }
  ++counts[label];
  if (++w.pos < window_size) return false;
  w.open = false;
  return true;
}

/// Algorithm 1 line 14: dist = sum over labels of L1(recent[c], trained[c]),
/// summed in label order.
template <class T>
T window_distance(std::span<const T> recent, std::span<const T> trained,
                  std::size_t dim) {
  T total = 0;
  for (std::size_t c = 0; c * dim < recent.size(); ++c) {
    total += linalg::l1_distance(row(recent, dim, c), row(trained, dim, c));
  }
  return total;
}

/// Re-arming's recent counts: `initial_count` for every label when it is
/// >= 0, else the calibrated counts (the count prior).
template <class Count, class Calibrated>
void rearm_counts(std::span<Count> counts, long initial_count,
                  std::span<const Calibrated> calibrated) {
  for (std::size_t c = 0; c < counts.size(); ++c) {
    counts[c] = static_cast<Count>(initial_count >= 0 ? initial_count
                                                      : calibrated[c]);
  }
}

// ---- Algorithms 2-4 -------------------------------------------------------

/// Algorithm 2's phase for its count-th sample. The count is incremented
/// before the phase tests (line 2); kIdle marks the N-th, finishing sample.
inline ReconstructionPhase phase_at(std::size_t count,
                                    const ReconstructorConfig& config) {
  if (count >= config.n_total) return ReconstructionPhase::kIdle;
  if (count < config.n_search) return ReconstructionPhase::kSearchCoords;
  if (count < config.n_update) return ReconstructionPhase::kUpdateCoords;
  if (count < config.n_total / 2) return ReconstructionPhase::kTrainNearest;
  return ReconstructionPhase::kTrainPredict;
}

/// The row of `rows` nearest x in squared L2 (Algorithm 4 line 2); the
/// lowest index wins a tie.
template <class T>
std::size_t nearest_row(std::span<const T> rows, std::span<const T> x) {
  std::size_t best = 0;
  T best_d = std::numeric_limits<T>::infinity();
  for (std::size_t c = 0; c * x.size() < rows.size(); ++c) {
    const T d = linalg::squared_l2_distance(x, row(rows, x.size(), c));
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

/// Sum over every pair of rows of their L1 distance: the objective
/// Algorithm 3 maximizes.
template <class T>
T pairwise_l1_spread(std::span<const T> rows, std::size_t dim) {
  const std::size_t n = rows.size() / dim;
  T total = 0;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      total += linalg::l1_distance(row(rows, dim, a), row(rows, dim, b));
    }
  }
  return total;
}

/// Algorithm 3's substitution: tries x in place of each coordinate and keeps
/// the one substitution that raises the pairwise spread most. Returns the
/// replaced coordinate, or -1. `saved` is caller scratch of x.size() values.
template <class T>
int spread_coord(std::span<T> coords, std::span<const T> x,
                 std::span<T> saved) {
  const std::size_t dim = x.size();
  T best = pairwise_l1_spread<T>(coords, dim);
  int chosen = -1;
  for (std::size_t c = 0; c * dim < coords.size(); ++c) {
    const std::span<T> coord = row(coords, dim, c);
    linalg::copy(coord, saved);
    linalg::copy(x, coord);
    const T candidate = pairwise_l1_spread<T>(coords, dim);
    linalg::copy(saved, coord);
    if (candidate > best) {
      best = candidate;
      chosen = static_cast<int>(c);
    }
  }
  if (chosen >= 0) {
    linalg::copy(x, row(coords, dim, static_cast<std::size_t>(chosen)));
  }
  return chosen;
}

/// Init_Coord for Algorithm 2's count-th sample. "C initial samples are
/// selected as initial coordinates of C labels" (Section 3.3): the first C
/// samples seed the coordinates directly, because the seeds a reconstruction
/// starts from are placeholders that must not win the spread contest against
/// real data. Later samples substitute through spread_coord().
template <class T>
void init_coord(std::span<T> coords, std::span<const T> x, std::size_t count,
                std::span<T> saved) {
  if (count * x.size() <= coords.size()) {
    linalg::copy(x, row(coords, x.size(), count - 1));
  } else {
    spread_coord(coords, x, saved);
  }
}

/// Update_Coord (Algorithm 4) for one sample: x joins the running mean of
/// its nearest coordinate, which is returned. `entering` marks the phase's
/// first sample: every coordinate then holds one real sample placed by
/// Init_Coord, so each count restarts at 1.
template <class T, class Count>
std::size_t update_coord(std::span<T> coords, std::span<Count> counts,
                         std::span<const T> x, bool entering) {
  if (entering) std::fill(counts.begin(), counts.end(), Count{1});
  const std::size_t c = nearest_row<T>(coords, x);
  linalg::running_mean_update(row(coords, x.size(), c), x, counts[c]);
  ++counts[c];
  return c;
}

/// Equation 1 over a stream of distances (Welford): the threshold
/// mean + z * stddev, with the population variance.
template <class T>
struct Welford {
  std::size_t n = 0;
  T mean = 0;
  T m2 = 0;

  void add(T d) {
    ++n;
    const T delta = d - mean;
    mean += delta / static_cast<T>(n);
    m2 += delta * (d - mean);
  }

  /// 0 when no distance was added.
  T threshold(T z) const {
    if (n == 0) return 0;
    const T variance = m2 / static_cast<T>(n);
    return mean + z * std::sqrt(std::max(T(0), variance));
  }
};

/// Algorithm 2's body for its count-th sample: Init_Coord in phase 1,
/// Update_Coord in phase 2, and in phases 3-4 one OS-ELM step on the
/// instance of the nearest coordinate (lines 8-9) or of the model's own
/// prediction (lines 11-12), whose L1 distance to that label's coordinate
/// joins Equation 1's re-arm statistics. The caller supplies the OS-ELM
/// math: `predict()` returns the model's label for x, `train(label)` trains
/// that instance on x. Returns the phase; kIdle marks the N-th, finishing
/// sample, which does no work (lines 13-15). `saved` is Init_Coord's
/// scratch of x.size() values.
template <class T, class Count, class Predict, class Train>
ReconstructionPhase reconstruct_row(std::span<T> coords,
                                    std::span<Count> counts,
                                    std::span<T> saved,
                                    Welford<T>& distances,
                                    std::span<const T> x, std::size_t count,
                                    const ReconstructorConfig& config,
                                    Predict&& predict, Train&& train) {
  const ReconstructionPhase phase = phase_at(count, config);
  switch (phase) {
    case ReconstructionPhase::kIdle:
      break;
    case ReconstructionPhase::kSearchCoords:
      init_coord(coords, x, count, saved);
      break;
    case ReconstructionPhase::kUpdateCoords:
      update_coord(coords, counts, x, count == config.n_search);
      break;
    case ReconstructionPhase::kTrainNearest:
    case ReconstructionPhase::kTrainPredict: {
      const std::size_t label = phase == ReconstructionPhase::kTrainNearest
                                    ? nearest_row<T>(coords, x)
                                    : predict();
      train(label);
      distances.add(linalg::l1_distance(x, row(coords, x.size(), label)));
      break;
    }
  }
  return phase;
}

/// The theta_drift a re-armed detector runs with: a recomputed threshold
/// <= 0 keeps the current one.
template <class T>
T rearm_theta(T theta_drift, T threshold) {
  return threshold > T(0) ? threshold : theta_drift;
}

/// Matches candidate rows to reference rows (n rows of `dim` each): perm[i]
/// is the candidate assigned to reference row i, minimizing the summed
/// squared-L2 cost. Exact at every n: the O(n^3) Hungarian method, which
/// grows the assignment one reference row at a time along a shortest
/// augmenting path under row and column potentials. Caller scratch: `cost`
/// holds n * n + 3 * (n + 1) reals (the costs, then the potentials and the
/// path minima), `work` 3 * (n + 1) indices. Non-finite costs still yield a
/// permutation.
template <class T>
void match_rows(std::span<const T> reference, std::span<const T> candidates,
                std::size_t dim, std::span<std::size_t> perm,
                std::span<T> cost, std::span<std::size_t> work) {
  const std::size_t n = perm.size();
  const std::size_t m = n + 1;
  EDGEDRIFT_DASSERT(cost.size() >= n * n + 3 * m && work.size() >= 3 * m,
                    "match_rows scratch too small");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cost[i * n + j] = linalg::squared_l2_distance(row(reference, dim, i),
                                                    row(candidates, dim, j));
    }
  }
  // 1-based rows i and columns j; column 0 is the start of every path.
  // owner[j] is the row column j is assigned to (0: none), via[j] the
  // column before j on the current path. The scratch runs u, v, slack and
  // owner, via, used back to back.
  T* const u = cost.data() + n * n;
  T* const v = u + m;
  T* const slack = v + m;
  std::size_t* const owner = work.data();
  std::size_t* const via = owner + m;
  std::size_t* const used = via + m;
  std::fill(u, slack, T(0));
  std::fill(owner, via, std::size_t{0});
  for (std::size_t i = 1; i <= n; ++i) {
    owner[0] = i;
    std::fill(slack, slack + m, std::numeric_limits<T>::infinity());
    std::fill(via, used + m, std::size_t{0});
    std::size_t j0 = 0;
    do {
      used[j0] = 1;
      const std::size_t i0 = owner[j0];
      T delta = std::numeric_limits<T>::infinity();
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= n; ++j) {
        if (used[j] != 0) continue;
        const T reduced = cost[(i0 - 1) * n + (j - 1)] - u[i0] - v[j];
        if (reduced < slack[j]) {
          slack[j] = reduced;
          via[j] = j0;
        }
        if (j1 == 0 || slack[j] < delta) {
          delta = slack[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= n; ++j) {
        if (used[j] != 0) {
          u[owner[j]] += delta;
          v[j] -= delta;
        } else {
          slack[j] -= delta;
        }
      }
      j0 = j1;
    } while (owner[j0] != 0);
    // Augment: shift each row on the path one column along it.
    while (j0 != 0) {
      const std::size_t prev = via[j0];
      owner[j0] = owner[prev];
      j0 = prev;
    }
  }
  for (std::size_t j = 1; j <= n; ++j) perm[owner[j] - 1] = j - 1;
}

/// Reorders the rows of `rows` (row length `len`) in place so that position
/// i holds the old row perm[i]. Rows are swapped element by element, so no
/// row-sized temporary is needed (the cooling-fan device's beta rows are 11k
/// floats each).
template <class T>
void permute_rows(std::span<T> rows, std::size_t len,
                  std::span<const std::size_t> perm) {
  for (std::size_t i = 0; i < perm.size(); ++i) {
    // Rows before i are final; an earlier swap moved old row perm[i] to
    // wherever following perm from it first reaches an index >= i.
    EDGEDRIFT_DASSERT(perm[i] < perm.size(), "permutation index range");
    std::size_t j = perm[i];
    while (j < i) j = perm[j];
    if (j != i) {
      std::swap_ranges(rows.begin() + i * len, rows.begin() + (i + 1) * len,
                       rows.begin() + j * len);
    }
  }
}

}  // namespace steps
}  // namespace edgedrift::drift
