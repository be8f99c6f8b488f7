#include "oracle/metrics.hpp"

#include <algorithm>
#include <numeric>

#include "edgedrift/util/assert.hpp"

namespace edgedrift::eval {

double best_mapped_accuracy(const std::vector<int>& predicted,
                            const std::vector<int>& truth,
                            std::size_t num_labels) {
  EDGEDRIFT_ASSERT(predicted.size() == truth.size(), "length mismatch");
  EDGEDRIFT_ASSERT(num_labels > 0 && num_labels <= 8,
                   "exhaustive mapping supports up to 8 labels");
  if (predicted.empty()) return 0.0;

  // Confusion counts.
  std::vector<std::size_t> confusion(num_labels * num_labels, 0);
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const auto p = static_cast<std::size_t>(predicted[i]);
    const auto t = static_cast<std::size_t>(truth[i]);
    EDGEDRIFT_ASSERT(p < num_labels && t < num_labels, "label out of range");
    ++confusion[p * num_labels + t];
  }

  // Exhaustive search over bijections (num_labels <= 8 keeps this tiny).
  std::vector<std::size_t> perm(num_labels);
  std::iota(perm.begin(), perm.end(), 0);
  std::size_t best = 0;
  do {
    std::size_t hits = 0;
    for (std::size_t p = 0; p < num_labels; ++p) {
      hits += confusion[p * num_labels + perm[p]];
    }
    best = std::max(best, hits);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return static_cast<double>(best) / static_cast<double>(predicted.size());
}

}  // namespace edgedrift::eval
