// Accuracy under the best relabelling: a scoring reference only the tests
// use (the library re-aligns labels itself, drift/steps.hpp match_rows).
#pragma once

#include <cstddef>
#include <vector>

namespace edgedrift::eval {

/// Maps predicted cluster labels onto true labels maximizing agreement and
/// returns the accuracy under that bijection. Exhaustive: up to 8 labels.
double best_mapped_accuracy(const std::vector<int>& predicted,
                            const std::vector<int>& truth,
                            std::size_t num_labels);

}  // namespace edgedrift::eval
