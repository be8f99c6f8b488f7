// Canonical experiment configurations of the paper's Section 4.2, shared by
// the reproduction benches, the CLI and downstream users who want the
// published hyper-parameters as a starting point. The comparison
// detectors' settings (QuantTree, SPLL) live with those detectors in
// tests/baselines/catalogue.hpp.
#pragma once

#include <cstddef>
#include <cstdint>

#include "edgedrift/core/pipeline.hpp"

namespace edgedrift::eval {

/// Shared configuration of the paper's experiments.
struct ExperimentConfig {
  core::PipelineConfig pipeline;     ///< Model + proposed-detector settings.
  double onlad_forgetting = 0.97;    ///< Paper: 0.97 (NSL-KDD) / 0.99 (fan).
  std::uint64_t seed = 1;
};

/// NSL-KDD setup: OS-ELM 38-22-38 (C = 2), ONLAD forgetting 0.97, proposed
/// window W (default 100).
ExperimentConfig nsl_kdd_paper_config(std::size_t window = 100);

/// Cooling-fan setup: OS-ELM 511-22-511 (C = 1 normal pattern), ONLAD
/// forgetting 0.99, proposed window W (default 50).
ExperimentConfig cooling_fan_paper_config(std::size_t window = 50);

}  // namespace edgedrift::eval
