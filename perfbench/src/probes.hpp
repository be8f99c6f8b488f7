// Fixed-block probes of the layers below core: each calls one public
// function of the workload's fitted template on the first 256 rows of the
// workload's traffic and reports the median over repetitions.
#pragma once

#include <cstddef>
#include <string>

#include "workload.hpp"

namespace perfbench {

struct ProbeResult {
  double project_ns_per_row = 0.0;  ///< Projection::hidden_batch_into.
  double score_ns_per_row = 0.0;    ///< MultiInstanceModel::predict_batch.
  double observe_ns_per_row = 0.0;  ///< Detector::observe.
  double save_us = 0.0;             ///< io::save_pipeline.
  double load_us = 0.0;             ///< io::load_pipeline.
  std::size_t blob_bytes = 0;
};

ProbeResult run_probes(const Workload& w, const std::string& blob);

}  // namespace perfbench
