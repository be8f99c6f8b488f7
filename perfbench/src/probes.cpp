#include "probes.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "edgedrift/io/checkpoint.hpp"
#include "edgedrift/model/multi_instance.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBlockRows = 256;

/// Median wall time of `reps` calls of `fn`, in nanoseconds.
template <typename Fn>
double median_ns(std::size_t reps, Fn&& fn) {
  std::vector<double> ns;
  ns.reserve(reps);
  fn();  // warm caches and grow scratch before timing
  for (std::size_t i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(std::move(ns));
}

edgedrift::core::Pipeline restore(const Workload& w, const std::string& blob) {
  std::istringstream in(blob, std::ios::binary);
  auto p = edgedrift::io::load_pipeline(in, w.config.numerics, nullptr,
                                        &w.config);
  if (!p) throw std::runtime_error("probe checkpoint failed to load");
  return std::move(*p);
}

}  // namespace

ProbeResult run_probes(const Workload& w, const std::string& blob) {
  ProbeResult out;
  const std::size_t rows = std::min(kBlockRows, w.rows.rows());
  const edgedrift::linalg::ConstMatrixView block(w.rows, 0, rows);
  const auto per_row = [rows](double ns) {
    return ns / static_cast<double>(rows);
  };

  const edgedrift::core::Pipeline fitted = lone_pipeline(w, 0, blob);
  const auto& model = fitted.model();

  edgedrift::linalg::Matrix hidden;
  out.project_ns_per_row = per_row(median_ns(
      200, [&] { model.projection()->hidden_batch_into(block, hidden); }));

  edgedrift::model::BatchWorkspace ws;
  std::vector<edgedrift::model::Prediction> preds(rows);
  out.score_ns_per_row = per_row(
      median_ns(200, [&] { model.predict_batch(block, ws, preds); }));

  edgedrift::core::Pipeline restored = restore(w, blob);
  auto& detector = restored.detector_mutable();
  out.observe_ns_per_row = per_row(median_ns(200, [&] {
    for (std::size_t r = 0; r < rows; ++r) {
      edgedrift::drift::Observation obs;
      obs.x = block.row(r);
      obs.predicted_label = static_cast<int>(preds[r].label);
      obs.anomaly_score = preds[r].score;
      detector.observe(obs);
    }
  }));

  std::string saved;
  out.save_us = median_ns(100, [&] {
    std::ostringstream os(std::ios::binary);
    edgedrift::io::save_pipeline(os, fitted);
    saved = os.str();
  }) / 1e3;
  out.blob_bytes = saved.size();
  out.load_us = median_ns(100, [&] { restore(w, saved); }) / 1e3;
  return out;
}

}  // namespace perfbench
