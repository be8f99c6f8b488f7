// Pipeline checkpointing: persist a fitted edgedrift::core::Pipeline (model
// weights, detector calibration, thresholds) and restore it elsewhere.
//
// Use case: the initial batch training (which needs the Cholesky solve and
// the full training window) runs on a gateway-class machine; the resulting
// state blob — a few tens of kB for the paper's configurations — is shipped
// to the microcontroller, which then runs the fully sequential part only.
// The serving layer's cold store keeps evicted streams as the same blobs.
//
// The checkpoint stores the full PipelineConfig, the shared projection
// weights, every instance's (beta, P) pair, and the detector's centroid
// state (format v3, io/binary.hpp). Loading verifies the trailing digest
// over the whole blob before it parses anything, proves the blob holds
// every block its config declares before it allocates the pipeline, and
// verifies the projection weights bit-for-bit (they are re-drawn from the
// persisted seed, so any mismatch indicates a version or RNG change and
// the load fails cleanly).
//
// The core API works on byte buffers: save_pipeline appends to a
// std::string and load_pipeline parses a std::string_view, with no stream
// in between. The std::ostream / std::istream overloads and the file
// functions are thin adapters over it.
//
// Template sharing: load_pipeline may be given a ModelTemplate, a blob and
// the pipeline load_template() built from it. After every check above, a
// blob whose model-determining config fields (shape, activation, weight
// scale, reg_lambda, seed, numerics tier) and whole model section
// (projection weights and fingerprint, instance count, every beta, P and
// samples-seen count) equal the template blob's bytes is built on the
// template pipeline's model: no projection is drawn, and no model is
// built, parsed or requantized. The projection check keeps its meaning,
// because the template passed it against the same seed. Any difference
// parses the blob's own model as without a template. The restored pipeline
// copies the shared model before its first write (core/pipeline.hpp).
#pragma once

#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/linalg/numerics.hpp"

namespace edgedrift::io {

/// Appends a checkpoint of a fitted pipeline to `out`. Returns false, and
/// appends nothing, when the pipeline is not fitted or its detector is not
/// the centroid family. The checkpoint records the pipeline's active
/// NumericsTier: the tier is part of the drift-decision contract, so a
/// restore site must get the tier it expects or fail loudly.
bool save_pipeline(std::string& out, const core::Pipeline& pipeline);

/// A checkpoint blob and the pipeline load_template() built from it: the
/// model that loads of blobs with an equal model share (see the header
/// comment). Holding it keeps that model alive, and since the template
/// pipeline is one of its owners, every pipeline loaded onto it copies the
/// model before writing, so the template is never written in place.
struct ModelTemplate {
  std::shared_ptr<const std::string> blob;
  core::Pipeline pipeline;
};

/// Loads `blob` through load_pipeline, with every check and the same
/// arguments, and keeps the result as a template. nullopt (and `error`) as
/// load_pipeline.
std::optional<ModelTemplate> load_template(
    std::shared_ptr<const std::string> blob,
    std::optional<linalg::NumericsTier> expect_tier = std::nullopt,
    std::string* error = nullptr,
    const core::PipelineConfig* runtime = nullptr);

/// Loads a pipeline from exactly one checkpoint blob. Returns nullopt on
/// any corruption, format-version, or consistency failure; when `error` is
/// non-null it then receives a human-readable reason. When `expect_tier` is
/// set, a checkpoint recorded under any other tier is rejected.
///
/// `runtime` (optional) overlays the restore site's runtime-only
/// configuration — detector spec, recovery policy, obs options,
/// max_batch_rows — none of which the checkpoint persists (they describe
/// the serving process, not the trained state). Its model shape
/// (num_labels / input_dim / hidden_dim) must match the checkpoint and its
/// detector spec must be the centroid family (the only detector this
/// format can restore state into); anything else fails the load. This is
/// how PipelineManager's eviction layer rehydrates cold streams with the
/// manager's own serving knobs instead of checkpoint-era defaults.
///
/// `model_template` (optional) lets a blob whose model equals the
/// template's share the template pipeline's model instead of building its
/// own (see the header comment). It changes no check and no result: the
/// restored pipeline steps bit for bit as one loaded without it. The
/// template need only live through the call: the restored pipeline
/// co-owns the model.
std::optional<core::Pipeline> load_pipeline(
    std::string_view blob,
    std::optional<linalg::NumericsTier> expect_tier = std::nullopt,
    std::string* error = nullptr,
    const core::PipelineConfig* runtime = nullptr,
    const ModelTemplate* model_template = nullptr);

/// Stream adapter: writes the blob save_pipeline(std::string&) builds.
/// Returns false on the same conditions or on a stream write failure.
bool save_pipeline(std::ostream& out, const core::Pipeline& pipeline);

/// Stream adapter: reads `in` to its end and loads those bytes as one blob.
std::optional<core::Pipeline> load_pipeline(
    std::istream& in,
    std::optional<linalg::NumericsTier> expect_tier = std::nullopt,
    std::string* error = nullptr,
    const core::PipelineConfig* runtime = nullptr);

/// File-path conveniences.
bool save_pipeline_file(const std::string& path,
                        const core::Pipeline& pipeline);
std::optional<core::Pipeline> load_pipeline_file(
    const std::string& path,
    std::optional<linalg::NumericsTier> expect_tier = std::nullopt,
    std::string* error = nullptr,
    const core::PipelineConfig* runtime = nullptr);

}  // namespace edgedrift::io
