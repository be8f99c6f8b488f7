// Pipeline checkpointing: persist a fitted edgedrift::core::Pipeline (model
// weights, detector calibration, thresholds) and restore it elsewhere.
//
// Use case: the initial batch training (which needs the Cholesky solve and
// the full training window) runs on a gateway-class machine; the resulting
// state blob — a few tens of kB for the paper's configurations — is shipped
// to the microcontroller, which then runs the fully sequential part only.
// The serving layer's cold store keeps evicted streams as the same blobs,
// or as template deltas (below).
//
// A full checkpoint (format v4, io/binary.hpp) stores the full
// PipelineConfig, the shared projection weights, every label's (beta, P)
// pair, the detector's centroid state and Algorithm 1's window: its open
// flag and position, so a stream saved mid-window resumes that window
// where it stopped. Loading verifies the trailing digest over the whole
// blob before it parses anything, proves the blob holds every block its
// config declares before it allocates the pipeline, and verifies the
// projection weights bit-for-bit (they are re-drawn from the persisted
// seed, so any mismatch indicates a version or RNG change and the load
// fails cleanly). v3 blobs, which stop before the window, still load, with
// the window closed.
//
// The core API works on byte buffers: save_pipeline appends to a
// std::string and load_pipeline parses a std::string_view, with no stream
// in between. The std::ostream / std::istream overloads and the file
// functions are thin adapters over it.
//
// Template deltas: load_template() loads a full blob as a ModelTemplate
// and digests that blob's model section once, into the template's handle.
// Given the template, save_pipeline writes a pipeline whose model *is* the
// template's model object as a delta: the header (section
// "edgedrift.delta"), the config block and theta_error, the handle, the
// detector block and the window words, about 1.5 KB at C=2, D=38 against
// 29.6 KB for the full blob. Loading a delta needs the template whose
// handle and model-determining config fields (shape, activation, weight
// scale, reg_lambda, seed, numerics tier) it names; without it the load
// fails with a reason before anything is allocated. The restored pipeline
// scores the template's model: no projection is drawn, and no model is
// built, parsed or requantized. It copies the model before its first
// write (core/pipeline.hpp), after which it saves full blobs again. A
// full blob always builds its own model.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/linalg/numerics.hpp"

namespace edgedrift::io {

/// The pipeline load_template() built from a full checkpoint, whose model
/// template deltas name, and that model's handle (see the header comment).
/// Holding it keeps the model alive, and since the template pipeline is one
/// of its owners, every pipeline loaded onto it copies the model before
/// writing, so the template is never written in place.
struct ModelTemplate {
  core::Pipeline pipeline;
  /// util::digest64 of the template blob's model section.
  std::uint64_t handle = 0;
};

/// Appends a checkpoint of a fitted pipeline to `out`: a template delta when
/// `model_template` is given and the pipeline's model is that template's
/// model object, a full blob otherwise. Returns false, and appends nothing,
/// when the pipeline is not fitted, is recovering (recovering() true: the
/// format stores no reconstruction state, so the loaded pipeline would
/// resume idle and step differently), or its detector is not the centroid
/// family. The checkpoint records the pipeline's active NumericsTier: the
/// tier is part of the drift-decision contract, so a restore site must get
/// the tier it expects or fail loudly.
bool save_pipeline(std::string& out, const core::Pipeline& pipeline,
                   const ModelTemplate* model_template = nullptr);

/// Loads a full blob through load_pipeline, with every check and the same
/// arguments, and keeps the result as a template with its handle. nullopt
/// (and `error`) as load_pipeline, and for a delta.
std::optional<ModelTemplate> load_template(
    std::string_view blob,
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
/// `model_template` is the template a delta names; a full blob ignores it.
/// A delta loaded without it, or with a template of another handle or
/// model config, fails with a reason. The restored pipeline steps bit for
/// bit as one loaded from the full blob its source would save. The
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
