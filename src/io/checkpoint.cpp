#include "edgedrift/io/checkpoint.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>

#include "edgedrift/io/binary.hpp"
#include "edgedrift/util/digest.hpp"

namespace edgedrift::io {
namespace {

constexpr std::string_view kSection = "edgedrift.pipeline";
constexpr std::string_view kDeltaSection = "edgedrift.delta";

void write_config(Writer& w, const core::PipelineConfig& config) {
  w.write_u64(config.num_labels);
  w.write_u64(config.input_dim);
  w.write_u64(config.hidden_dim);
  w.write_u32(static_cast<std::uint32_t>(config.activation));
  w.write_f64(config.weight_scale);
  w.write_f64(config.reg_lambda);
  w.write_f64(config.theta_error);
  w.write_f64(config.theta_error_z);
  w.write_f64(config.z);
  w.write_u64(config.window_size);
  w.write_f64(config.ewma_decay);
  w.write_u64(static_cast<std::uint64_t>(config.detector_initial_count));
  w.write_u64(config.reconstruction.n_search);
  w.write_u64(config.reconstruction.n_update);
  w.write_u64(config.reconstruction.n_total);
  w.write_u64(config.seed);
  w.write_u32(static_cast<std::uint32_t>(config.numerics));  // Format v2.
}

// Bytes write_config() writes: fifteen 8-byte fields and two u32s.
constexpr std::size_t kConfigBytes = 128;

bool read_config(Reader& r, core::PipelineConfig& config) {
  std::uint64_t u64 = 0;
  std::uint32_t u32 = 0;
  if (!r.read_u64(u64)) return false;
  config.num_labels = u64;
  if (!r.read_u64(u64)) return false;
  config.input_dim = u64;
  if (!r.read_u64(u64)) return false;
  config.hidden_dim = u64;
  if (!r.read_u32(u32) || u32 > 3) return false;
  config.activation = static_cast<oselm::Activation>(u32);
  if (!r.read_f64(config.weight_scale)) return false;
  if (!r.read_f64(config.reg_lambda)) return false;
  if (!r.read_f64(config.theta_error)) return false;
  if (!r.read_f64(config.theta_error_z)) return false;
  if (!r.read_f64(config.z)) return false;
  if (!r.read_u64(u64)) return false;
  config.window_size = u64;
  if (!r.read_f64(config.ewma_decay)) return false;
  if (!r.read_u64(u64)) return false;
  config.detector_initial_count = static_cast<long>(u64);
  if (!r.read_u64(u64)) return false;
  config.reconstruction.n_search = u64;
  if (!r.read_u64(u64)) return false;
  config.reconstruction.n_update = u64;
  if (!r.read_u64(u64)) return false;
  config.reconstruction.n_total = u64;
  if (!r.read_u64(u64)) return false;
  config.seed = u64;
  if (!r.read_u32(u32) ||
      u32 > static_cast<std::uint32_t>(linalg::NumericsTier::kQuantI8)) {
    return false;
  }
  config.numerics = static_cast<linalg::NumericsTier>(u32);
  return true;
}

// A checkpoint's config bytes may be corrupted; every field must be proven
// sane BEFORE core::Pipeline's constructor allocates from it or trips an
// assertion on it.
bool config_is_sane(const core::PipelineConfig& config) {
  constexpr std::size_t kMaxLabels = 1u << 12;
  constexpr std::size_t kMaxDim = 1u << 20;
  constexpr std::size_t kMaxHidden = 1u << 16;
  constexpr std::size_t kMaxCount = 1u << 30;
  if (config.num_labels == 0 || config.num_labels > kMaxLabels) return false;
  if (config.input_dim == 0 || config.input_dim > kMaxDim) return false;
  if (config.hidden_dim == 0 || config.hidden_dim > kMaxHidden) return false;
  if (config.window_size == 0 || config.window_size > kMaxCount) {
    return false;
  }
  if (!(config.reg_lambda > 0.0) || !std::isfinite(config.reg_lambda)) {
    return false;
  }
  if (!std::isfinite(config.weight_scale) || !std::isfinite(config.z) ||
      !std::isfinite(config.theta_error) ||
      !std::isfinite(config.theta_error_z)) {
    return false;
  }
  if (!(config.ewma_decay >= 0.0) || config.ewma_decay >= 1.0) return false;
  const auto& recon = config.reconstruction;
  if (recon.n_total == 0 || recon.n_total > kMaxCount) return false;
  if (recon.n_search > recon.n_update || recon.n_update > recon.n_total ||
      recon.n_update > recon.n_total / 2) {
    return false;
  }
  return true;
}

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

// Saturating arithmetic: a corrupt header cannot wrap a size computation
// around to a small value.
std::uint64_t mul_sat(std::uint64_t a, std::uint64_t b) {
  return a != 0 && b > kMaxU64 / a ? kMaxU64 : a * b;
}
std::uint64_t add_sat(std::uint64_t a, std::uint64_t b) {
  return b > kMaxU64 - a ? kMaxU64 : a + b;
}

// Bytes of the model section, which the config fixes: alpha, bias, the
// fingerprint, the instance count and C x (beta, P, samples seen), each
// block with its u64 length prefix(es).
std::uint64_t model_bytes(const core::PipelineConfig& config) {
  const std::uint64_t c = config.num_labels;
  const std::uint64_t d = config.input_dim;
  const std::uint64_t h = config.hidden_dim;
  const std::uint64_t hd = mul_sat(h, d);
  // Fixed u64 words: alpha dims, bias length, fingerprint, instance count.
  constexpr std::uint64_t kFixedWords = 5;
  // Per label: beta and P dims, samples seen, beta and P.
  const std::uint64_t per_label = add_sat(5, add_sat(hd, mul_sat(h, h)));
  const std::uint64_t words =
      add_sat(add_sat(kFixedWords, add_sat(hd, h)), mul_sat(c, per_label));
  return mul_sat(words, sizeof(std::uint64_t));
}

// Bytes of the detector block, which the config fixes: both centroid
// blocks, both count vectors and theta_drift.
std::uint64_t detector_bytes(const core::PipelineConfig& config) {
  // Fixed u64 words: both centroid blocks' dims, both count-vector lengths,
  // theta_drift. Per label: two counts and two centroid rows.
  constexpr std::uint64_t kFixedWords = 7;
  const std::uint64_t per_label = add_sat(2, mul_sat(2, config.input_dim));
  const std::uint64_t words =
      add_sat(kFixedWords, mul_sat(config.num_labels, per_label));
  return mul_sat(words, sizeof(std::uint64_t));
}

// What a blob's header says follows its config block.
enum class Layout {
  kFullV3,  ///< Model section, detector block.
  kFull,    ///< Model section, detector block, window words.
  kDelta,   ///< Template handle, detector block, window words.
};

// Algorithm 1's window: its open flag and its position.
constexpr std::uint64_t kWindowBytes = 2 * sizeof(std::uint64_t);

// Bytes between theta_error and the digest.
std::uint64_t state_bytes(const core::PipelineConfig& config, Layout layout) {
  const std::uint64_t detector = detector_bytes(config);
  if (layout == Layout::kDelta) {
    return add_sat(sizeof(std::uint64_t), add_sat(detector, kWindowBytes));
  }
  const std::uint64_t full = add_sat(model_bytes(config), detector);
  return layout == Layout::kFullV3 ? full : add_sat(full, kWindowBytes);
}

// The config fields that determine the model a blob builds: its shape, the
// projection's draw (activation, weight scale, seed), the ridge term a
// recovery resets to, and the scoring tier. Doubles compare by their bytes.
bool same_model_config(const core::PipelineConfig& a,
                       const core::PipelineConfig& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return a.num_labels == b.num_labels && a.input_dim == b.input_dim &&
         a.hidden_dim == b.hidden_dim && a.activation == b.activation &&
         bits(a.weight_scale) == bits(b.weight_scale) &&
         bits(a.reg_lambda) == bits(b.reg_lambda) && a.seed == b.seed &&
         a.numerics == b.numerics;
}

// Why a blob failed its digest. Other format versions seal blobs with other
// checksums, so a blob that carries this format's magic but names a version
// this build does not read is reported by that version.
std::string digest_failure(std::string_view blob) {
  Reader peek(blob);
  std::uint32_t magic = 0, version = 0;
  if (peek.read_u32(magic) && peek.read_u32(version) && magic == kMagic &&
      (version < kOldestReadableVersion || version > kFormatVersion)) {
    return "checkpoint format version " + std::to_string(version) +
           " is not supported: this build reads versions " +
           std::to_string(kOldestReadableVersion) + " to " +
           std::to_string(kFormatVersion) + " (re-save the checkpoint)";
  }
  return "checkpoint checksum mismatch (corrupt or truncated blob)";
}

void write_detector(Writer& w, const drift::CentroidDetector& detector) {
  w.write_matrix(detector.trained_centroids());
  w.write_matrix(detector.recent_centroids());
  w.write_sizes(detector.counts());
  w.write_sizes(detector.calibrated_counts());
  w.write_f64(detector.theta_drift());
  w.write_u64(detector.window_open() ? 1 : 0);
  w.write_u64(detector.window_position());
}

}  // namespace

bool save_pipeline(std::string& out, const core::Pipeline& pipeline,
                   const ModelTemplate* model_template) {
  // The format stores no reconstruction state (Algorithm 2's coordinates,
  // phase and count): a pipeline saved mid-recovery would load idle and
  // step differently, so it is refused.
  if (!pipeline.fitted() || pipeline.recovering()) return false;
  // The checkpoint format stores centroid-detector calibration; pipelines
  // configured with another detector kind have no serializable detector
  // state in this format.
  const drift::CentroidDetector* detector = pipeline.centroid_detector();
  if (detector == nullptr) return false;
  const bool delta = model_template != nullptr &&
                     &pipeline.model() == &model_template->pipeline.model();
  const Layout layout = delta ? Layout::kDelta : Layout::kFull;
  Writer w(out);
  w.write_header(delta ? kDeltaSection : kSection);
  write_config(w, pipeline.config());
  // The config fixes the size of the rest (theta_error, the state blocks,
  // the digest), so the buffer grows once.
  out.reserve(out.size() + sizeof(double) +
              state_bytes(pipeline.config(), layout) + sizeof(std::uint64_t));
  w.write_f64(pipeline.theta_error());
  if (delta) {
    w.write_u64(model_template->handle);
    write_detector(w, *detector);
    w.write_checksum();
    return true;
  }

  // Shared projection weights (for integrity verification at load time),
  // followed by the projection fingerprint — the digest the serving layer
  // keys coalescing groups on. Persisting it lets load verify that the
  // rebuilt projection hashes to the same identity the save-side stream
  // grouped under, so a restored stream rejoins exactly its old group.
  const auto& projection = *pipeline.model().projection();
  w.write_matrix(projection.alpha());
  w.write_doubles(projection.bias());
  w.write_u64(projection.fingerprint());

  // Per-label trained state: the label's block of the packed beta, its P
  // and its samples-seen count.
  const auto& model = pipeline.model();
  w.write_u64(model.num_labels());
  for (std::size_t c = 0; c < model.num_labels(); ++c) {
    w.write_columns(model.packed_beta(), c * model.input_dim(),
                    model.input_dim());
    w.write_matrix(model.p(c));
    w.write_u64(model.samples_seen(c));
  }
  write_detector(w, *detector);
  w.write_checksum();
  return true;
}

std::optional<core::Pipeline> load_pipeline(
    std::string_view blob, std::optional<linalg::NumericsTier> expect_tier,
    std::string* error, const core::PipelineConfig* runtime,
    const ModelTemplate* model_template) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  Reader r(blob);
  // Every byte is checked before any field is parsed or allocated from.
  if (!r.verify_checksum()) return fail(digest_failure(blob));
  std::uint32_t version = 0;
  std::string_view section;
  if (!r.read_header(version, section)) {
    return fail("bad checkpoint header (wrong magic or truncated)");
  }
  Layout layout;
  if (version == kFormatVersion && section == kDeltaSection) {
    layout = Layout::kDelta;
  } else if (version == kFormatVersion && section == kSection) {
    layout = Layout::kFull;
  } else if (version == kOldestReadableVersion && section == kSection) {
    layout = Layout::kFullV3;
  } else {
    return fail("bad checkpoint header (format version " +
                std::to_string(version) + " with section '" +
                std::string(section) + "')");
  }

  core::PipelineConfig config;
  double theta_error = 0.0;
  if (!read_config(r, config) || !r.read_f64(theta_error)) {
    return fail("truncated or corrupt checkpoint config block");
  }
  if (!config_is_sane(config) || !std::isfinite(theta_error)) {
    return fail("checkpoint config failed sanity bounds");
  }
  // Each field is bounded on its own, but their products size the
  // pipeline's allocations: prove the blob holds every block the config
  // declares before the Pipeline constructor allocates from it.
  const std::uint64_t declared = state_bytes(config, layout);
  if (declared > r.remaining()) {
    return fail("checkpoint holds " + std::to_string(r.remaining()) +
                " state bytes but its config declares " +
                std::to_string(declared));
  }
  if (expect_tier && *expect_tier != config.numerics) {
    return fail(std::string("checkpoint numerics tier is '") +
                linalg::tier_name(config.numerics) + "' but this restore "
                "site expects '" + linalg::tier_name(*expect_tier) +
                "' — tiers are part of the drift-decision contract and "
                "cannot be swapped on restore");
  }
  if (runtime != nullptr) {
    if (runtime->num_labels != config.num_labels ||
        runtime->input_dim != config.input_dim ||
        runtime->hidden_dim != config.hidden_dim) {
      return fail("runtime config shape (num_labels/input_dim/hidden_dim) "
                  "does not match the checkpoint");
    }
    if (runtime->detector.kind != drift::DetectorKind::kCentroid ||
        runtime->detector.factory) {
      return fail("runtime detector spec is not the centroid detector — "
                  "this checkpoint format only restores its state");
    }
  }
  if (layout == Layout::kDelta) {
    // The template must be the one the delta names, proven before the
    // pipeline is built on its model.
    std::uint64_t handle = 0;
    r.read_u64(handle);  // In bounds: the declared size is there.
    if (model_template == nullptr) {
      return fail("checkpoint is a template delta, but no template was "
                  "given to load it onto");
    }
    if (handle != model_template->handle) {
      return fail("template delta names another template (its handle does "
                  "not match the given template's)");
    }
    if (!same_model_config(config, model_template->pipeline.config())) {
      return fail("template delta's model config (shape, projection, "
                  "reg_lambda or numerics tier) differs from its template's");
    }
  }
  // Construct with the persisted effective gate so the rebuilt detector
  // carries it from the start.
  core::PipelineConfig effective = config;
  effective.theta_error = theta_error;
  if (runtime != nullptr) {
    // Runtime-only fields the checkpoint deliberately does not persist:
    // they describe the serving process, not the trained state.
    effective.detector = runtime->detector;
    effective.recovery = runtime->recovery;
    effective.reconstruction = runtime->reconstruction;
    effective.obs = runtime->obs;
    effective.max_batch_rows = runtime->max_batch_rows;
  }
  std::optional<core::Pipeline> pipeline;
  if (layout == Layout::kDelta) {
    pipeline.emplace(effective, model_template->pipeline);
  } else {
    pipeline.emplace(effective);

    // Verify projection integrity (same seed => identical weights).
    linalg::Matrix alpha;
    std::vector<double> bias;
    if (!r.read_matrix(alpha) || !r.read_doubles(bias)) {
      return fail("truncated projection block");
    }
    const auto& projection = *pipeline->model().projection();
    if (alpha.rows() != projection.alpha().rows() ||
        alpha.cols() != projection.alpha().cols() ||
        linalg::Matrix::max_abs_diff(alpha, projection.alpha()) != 0.0) {
      return fail("projection weights diverge from the persisted seed");
    }
    std::uint64_t fingerprint = 0;
    if (!r.read_u64(fingerprint)) {
      return fail("truncated projection fingerprint");
    }
    if (fingerprint != projection.fingerprint()) {
      return fail("projection fingerprint mismatch — the restored stream "
                  "would not rejoin its save-side coalescing group");
    }

    // Per-label states.
    std::uint64_t labels = 0;
    if (!r.read_u64(labels) || labels != config.num_labels) {
      return fail("instance count does not match the config's num_labels");
    }
    model::MultiInstanceModel& model = pipeline->model_mutable();
    linalg::Matrix beta;
    for (std::size_t c = 0; c < labels; ++c) {
      linalg::Matrix p;
      std::uint64_t seen = 0;
      if (!r.read_matrix(beta) || !r.read_matrix(p) || !r.read_u64(seen)) {
        return fail("truncated instance state");
      }
      if (beta.rows() != config.hidden_dim ||
          beta.cols() != config.input_dim || p.rows() != config.hidden_dim ||
          p.cols() != config.hidden_dim) {
        return fail("instance beta/P shape does not match the config");
      }
      model.restore_label(c, beta, std::move(p), seen);
    }
  }

  // Detector state.
  linalg::Matrix trained, recent;
  std::vector<std::size_t> counts, calibrated_counts;
  double theta_drift = 0.0;
  if (!r.read_matrix(trained) || !r.read_matrix(recent) ||
      !r.read_sizes(counts) || !r.read_sizes(calibrated_counts) ||
      !r.read_f64(theta_drift)) {
    return fail("truncated detector block");
  }
  if (trained.rows() != config.num_labels ||
      trained.cols() != config.input_dim ||
      recent.rows() != config.num_labels ||
      recent.cols() != config.input_dim ||
      counts.size() != config.num_labels ||
      calibrated_counts.size() != config.num_labels) {
    return fail("detector centroid/count shapes do not match the config");
  }
  // v3 stops before the window: it restores closed.
  drift::steps::Window window;
  if (layout != Layout::kFullV3) {
    std::uint64_t open = 0, pos = 0;
    if (!r.read_u64(open) || !r.read_u64(pos)) {
      return fail("truncated window words");
    }
    // A closed window may rest at any position up to W (a window that
    // closed keeps W); an open one is strictly inside.
    if (open > 1 || pos > config.window_size ||
        (open == 1 && pos == config.window_size)) {
      return fail("window words (open " + std::to_string(open) +
                  ", position " + std::to_string(pos) +
                  ") are outside a window of " +
                  std::to_string(config.window_size));
    }
    window = {open == 1, static_cast<std::size_t>(pos)};
  }
  if (r.remaining() != 0) {
    return fail("checkpoint has " + std::to_string(r.remaining()) +
                " unparsed bytes after the detector block");
  }
  // The restored config carries the default (centroid) detector spec, so
  // the rebuilt pipeline always has a centroid detector to restore into.
  pipeline->centroid_detector_mutable()->restore(
      trained, recent, counts, calibrated_counts, theta_drift, window);
  pipeline->finish_restore(theta_error);
  return pipeline;
}

std::optional<ModelTemplate> load_template(
    std::string_view blob, std::optional<linalg::NumericsTier> expect_tier,
    std::string* error, const core::PipelineConfig* runtime) {
  // Every check, and a delta fails here: no template is given to load it.
  std::optional<core::Pipeline> pipeline =
      load_pipeline(blob, expect_tier, error, runtime);
  if (!pipeline) return std::nullopt;
  // The handle digests the model section, which follows the header, the
  // config block and theta_error.
  Reader r(blob);
  std::uint32_t version = 0;
  std::string_view section, skipped, model;
  r.read_header(version, section);
  r.read_view(kConfigBytes + sizeof(double), skipped);
  r.read_view(model_bytes(pipeline->config()), model);
  return ModelTemplate{std::move(*pipeline),
                       util::digest64(model.data(), model.size())};
}

bool save_pipeline(std::ostream& out, const core::Pipeline& pipeline) {
  std::string blob;
  if (!save_pipeline(blob, pipeline)) return false;
  return static_cast<bool>(
      out.write(blob.data(), static_cast<std::streamsize>(blob.size())));
}

std::optional<core::Pipeline> load_pipeline(
    std::istream& in, std::optional<linalg::NumericsTier> expect_tier,
    std::string* error, const core::PipelineConfig* runtime) {
  std::string blob;
  char chunk[1 << 14];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    blob.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) {
    if (error != nullptr) *error = "checkpoint stream read failed";
    return std::nullopt;
  }
  return load_pipeline(blob, expect_tier, error, runtime);
}

bool save_pipeline_file(const std::string& path,
                        const core::Pipeline& pipeline) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  return save_pipeline(out, pipeline);
}

std::optional<core::Pipeline> load_pipeline_file(
    const std::string& path, std::optional<linalg::NumericsTier> expect_tier,
    std::string* error, const core::PipelineConfig* runtime) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return load_pipeline(in, expect_tier, error, runtime);
}

}  // namespace edgedrift::io
