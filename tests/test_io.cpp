// Tests for binary serialization and pipeline checkpointing, including
// loads that share a template's model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/io/binary.hpp"
#include "edgedrift/io/checkpoint.hpp"
#include "edgedrift/linalg/numerics.hpp"
#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/util/digest.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::core::Pipeline;
using edgedrift::core::PipelineConfig;
using edgedrift::io::ModelTemplate;
using edgedrift::io::Reader;
using edgedrift::io::Writer;
using edgedrift::linalg::Matrix;
using edgedrift::util::Rng;

TEST(Binary, PrimitiveRoundTrip) {
  std::string buffer;
  Writer w(buffer);
  w.write_u32(0xdeadbeef);
  w.write_u64(1234567890123ull);
  w.write_f64(-3.25);
  w.write_string("edge");
  ASSERT_TRUE(w.ok());

  Reader r(buffer);
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double f = 0.0;
  std::string s;
  EXPECT_TRUE(r.read_u32(u32));
  EXPECT_TRUE(r.read_u64(u64));
  EXPECT_TRUE(r.read_f64(f));
  EXPECT_TRUE(r.read_string(s));
  EXPECT_EQ(u32, 0xdeadbeef);
  EXPECT_EQ(u64, 1234567890123ull);
  EXPECT_DOUBLE_EQ(f, -3.25);
  EXPECT_EQ(s, "edge");
}

TEST(Binary, MatrixAndVectorRoundTrip) {
  Rng rng(1);
  const Matrix m = Matrix::random_gaussian(5, 7, rng);
  std::vector<double> v{1.5, -2.5, 3.5};
  std::vector<std::size_t> sizes{9, 0, 42};

  std::string buffer;
  Writer w(buffer);
  w.write_matrix(m);
  w.write_doubles(v);
  w.write_sizes(sizes);
  ASSERT_TRUE(w.ok());

  Reader r(buffer);
  Matrix m2;
  std::vector<double> v2;
  std::vector<std::size_t> sizes2;
  EXPECT_TRUE(r.read_matrix(m2));
  EXPECT_TRUE(r.read_doubles(v2));
  EXPECT_TRUE(r.read_sizes(sizes2));
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(m, m2), 0.0);
  EXPECT_EQ(v, v2);
  EXPECT_EQ(sizes, sizes2);
}

TEST(Binary, HeaderRejectsWrongSection) {
  std::string buffer;
  Writer w(buffer);
  w.write_header("alpha");
  Reader r(buffer);
  EXPECT_FALSE(r.read_header("beta"));
  EXPECT_FALSE(r.ok());
}

TEST(Binary, TruncatedStreamFailsLatching) {
  std::string buffer;
  Writer w(buffer);
  w.write_u32(5);
  Reader r(buffer);
  std::uint64_t u64 = 0;
  EXPECT_FALSE(r.read_u64(u64));  // Only 4 bytes available.
  std::uint32_t u32 = 0;
  EXPECT_FALSE(r.read_u32(u32));  // Failure latches.
}

TEST(Binary, CorruptLengthPrefixRejected) {
  std::string buffer;
  Writer w(buffer);
  w.write_u64(~0ull);  // Absurd element count.
  Reader r(buffer);
  std::vector<double> v;
  EXPECT_FALSE(r.read_doubles(v));
}

TEST(Binary, ChecksumCoversEveryByte) {
  std::string buffer;
  Writer w(buffer);
  w.write_header("alpha");
  w.write_f64(2.5);
  w.write_checksum();

  Reader r(buffer);
  ASSERT_TRUE(r.verify_checksum());
  EXPECT_TRUE(r.read_header("alpha"));
  double f = 0.0;
  EXPECT_TRUE(r.read_f64(f));
  EXPECT_EQ(r.remaining(), 0u);  // The digest is not readable payload.

  for (std::size_t pos = 0; pos < buffer.size(); ++pos) {
    std::string corrupted = buffer;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x01);
    EXPECT_FALSE(Reader(corrupted).verify_checksum()) << "byte " << pos;
  }
  EXPECT_FALSE(Reader(std::string_view(buffer).substr(0, 7)).verify_checksum());
}

// ------------------------------------------------------------- checkpoints

struct Scenario {
  edgedrift::data::Dataset train;
  edgedrift::data::Dataset stream;
};

Scenario make_scenario(Rng& rng) {
  edgedrift::data::GaussianClass a;
  a.mean.assign(6, 0.25);
  a.stddev = {0.1};
  edgedrift::data::GaussianClass b;
  b.mean.assign(6, 0.75);
  b.stddev = {0.1};
  edgedrift::data::GaussianConcept concept_ab({a, b});
  Scenario s;
  s.train = edgedrift::data::draw(concept_ab, 300, rng);
  s.stream = edgedrift::data::draw(concept_ab, 200, rng);
  return s;
}

PipelineConfig small_config() {
  PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = 6;
  config.hidden_dim = 4;
  config.window_size = 20;
  config.seed = 99;
  return config;
}

TEST(Checkpoint, RoundTripPreservesPredictions) {
  Rng rng(2);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  std::stringstream buffer;
  ASSERT_TRUE(edgedrift::io::save_pipeline(buffer, original));
  auto restored = edgedrift::io::load_pipeline(buffer);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->fitted());
  EXPECT_DOUBLE_EQ(restored->theta_error(), original.theta_error());
  EXPECT_DOUBLE_EQ(restored->centroid_detector()->theta_drift(),
                   original.centroid_detector()->theta_drift());

  // Every prediction and score must be bit-identical.
  edgedrift::model::BatchWorkspace ws;
  for (std::size_t i = 0; i < scenario.stream.size(); ++i) {
    const auto a = original.model().predict(scenario.stream.x.row(i), ws);
    const auto b = restored->model().predict(scenario.stream.x.row(i), ws);
    EXPECT_EQ(a.label, b.label);
    EXPECT_DOUBLE_EQ(a.score, b.score);
  }
}

// A detector built by the spec's factory streams, but the format holds only
// the centroid detector's state: save refuses such a pipeline, and a load
// whose runtime spec sets a factory or names another kind fails.
TEST(Checkpoint, FactoryDetectorIsNeitherSavedNorLoaded) {
  Rng rng(4);
  auto scenario = make_scenario(rng);
  PipelineConfig factory_config = small_config();
  factory_config.detector.factory =
      [](const edgedrift::drift::CentroidDetectorConfig& base) {
        return std::make_unique<edgedrift::drift::CentroidDetector>(base);
      };
  Pipeline built_outside(factory_config);
  built_outside.fit(scenario.train.x, scenario.train.labels);
  EXPECT_EQ(built_outside.centroid_detector(), nullptr);
  std::string blob;
  EXPECT_FALSE(edgedrift::io::save_pipeline(blob, built_outside));

  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);
  ASSERT_TRUE(edgedrift::io::save_pipeline(blob, original));
  PipelineConfig multi_window = small_config();
  multi_window.detector.kind = edgedrift::drift::DetectorKind::kMultiWindow;
  for (const PipelineConfig* runtime : {&factory_config, &multi_window}) {
    std::string error;
    EXPECT_FALSE(edgedrift::io::load_pipeline(blob, std::nullopt, &error,
                                              runtime)
                     .has_value());
    EXPECT_NE(error.find("centroid detector"), std::string::npos) << error;
  }
  EXPECT_TRUE(edgedrift::io::load_pipeline(blob).has_value());
}

TEST(Checkpoint, RestoredPipelineKeepsStreamingIdentically) {
  Rng rng(3);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  std::stringstream buffer;
  ASSERT_TRUE(edgedrift::io::save_pipeline(buffer, original));
  auto restored = edgedrift::io::load_pipeline(buffer);
  ASSERT_TRUE(restored.has_value());

  // Process the same stream through both; outcomes must agree sample by
  // sample (both start from the same persisted detector state).
  for (std::size_t i = 0; i < scenario.stream.size(); ++i) {
    const auto a = original.process(scenario.stream.x.row(i));
    const auto b = restored->process(scenario.stream.x.row(i));
    EXPECT_EQ(a.prediction.label, b.prediction.label);
    EXPECT_EQ(a.drift_detected, b.drift_detected);
    EXPECT_DOUBLE_EQ(a.statistic, b.statistic);
  }
}

TEST(Checkpoint, UnfittedPipelineRefusesToSave) {
  Pipeline pipeline(small_config());
  std::stringstream buffer;
  EXPECT_FALSE(edgedrift::io::save_pipeline(buffer, pipeline));
}

// The format stores no reconstruction state, so a pipeline mid-recovery is
// refused instead of saved as if idle. The stream is the StaticPipelineNsl
// one (seed 71): saved 50 rows into its reconstruction, such a blob loaded
// idle and stepped differently on 310 of the next 2,050 rows. Once the
// reconstruction finishes, the pipeline saves again and its copy steps
// like it.
TEST(Checkpoint, RecoveringPipelineRefusesToSave) {
  edgedrift::data::NslKddLikeConfig data_config;
  data_config.train_size = 800;
  data_config.test_size = 4000;
  data_config.drift_point = 1500;
  edgedrift::data::NslKddLike generator(data_config);
  Rng rng(71);
  const edgedrift::data::Dataset train = generator.training(rng);
  const edgedrift::data::Dataset stream = generator.test_stream(rng);

  PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = 38;
  config.hidden_dim = 22;
  config.window_size = 100;
  config.detector_initial_count = 0;
  config.theta_error_z = 4.0;
  config.reconstruction = {20, 120, 500};
  Pipeline pipeline(config);
  pipeline.fit(train.x, train.labels);

  std::size_t row = 0;
  while (!pipeline.recovering() && row < stream.size()) {
    pipeline.process(stream.x.row(row++));
  }
  ASSERT_TRUE(pipeline.recovering()) << "the drift must be detected";
  for (std::size_t i = 0; i < 50; ++i) pipeline.process(stream.x.row(row++));
  ASSERT_TRUE(pipeline.recovering());

  std::string out = "kept";
  EXPECT_FALSE(edgedrift::io::save_pipeline(out, pipeline));
  EXPECT_TRUE(out == "kept") << "a refused save must append nothing";
  std::stringstream buffer;
  EXPECT_FALSE(edgedrift::io::save_pipeline(buffer, pipeline));
  EXPECT_TRUE(buffer.str().empty());

  while (pipeline.recovering() && row < stream.size()) {
    pipeline.process(stream.x.row(row++));
  }
  ASSERT_FALSE(pipeline.recovering()) << "the reconstruction must finish";
  std::string blob;
  ASSERT_TRUE(edgedrift::io::save_pipeline(blob, pipeline));
  std::optional<Pipeline> restored = edgedrift::io::load_pipeline(blob);
  ASSERT_TRUE(restored.has_value());
  for (std::size_t end = std::min(row + 500, stream.size()); row < end;
       ++row) {
    const auto a = pipeline.process(stream.x.row(row));
    const auto b = restored->process(stream.x.row(row));
    ASSERT_EQ(a.prediction.label, b.prediction.label) << "row " << row;
    ASSERT_EQ(a.drift_detected, b.drift_detected) << "row " << row;
    ASSERT_EQ(a.reconstructing, b.reconstructing) << "row " << row;
  }
}

TEST(Checkpoint, CorruptedBlobRejected) {
  Rng rng(4);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  std::stringstream buffer;
  ASSERT_TRUE(edgedrift::io::save_pipeline(buffer, original));
  std::string blob = buffer.str();
  // Flip a byte inside the projection-weight block.
  blob[blob.size() / 2] ^= 0x40;
  std::stringstream corrupted(blob);
  EXPECT_FALSE(edgedrift::io::load_pipeline(corrupted).has_value());
}

TEST(Checkpoint, TruncatedBlobRejected) {
  Rng rng(5);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  std::stringstream buffer;
  ASSERT_TRUE(edgedrift::io::save_pipeline(buffer, original));
  const std::string blob = buffer.str();
  std::stringstream truncated(blob.substr(0, blob.size() / 3));
  EXPECT_FALSE(edgedrift::io::load_pipeline(truncated).has_value());
}

TEST(Checkpoint, FileRoundTrip) {
  Rng rng(6);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  const std::string path = "/tmp/edgedrift_checkpoint_test.bin";
  ASSERT_TRUE(edgedrift::io::save_pipeline_file(path, original));
  auto restored = edgedrift::io::load_pipeline_file(path);
  ASSERT_TRUE(restored.has_value());
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileReturnsNullopt) {
  EXPECT_FALSE(edgedrift::io::load_pipeline_file(
                   "/tmp/definitely_missing_checkpoint.bin")
                   .has_value());
}

/// A fitted small-config pipeline's full blob, its template, and a delta of
/// the template's pipeline: the blobs the format tests run over.
struct Blobs {
  std::string full;
  std::optional<ModelTemplate> shared;
  std::string delta;
};

Blobs fitted_blobs(std::uint64_t seed) {
  Rng rng(seed);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);
  Blobs b;
  EXPECT_TRUE(edgedrift::io::save_pipeline(b.full, original));
  b.shared = edgedrift::io::load_template(b.full);
  EXPECT_TRUE(b.shared.has_value());
  EXPECT_TRUE(edgedrift::io::save_pipeline(b.delta, b.shared->pipeline,
                                           &*b.shared));
  EXPECT_LT(b.delta.size(), b.full.size());
  return b;
}

/// The committed checkpoint v3 blob: small_config() fitted on
/// make_scenario(Rng(14)) and saved 38 stream rows later, at position 7 of
/// an open window, by the v3 code.
std::string golden_v3() {
  std::ifstream in(std::string(EDGEDRIFT_TEST_DIR) +
                       "/golden/checkpoint_v3_open_window.bin",
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing tests/golden/checkpoint_v3_open_window.bin";
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Checkpoint, EveryTruncationPointFailsCleanly) {
  // Fuzz: a checkpoint cut at ANY byte offset must be rejected without
  // crashing, and the rejection must say why: a full blob with and without
  // a template (sharing a model must not skip a check), a delta with its
  // template, and a v3 blob.
  const Blobs b = fitted_blobs(7);
  const std::string v3 = golden_v3();
  const struct {
    const std::string* blob;
    const ModelTemplate* model_template;
  } cases[] = {{&b.full, &*b.shared},
               {&b.full, nullptr},
               {&b.delta, &*b.shared},
               {&v3, nullptr}};
  for (const auto& c : cases) {
    for (std::size_t cut = 0; cut < c.blob->size(); ++cut) {
      std::string error;
      EXPECT_FALSE(edgedrift::io::load_pipeline(
                       std::string_view(*c.blob).substr(0, cut), std::nullopt,
                       &error, nullptr, c.model_template)
                       .has_value())
          << "accepted a blob truncated at byte " << cut;
      EXPECT_FALSE(error.empty()) << "no reason for the cut at byte " << cut;
    }
  }
}

TEST(Checkpoint, RandomSingleByteCorruptionIsAlwaysRejected) {
  // Fuzz: flipping any single bit of any byte must trip either a
  // structural check or the trailing digest. Exhaustive over a full blob,
  // with and without a template, and over a delta with its template.
  const Blobs b = fitted_blobs(8);
  const struct {
    const std::string* blob;
    const ModelTemplate* model_template;
  } cases[] = {{&b.full, &*b.shared}, {&b.full, nullptr},
               {&b.delta, &*b.shared}};
  for (const auto& c : cases) {
    const std::string& blob = *c.blob;
    std::string corrupted = blob;
    for (std::size_t pos = 0; pos < blob.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        corrupted[pos] = static_cast<char>(blob[pos] ^ (1 << bit));
        EXPECT_FALSE(edgedrift::io::load_pipeline(corrupted, std::nullopt,
                                                  nullptr, nullptr,
                                                  c.model_template)
                         .has_value())
            << "accepted a blob with byte " << pos << " bit " << bit
            << " flipped";
      }
      corrupted[pos] = blob[pos];
    }
  }
}

// Replaces a blob's trailing digest with the digest of its current bytes,
// so a deliberately edited field reaches the parser.
void reseal(std::string& blob) {
  const std::uint64_t digest =
      edgedrift::util::digest64(blob.data(), blob.size() - sizeof(digest));
  std::memcpy(blob.data() + blob.size() - sizeof(digest), &digest,
              sizeof(digest));
}

TEST(Checkpoint, HeaderDeclaringMoreThanTheBlobHoldsIsRejected) {
  // input_dim = 2^20 and hidden_dim = 2^16 each pass their own bound, but
  // their product would size a 512 GiB projection: the load must fail
  // with a reason instead of allocating it.
  Rng rng(9);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  std::string saved;
  ASSERT_TRUE(edgedrift::io::save_pipeline(saved, original));

  std::string huge = saved;
  const std::string_view section = "edgedrift.pipeline";
  const std::size_t config_at = huge.find(section) + section.size();
  const std::uint64_t input_dim = 1ull << 20;
  const std::uint64_t hidden_dim = 1ull << 16;
  std::memcpy(huge.data() + config_at + 8, &input_dim, sizeof(input_dim));
  std::memcpy(huge.data() + config_at + 16, &hidden_dim, sizeof(hidden_dim));
  reseal(huge);

  // The declared size is exact: one byte short is rejected too.
  std::string short_by_one = saved;
  short_by_one.erase(short_by_one.size() - sizeof(std::uint64_t) - 1, 1);
  reseal(short_by_one);

  for (const std::string& blob : {huge, short_by_one}) {
    std::string error;
    EXPECT_FALSE(
        edgedrift::io::load_pipeline(blob, std::nullopt, &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_NE(error.find("declares"), std::string::npos) << error;
  }
}

TEST(Checkpoint, OtherFormatVersionIsRejectedByVersion) {
  Rng rng(10);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  std::string blob;
  ASSERT_TRUE(edgedrift::io::save_pipeline(blob, original));
  const std::uint32_t v2 = 2;
  std::memcpy(blob.data() + sizeof(edgedrift::io::kMagic), &v2, sizeof(v2));

  std::string error;
  EXPECT_FALSE(
      edgedrift::io::load_pipeline(blob, std::nullopt, &error).has_value());
  EXPECT_NE(error.find("version 2"), std::string::npos) << error;
}

TEST(Checkpoint, StreamAdaptersMatchTheBufferCore) {
  // The stream overloads write and read exactly the buffer core's bytes.
  Rng rng(11);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  std::string blob;
  ASSERT_TRUE(edgedrift::io::save_pipeline(blob, original));
  std::stringstream stream;
  ASSERT_TRUE(edgedrift::io::save_pipeline(stream, original));
  EXPECT_EQ(stream.str(), blob);

  EXPECT_TRUE(edgedrift::io::load_pipeline(stream).has_value());
}

// ------------------------------------------------------------ v4 bytes

/// The digest of a whole blob, its trailing checksum included.
std::uint64_t blob_digest(const std::string& blob) {
  return edgedrift::util::digest64(blob.data(), blob.size());
}

// Checkpoint v4's bytes are part of its contract: a delta names its model by
// the digest of the template blob's model section (io/checkpoint.hpp), so a
// layout slip in the save path would orphan every delta saved before it.
// Three fixed pipelines must save to the recorded full blobs: f64 fitted,
// f64 after one completed reconstruction, and i8 fitted; and the f64 fitted
// template's pipeline to the recorded delta. The digests pin
// portable-backend numbers, so the test is exact there and skips on the
// native backends, as GoldenReplay does.
TEST(Checkpoint, V4BytesArePinned) {
  if (std::strcmp(edgedrift::linalg::simd::kLevelName, "portable") != 0) {
    GTEST_SKIP() << "blob digests are pinned on the portable backend";
  }
  constexpr std::uint64_t kFittedF64 = 0x67902fd106a84b45;
  constexpr std::uint64_t kReconstructedF64 = 0x5d19eebf38469d14;
  constexpr std::uint64_t kFittedI8 = 0x8b72f8d6798553f7;
  constexpr std::uint64_t kDeltaF64 = 0xdfc93d57533d68ce;
  const auto hex = [](std::uint64_t v) {
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
  };

  for (const auto tier : {edgedrift::linalg::NumericsTier::kExactF64,
                          edgedrift::linalg::NumericsTier::kQuantI8}) {
    Rng rng(13);
    auto scenario = make_scenario(rng);
    PipelineConfig config = small_config();
    config.numerics = tier;
    Pipeline fitted(config);
    fitted.fit(scenario.train.x, scenario.train.labels);
    std::string blob;
    ASSERT_TRUE(edgedrift::io::save_pipeline(blob, fitted));
    const bool f64 = tier == edgedrift::linalg::NumericsTier::kExactF64;
    EXPECT_EQ(hex(blob_digest(blob)), hex(f64 ? kFittedF64 : kFittedI8))
        << edgedrift::linalg::tier_name(tier) << " fitted";
    if (!f64) continue;
    const std::optional<ModelTemplate> shared =
        edgedrift::io::load_template(blob);
    ASSERT_TRUE(shared.has_value());
    std::string delta;
    ASSERT_TRUE(
        edgedrift::io::save_pipeline(delta, shared->pipeline, &*shared));
    EXPECT_EQ(hex(blob_digest(delta)), hex(kDeltaF64)) << "f64 delta";
  }

  // The StaticPipelineNsl stream: drift at row 1500, recovered by row 2100.
  edgedrift::data::NslKddLikeConfig data_config;
  data_config.train_size = 800;
  data_config.test_size = 4000;
  data_config.drift_point = 1500;
  edgedrift::data::NslKddLike generator(data_config);
  Rng rng(71);
  const edgedrift::data::Dataset train = generator.training(rng);
  const edgedrift::data::Dataset stream = generator.test_stream(rng);
  PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = 38;
  config.hidden_dim = 22;
  config.window_size = 100;
  config.detector_initial_count = 0;
  config.theta_error_z = 4.0;
  config.reconstruction = {20, 120, 500};
  Pipeline pipeline(config);
  pipeline.fit(train.x, train.labels);
  bool finished = false;
  for (std::size_t i = 0; i < stream.size() && !finished; ++i) {
    finished = pipeline.process(stream.x.row(i)).reconstruction_finished;
  }
  ASSERT_TRUE(finished) << "the drift must be detected and recovered";
  std::string blob;
  ASSERT_TRUE(edgedrift::io::save_pipeline(blob, pipeline));
  EXPECT_EQ(hex(blob_digest(blob)), hex(kReconstructedF64))
      << "f64 after a reconstruction";
}

// A v3 blob, saved by the v3 code mid-window, still loads: with every
// block it stores, and with the window it does not store closed. Saved
// again it is a v4 blob of the same bytes, with the version word raised,
// two zero window words added, and the config's theta_error set to the
// persisted gate (every loaded pipeline carries the effective gate in its
// config).
TEST(Checkpoint, V3GoldenBlobLoadsWithTheWindowClosed) {
  const std::string v3 = golden_v3();
  ASSERT_FALSE(v3.empty());
  std::string error;
  const std::optional<Pipeline> loaded =
      edgedrift::io::load_pipeline(v3, std::nullopt, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const auto* detector = loaded->centroid_detector();
  ASSERT_NE(detector, nullptr);
  EXPECT_FALSE(detector->window_open());
  EXPECT_EQ(detector->window_position(), 0u);

  std::string expected = v3;
  const std::uint32_t v4 = edgedrift::io::kFormatVersion;
  std::memcpy(expected.data() + sizeof(edgedrift::io::kMagic), &v4,
              sizeof(v4));
  const std::string_view section = "edgedrift.pipeline";
  const std::size_t config_at = expected.find(section) + section.size();
  // The config block's theta_error field, and the persisted gate after the
  // 128-byte block.
  std::memcpy(expected.data() + config_at + 44, v3.data() + config_at + 128,
              sizeof(double));
  expected.insert(expected.size() - sizeof(std::uint64_t),
                  2 * sizeof(std::uint64_t), '\0');
  reseal(expected);
  std::string resaved;
  ASSERT_TRUE(edgedrift::io::save_pipeline(resaved, *loaded));
  EXPECT_EQ(resaved, expected);
}

// A delta loads only onto the template it names: with no template, or with
// the template of a pipeline fitted under another seed, it fails with a
// reason.
TEST(Checkpoint, DeltaWithoutItsTemplateFailsWithAReason) {
  const Blobs b = fitted_blobs(15);
  Rng rng(15);
  auto scenario = make_scenario(rng);
  PipelineConfig other_config = small_config();
  other_config.seed = small_config().seed + 1;
  Pipeline other(other_config);
  other.fit(scenario.train.x, scenario.train.labels);
  std::string other_blob;
  ASSERT_TRUE(edgedrift::io::save_pipeline(other_blob, other));
  const std::optional<ModelTemplate> other_template =
      edgedrift::io::load_template(other_blob);
  ASSERT_TRUE(other_template.has_value());
  ASSERT_NE(other_template->handle, b.shared->handle);

  for (const ModelTemplate* model_template :
       {static_cast<const ModelTemplate*>(nullptr), &*other_template}) {
    std::string error;
    EXPECT_FALSE(edgedrift::io::load_pipeline(b.delta, std::nullopt, &error,
                                              nullptr, model_template)
                     .has_value());
    EXPECT_FALSE(error.empty());
  }
  // Nor is a delta a template.
  std::string error;
  EXPECT_FALSE(edgedrift::io::load_template(b.delta, std::nullopt, &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(edgedrift::io::load_pipeline(b.delta, std::nullopt, nullptr,
                                           nullptr, &*b.shared)
                  .has_value());
}

// A structure-aware mutator over v3, v4 and delta blobs. It walks each
// blob's layout to find its structural words (config dims and counts,
// length prefixes, label and sample counts, the fingerprint, the handle
// and the window words), overwrites one or two of them with edge values,
// and reseals the digest so that every mutation reaches the parser. Each
// load must fail with a reason, or return a pipeline that steps without
// tripping an assertion. Seeded, with a fixed iteration budget.
TEST(Checkpoint, StructureAwareMutationsFailCleanlyOrStep) {
  constexpr std::size_t kIterations = 3000;
  constexpr std::size_t kRows = 48;
  constexpr std::size_t w = sizeof(std::uint64_t);
  const Blobs b = fitted_blobs(16);
  const PipelineConfig config = small_config();
  const std::size_t c = config.num_labels, d = config.input_dim,
                    h = config.hidden_dim;

  // Offsets of a blob's structural u64 words.
  const auto words = [&](const std::string& blob, std::string_view section,
                         bool model, bool window) {
    const std::size_t config_at = blob.find(section) + section.size();
    std::vector<std::size_t> at;
    for (const std::size_t field : {0, 1, 2}) at.push_back(config_at + field * w);
    // window_size, detector_initial_count, n_search, n_update, n_total.
    for (const std::size_t off : {68, 84, 92, 100, 108}) {
      at.push_back(config_at + off);
    }
    std::size_t pos = config_at + 128 + w;  // After theta_error.
    const auto matrix = [&](std::size_t rows, std::size_t cols) {
      at.push_back(pos);
      at.push_back(pos + w);
      pos += (2 + rows * cols) * w;
    };
    const auto sizes = [&](std::size_t n) {
      for (std::size_t k = 0; k <= n; ++k) at.push_back(pos + k * w);
      pos += (1 + n) * w;
    };
    if (model) {
      matrix(d, h);                     // alpha
      at.push_back(pos);                // bias length
      pos += (1 + h) * w;
      at.push_back(pos);                // fingerprint
      at.push_back(pos + w);            // instance count
      pos += 2 * w;
      for (std::size_t k = 0; k < c; ++k) {
        matrix(h, d);                   // beta
        matrix(h, h);                   // P
        at.push_back(pos);              // samples seen
        pos += w;
      }
    } else {
      at.push_back(pos);                // handle
      pos += w;
    }
    matrix(c, d);                       // trained
    matrix(c, d);                       // recent
    sizes(c);                           // counts
    sizes(c);                           // calibrated counts
    pos += w;                           // theta_drift
    if (window) {
      at.push_back(pos);
      at.push_back(pos + w);
      pos += 2 * w;
    }
    EXPECT_EQ(pos + w, blob.size()) << "layout walk out of step";
    return at;
  };
  const std::string v3 = golden_v3();
  const struct {
    const char* name;
    const std::string* blob;
    std::vector<std::size_t> at;
  } kinds[] = {
      {"v3", &v3, words(v3, "edgedrift.pipeline", true, false)},
      {"v4", &b.full, words(b.full, "edgedrift.pipeline", true, true)},
      {"delta", &b.delta, words(b.delta, "edgedrift.delta", false, true)},
  };

  Rng rng(16);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform() * static_cast<double>(n)) %
           n;
  };
  std::size_t loaded = 0, rejected = 0;
  for (std::size_t it = 0; it < kIterations; ++it) {
    const auto& kind = kinds[it % 3];
    std::string blob = *kind.blob;
    const std::size_t edits = 1 + pick(2);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t at = kind.at[pick(kind.at.size())];
      std::uint64_t v = 0;
      std::memcpy(&v, blob.data() + at, w);
      const std::uint64_t other_word = [&] {
        std::uint64_t o = 0;
        std::memcpy(&o, blob.data() + kind.at[pick(kind.at.size())], w);
        return o;
      }();
      const std::uint64_t values[] = {0,
                                      1,
                                      2,
                                      v - 1,
                                      v + 1,
                                      v * 2,
                                      v / 2,
                                      config.window_size,
                                      config.window_size - 1,
                                      1ull << pick(64),
                                      ~0ull,
                                      ~0ull / w + 1,
                                      other_word,
                                      static_cast<std::uint64_t>(
                                          rng.uniform() * 1e18)};
      v = values[pick(std::size(values))];
      std::memcpy(blob.data() + at, &v, w);
    }
    reseal(blob);
    for (const ModelTemplate* model_template :
         {static_cast<const ModelTemplate*>(nullptr), &*b.shared}) {
      std::string error;
      std::optional<Pipeline> pipeline = edgedrift::io::load_pipeline(
          blob, std::nullopt, &error, nullptr, model_template);
      if (!pipeline) {
        EXPECT_FALSE(error.empty()) << kind.name << " iteration " << it;
        ++rejected;
        continue;
      }
      ++loaded;
      const Matrix rows = Matrix::random_gaussian(
          kRows, pipeline->config().input_dim, rng);
      for (std::size_t r = 0; r < kRows; ++r) pipeline->process(rows.row(r));
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

// ------------------------------------------------------ template sharing

/// Expects two models to hold the same trained state bit for bit: the
/// packed beta, and every label's P and samples-seen count.
void expect_same_model(const edgedrift::model::MultiInstanceModel& a,
                       const edgedrift::model::MultiInstanceModel& b) {
  ASSERT_EQ(a.num_labels(), b.num_labels());
  for (std::size_t c = 0; c < a.num_labels(); ++c) {
    EXPECT_EQ(Matrix::max_abs_diff(a.p(c), b.p(c)), 0.0) << c;
    EXPECT_EQ(a.samples_seen(c), b.samples_seen(c)) << c;
  }
  EXPECT_EQ(Matrix::max_abs_diff(a.packed_beta(), b.packed_beta()), 0.0);
}

TEST(Checkpoint, BlobWithTheTemplateModelSharesIt) {
  Rng rng(12);
  auto scenario = make_scenario(rng);
  PipelineConfig config = small_config();
  config.recovery = edgedrift::core::RecoveryPolicy::kDetectOnly;
  Pipeline original(config);
  original.fit(scenario.train.x, scenario.train.labels);
  std::string blob;
  ASSERT_TRUE(edgedrift::io::save_pipeline(blob, original));
  const std::optional<ModelTemplate> shared =
      edgedrift::io::load_template(blob, std::nullopt, nullptr, &config);
  ASSERT_TRUE(shared.has_value());
  const edgedrift::model::MultiInstanceModel& model = shared->pipeline.model();

  // The template's pipeline saves as a delta, which loads onto its model.
  std::string delta;
  ASSERT_TRUE(edgedrift::io::save_pipeline(delta, shared->pipeline, &*shared));
  EXPECT_LT(delta.size(), blob.size() / 2);
  auto restored = edgedrift::io::load_pipeline(delta, std::nullopt, nullptr,
                                               &config, &*shared);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(&restored->model(), &model);

  // A restored stream re-saves another detector state and window around
  // the same model: a delta again, still shared, and stepping like a lone
  // pipeline loaded from the full blob of the same state.
  for (std::size_t i = 0; i < 100; ++i) {
    restored->process(scenario.stream.x.row(i));
  }
  std::string resaved, full;
  ASSERT_TRUE(edgedrift::io::save_pipeline(resaved, *restored, &*shared));
  ASSERT_TRUE(edgedrift::io::save_pipeline(full, *restored));
  ASSERT_NE(resaved, delta);
  EXPECT_EQ(resaved.size(), delta.size());
  auto again = edgedrift::io::load_pipeline(resaved, std::nullopt, nullptr,
                                            &config, &*shared);
  auto lone =
      edgedrift::io::load_pipeline(full, std::nullopt, nullptr, &config);
  ASSERT_TRUE(again.has_value() && lone.has_value());
  EXPECT_EQ(&again->model(), &model);
  EXPECT_NE(&lone->model(), &model);
  expect_same_model(again->model(), lone->model());
  for (std::size_t i = 100; i < scenario.stream.size(); ++i) {
    const auto a = again->process(scenario.stream.x.row(i));
    const auto b = lone->process(scenario.stream.x.row(i));
    EXPECT_EQ(a.prediction.label, b.prediction.label);
    EXPECT_EQ(a.prediction.score, b.prediction.score);
    EXPECT_EQ(a.drift_detected, b.drift_detected);
    EXPECT_EQ(a.statistic, b.statistic);
  }

  // A write goes to a private copy; the template keeps its bytes, and the
  // writer saves full blobs from then on, with or without the template.
  edgedrift::model::MultiInstanceModel& own = again->model_mutable();
  EXPECT_NE(&own, &model);
  own.reset();
  expect_same_model(model, original.model());
  EXPECT_EQ(&restored->model(), &model);
  std::string after_write, after_write_alone;
  ASSERT_TRUE(edgedrift::io::save_pipeline(after_write, *again, &*shared));
  ASSERT_TRUE(edgedrift::io::save_pipeline(after_write_alone, *again));
  EXPECT_EQ(after_write, after_write_alone);
  EXPECT_EQ(after_write.size(), blob.size());
}

/// Byte offsets of three model-determining fields in a full checkpoint.
/// The config block (128 bytes from the end of the section tag) opens with
/// num_labels, input_dim, hidden_dim (u64), the activation (u32),
/// weight_scale and reg_lambda; the effective theta_error (f64) follows
/// it, then the model section: alpha (2 dims + d*h), bias (length + h),
/// the fingerprint, the instance count, and instance 0's beta (2 dims +
/// h*d), P (2 dims + h*h) and samples-seen count.
struct ModelFieldOffsets {
  std::size_t reg_lambda, p00, samples_seen0;
};

ModelFieldOffsets model_field_offsets(const std::string& blob,
                                      const PipelineConfig& config) {
  constexpr std::size_t w = sizeof(double);
  const std::string_view section = "edgedrift.pipeline";
  const std::size_t config_at = blob.find(section) + section.size();
  const std::size_t d = config.input_dim;
  const std::size_t h = config.hidden_dim;
  const std::size_t model_at = config_at + 128 + w;
  const std::size_t beta0 = model_at + (2 + d * h + 1 + h + 2) * w;
  const std::size_t p00 = beta0 + (2 + h * d + 2) * w;
  return {config_at + 3 * w + 4 + w, p00, p00 + h * h * w};
}

TEST(Checkpoint, BlobWithAnotherModelLoadsItsOwn) {
  Rng rng(13);
  auto scenario = make_scenario(rng);
  const PipelineConfig config = small_config();
  Pipeline original(config);
  original.fit(scenario.train.x, scenario.train.labels);
  std::string blob;
  ASSERT_TRUE(edgedrift::io::save_pipeline(blob, original));
  const std::optional<ModelTemplate> shared =
      edgedrift::io::load_template(blob);
  ASSERT_TRUE(shared.has_value());
  const edgedrift::model::MultiInstanceModel& model = shared->pipeline.model();
  const ModelFieldOffsets at = model_field_offsets(blob, config);

  const auto scale_f64 = [](std::string& b, std::size_t pos, double by) {
    double v = 0.0;
    std::memcpy(&v, b.data() + pos, sizeof(v));
    v *= by;
    std::memcpy(b.data() + pos, &v, sizeof(v));
  };
  struct Edit {
    const char* field;
    std::string blob;
  };
  // A full blob builds its own model even with a template given: the
  // template's own blob, and blobs edited in a model field.
  std::vector<Edit> edits = {{"P(0, 0)", blob},
                             {"samples_seen", blob},
                             {"reg_lambda", blob},
                             {"unedited", blob}};
  scale_f64(edits[0].blob, at.p00, 1.5);
  std::uint64_t seen = 0;
  std::memcpy(&seen, blob.data() + at.samples_seen0, sizeof(seen));
  ++seen;
  std::memcpy(edits[1].blob.data() + at.samples_seen0, &seen, sizeof(seen));
  scale_f64(edits[2].blob, at.reg_lambda, 2.0);

  for (Edit& edit : edits) {
    SCOPED_TRACE(edit.field);
    reseal(edit.blob);
    std::string error;
    auto own = edgedrift::io::load_pipeline(edit.blob, std::nullopt, &error,
                                            nullptr, &*shared);
    ASSERT_TRUE(own.has_value()) << error;
    EXPECT_NE(&own->model(), &model);
    auto lone = edgedrift::io::load_pipeline(edit.blob);
    ASSERT_TRUE(lone.has_value());
    expect_same_model(own->model(), lone->model());
    EXPECT_EQ(own->config().reg_lambda, lone->config().reg_lambda);
  }
  // Each edit reached the field it names.
  const auto p_edit = edgedrift::io::load_pipeline(edits[0].blob);
  EXPECT_EQ(p_edit->model().p(0)(0, 0), 1.5 * model.p(0)(0, 0));
  const auto seen_edit = edgedrift::io::load_pipeline(edits[1].blob);
  EXPECT_EQ(seen_edit->model().samples_seen(0), model.samples_seen(0) + 1);
  const auto lambda_edit = edgedrift::io::load_pipeline(edits[2].blob);
  EXPECT_EQ(lambda_edit->config().reg_lambda, 2.0 * config.reg_lambda);
}

}  // namespace
