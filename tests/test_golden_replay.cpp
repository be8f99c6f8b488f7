// Golden-replay regression: a seeded NSL-KDD-like run end to end against a
// committed transcript (tests/golden/nslkdd_replay.golden).
//
// The golden file pins, in hexfloat text, everything the pipeline decides:
// the calibrated theta_error gate, every predicted label, every drift index,
// every window-close statistic, and every 8th anomaly score. On the
// portable SIMD backend the comparison is exact (hexfloat round-trips are
// bit-faithful), so any silent change to the numerics, the detector
// schedule, or the recovery sequencing fails loudly. Native builds
// (AVX2/FMA, NEON) legitimately reassociate the arithmetic, so there the
// check degrades to tolerances: the gate within 1e-6 relative, label
// disagreement under 1%, drift count equal with indices within one window.
//
// Regenerate after an intentional numerics change with
//   EDGEDRIFT_REGEN_GOLDEN=1 ./edgedrift_tests --gtest_filter='GoldenReplay.*'
// from a portable-SIMD build, and commit the diff.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/eval/paper_configs.hpp"
#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using namespace edgedrift;

constexpr std::size_t kScoreStride = 8;  // Every 8th anomaly score is pinned.

std::string golden_path() {
  return std::string(EDGEDRIFT_TEST_DIR) + "/golden/nslkdd_replay.golden";
}

/// The reduced replay configuration: same generator, same paper pipeline,
/// small enough to keep the transcript a few kilobytes and the test fast.
data::NslKddLikeConfig replay_stream_config() {
  data::NslKddLikeConfig config;
  config.train_size = 1600;
  config.test_size = 2500;
  config.drift_point = 1200;
  config.seed = 42;
  return config;
}

struct Transcript {
  double theta_error = 0.0;
  std::string labels;                     // One digit per sample.
  std::vector<std::size_t> drifts;        // Sample indices of detections.
  std::vector<std::size_t> stat_index;    // Window-close sample indices.
  std::vector<double> stat_value;         // Matching statistics.
  std::vector<double> scores;             // Every kScoreStride-th score.
};

Transcript run_replay() {
  const data::NslKddLike generator(replay_stream_config());
  util::Rng rng(generator.config().seed);
  const data::Dataset train = generator.training(rng);
  const data::Dataset test = generator.test_stream(rng);

  core::PipelineConfig config = eval::nsl_kdd_paper_config(100).pipeline;
  config.input_dim = train.dim();
  core::Pipeline pipeline(config);
  pipeline.fit(train.x, train.labels);

  Transcript t;
  t.theta_error = pipeline.theta_error();
  t.labels.reserve(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    const core::PipelineStep step =
        pipeline.process(test.x.row(i), test.labels[i]);
    t.labels.push_back(
        static_cast<char>('0' + (step.prediction.label % 10)));
    if (step.drift_detected) t.drifts.push_back(i);
    if (step.statistic_valid) {
      t.stat_index.push_back(i);
      t.stat_value.push_back(step.statistic);
    }
    if (i % kScoreStride == 0) t.scores.push_back(step.prediction.score);
  }
  return t;
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string render(const Transcript& t) {
  const data::NslKddLikeConfig sc = replay_stream_config();
  std::string out;
  out += "edgedrift-golden-v1\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "config dim=%zu labels=%zu window=100 train=%zu test=%zu "
                "drift=%zu seed=%" PRIu64 " stride=%zu\n",
                data::NslKddLike::kDim, data::NslKddLike::kNumLabels,
                sc.train_size, sc.test_size, sc.drift_point, sc.seed,
                kScoreStride);
  out += buf;
  out += "theta_error " + hex(t.theta_error) + "\n";
  out += "labels " + t.labels + "\n";
  out += "drifts";
  for (const std::size_t d : t.drifts) out += " " + std::to_string(d);
  out += "\n";
  for (std::size_t i = 0; i < t.stat_index.size(); ++i) {
    out += "stat " + std::to_string(t.stat_index[i]) + " " +
           hex(t.stat_value[i]) + "\n";
  }
  for (std::size_t i = 0; i < t.scores.size(); ++i) {
    out += "score " + std::to_string(i * kScoreStride) + " " +
           hex(t.scores[i]) + "\n";
  }
  return out;
}

bool parse(const std::string& text, Transcript& t, std::string& error) {
  std::size_t pos = 0;
  bool saw_magic = false;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    if (!saw_magic) {
      if (line != "edgedrift-golden-v1") {
        error = "bad magic line: " + line;
        return false;
      }
      saw_magic = true;
    } else if (line.rfind("config ", 0) == 0) {
      // Informational; the test regenerates its own config.
    } else if (line.rfind("theta_error ", 0) == 0) {
      t.theta_error = std::strtod(line.c_str() + 12, nullptr);
    } else if (line.rfind("labels ", 0) == 0) {
      t.labels = line.substr(7);
    } else if (line.rfind("drifts", 0) == 0) {
      const char* p = line.c_str() + 6;
      char* next = nullptr;
      for (;;) {
        const unsigned long long v = std::strtoull(p, &next, 10);
        if (next == p) break;
        t.drifts.push_back(static_cast<std::size_t>(v));
        p = next;
      }
    } else if (line.rfind("stat ", 0) == 0) {
      char* next = nullptr;
      t.stat_index.push_back(
          static_cast<std::size_t>(std::strtoull(line.c_str() + 5, &next, 10)));
      t.stat_value.push_back(std::strtod(next, nullptr));
    } else if (line.rfind("score ", 0) == 0) {
      char* next = nullptr;
      std::strtoull(line.c_str() + 6, &next, 10);
      t.scores.push_back(std::strtod(next, nullptr));
    } else {
      error = "unrecognized line: " + line;
      return false;
    }
  }
  if (!saw_magic) {
    error = "empty golden file";
    return false;
  }
  return true;
}

bool is_portable_build() {
  return std::strcmp(linalg::simd::kLevelName, "portable") == 0;
}

TEST(GoldenReplay, MatchesCommittedTranscript) {
  const std::string path = golden_path();
  const Transcript actual = run_replay();

  if (std::getenv("EDGEDRIFT_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(is_portable_build())
        << "regenerate the golden file from a portable-SIMD build "
           "(-DEDGEDRIFT_SIMD=PORTABLE or the default container build)";
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    const std::string text = render(actual);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "golden file regenerated at " << path;
  }

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr)
      << "missing golden file " << path
      << " — regenerate with EDGEDRIFT_REGEN_GOLDEN=1 and commit it";
  std::string text;
  char buf[4096];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    if (n == 0) break;
    text.append(buf, n);
  }
  std::fclose(f);

  Transcript golden;
  std::string error;
  ASSERT_TRUE(parse(text, golden, error)) << error;

  if (is_portable_build()) {
    // Hexfloat round-trips exactly: the replay must be bit-identical.
    EXPECT_EQ(render(actual), text)
        << "portable-build replay diverged from the committed transcript; "
           "if the numerics change is intentional, regenerate with "
           "EDGEDRIFT_REGEN_GOLDEN=1";
    return;
  }

  // Native backends reassociate float arithmetic; hold the decisions to
  // tolerances instead of bits.
  EXPECT_NEAR(actual.theta_error, golden.theta_error,
              1e-6 * std::abs(golden.theta_error));
  ASSERT_EQ(actual.labels.size(), golden.labels.size());
  std::size_t label_mismatch = 0;
  for (std::size_t i = 0; i < actual.labels.size(); ++i) {
    label_mismatch += actual.labels[i] != golden.labels[i];
  }
  EXPECT_LE(label_mismatch, actual.labels.size() / 100)
      << "more than 1% of predicted labels diverged from the golden run";
  ASSERT_EQ(actual.drifts.size(), golden.drifts.size())
      << "drift count diverged from the golden run";
  for (std::size_t i = 0; i < actual.drifts.size(); ++i) {
    const auto a = static_cast<long long>(actual.drifts[i]);
    const auto g = static_cast<long long>(golden.drifts[i]);
    EXPECT_LE(std::llabs(a - g), 100)
        << "drift " << i << " moved more than one window";
  }
}

}  // namespace
