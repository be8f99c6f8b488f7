// Extension bench: every detector in the library against all four drift
// types of Figure 1 (sudden, gradual, incremental, reoccurring) on a
// common 16-dimensional stream. The paper evaluates three types on the fan
// data with the proposed detector only; this bench generalizes that
// analysis across the zoo — which detector family handles which drift
// shape, at what state cost.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/drift/centroid_detector.hpp"
#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/table.hpp"
#include "baselines/adwin.hpp"
#include "baselines/ddm.hpp"
#include "baselines/eddm.hpp"
#include "baselines/kswin.hpp"
#include "baselines/page_hinkley.hpp"
#include "baselines/quanttree.hpp"
#include "baselines/spll.hpp"

using namespace edgedrift;

namespace {

constexpr std::size_t kDim = 16;
constexpr std::size_t kDriftAt = 1000;
constexpr std::size_t kDriftEnd = 2000;  // For gradual/incremental/reoccur.
constexpr std::size_t kStream = 3000;

data::GaussianConcept make_concept(double offset) {
  data::GaussianClass a;
  a.mean.assign(kDim, 0.2 + offset);
  a.stddev = {0.15};
  data::GaussianClass b;
  b.mean.assign(kDim, 1.0 + offset);
  b.stddev = {0.15};
  return data::GaussianConcept({a, b});
}

struct Outcome {
  std::optional<std::size_t> delay;
  std::size_t false_alarms = 0;
};

std::string fmt_outcome(const Outcome& o) {
  std::string s = o.delay ? std::to_string(*o.delay) : std::string("-");
  if (o.false_alarms > 0) {
    s += " (+" + std::to_string(o.false_alarms) + " fa)";
  }
  return s;
}

}  // namespace

int main() {
  std::printf("=== Detector comparison across drift types (extension) "
              "===\n\n");
  std::printf("stream: %zu samples, 2 classes in %zu dims; drift begins at "
              "%zu\n(gradual/incremental transition ends, and the "
              "reoccurring burst ends, at %zu)\n\n",
              kStream, kDim, kDriftAt, kDriftEnd);

  const auto before = make_concept(0.0);
  const auto after = make_concept(0.8);

  // Shared discriminative model, trained once.
  util::Rng rng(31);
  const data::Dataset train = data::draw(before, 800, rng);
  auto projection =
      oselm::make_projection(kDim, 8, oselm::Activation::kSigmoid, rng);
  model::MultiInstanceModel model(2, projection, 1e-2);
  model.init_train(train.x, train.labels);

  // The four streams.
  struct Stream {
    const char* name;
    data::Dataset data;
  };
  util::Rng stream_rng(32);
  std::vector<Stream> streams;
  streams.push_back({"sudden", data::make_sudden_drift(before, after,
                                                       kStream, kDriftAt,
                                                       stream_rng)});
  streams.push_back({"gradual",
                     data::make_gradual_drift(before, after, kStream,
                                              kDriftAt, kDriftEnd,
                                              stream_rng)});
  streams.push_back({"incremental",
                     data::make_incremental_drift(before, after, kStream,
                                                  kDriftAt, kDriftEnd,
                                                  stream_rng)});
  streams.push_back({"reoccurring",
                     data::make_reoccurring_drift(before, after, kStream,
                                                  kDriftAt, kDriftEnd,
                                                  stream_rng)});

  // Detector factories (fresh instance per stream).
  struct Factory {
    const char* label;
    std::unique_ptr<drift::Detector> (*make)(const data::Dataset&);
  };
  const Factory factories[] = {
      {"proposed (W=50)",
       [](const data::Dataset& t) -> std::unique_ptr<drift::Detector> {
         drift::CentroidDetectorConfig config;
         config.num_labels = 2;
         config.dim = kDim;
         config.window_size = 50;
         config.theta_error = 0.0;
         config.initial_count = 0;
         auto det = std::make_unique<drift::CentroidDetector>(config);
         det->calibrate(t.x, t.labels);
         return det;
       }},
      {"quanttree (B=200)",
       [](const data::Dataset& t) -> std::unique_ptr<drift::Detector> {
         drift::QuantTreeConfig config;
         config.num_bins = 16;
         config.batch_size = 200;
         config.alpha = 0.005;
         auto det = std::make_unique<drift::QuantTree>(config);
         det->fit(t.x);
         return det;
       }},
      {"spll (B=200)",
       [](const data::Dataset& t) -> std::unique_ptr<drift::Detector> {
         drift::SpllConfig config;
         config.num_clusters = 2;
         config.batch_size = 200;
         auto det = std::make_unique<drift::Spll>(config);
         det->fit(t.x);
         return det;
       }},
      {"ddm",
       [](const data::Dataset&) -> std::unique_ptr<drift::Detector> {
         return std::make_unique<drift::Ddm>();
       }},
      {"eddm",
       [](const data::Dataset&) -> std::unique_ptr<drift::Detector> {
         return std::make_unique<drift::Eddm>();
       }},
      {"adwin",
       [](const data::Dataset&) -> std::unique_ptr<drift::Detector> {
         return std::make_unique<drift::Adwin>();
       }},
      {"page-hinkley",
       [](const data::Dataset&) -> std::unique_ptr<drift::Detector> {
         drift::PageHinkleyConfig config;
         config.lambda = 10.0;
         return std::make_unique<drift::PageHinkley>(config);
       }},
      {"kswin",
       [](const data::Dataset&) -> std::unique_ptr<drift::Detector> {
         return std::make_unique<drift::Kswin>();
       }},
  };

  util::Table table({"Detector", "Sudden", "Gradual", "Incremental",
                     "Reoccurring", "State (kB)"});
  for (const auto& factory : factories) {
    std::vector<std::string> row{factory.label};
    std::size_t state_bytes = 0;
    for (const auto& stream : streams) {
      auto detector = factory.make(train);
      Outcome outcome;
      model::BatchWorkspace ws;
      for (std::size_t i = 0; i < stream.data.size(); ++i) {
        const auto x = stream.data.x.row(i);
        const auto pred = model.predict(x, ws);
        drift::Observation obs;
        obs.x = x;
        obs.predicted_label = static_cast<int>(pred.label);
        obs.anomaly_score = pred.score;
        obs.error = static_cast<int>(pred.label) != stream.data.labels[i];
        if (detector->observe(obs).drift) {
          if (i < kDriftAt) {
            ++outcome.false_alarms;
          } else if (!outcome.delay) {
            outcome.delay = i - kDriftAt;
          }
        }
      }
      row.push_back(fmt_outcome(outcome));
      state_bytes = detector->memory_bytes();
    }
    row.push_back(util::fmt(state_bytes / 1024.0, 1));
    table.add_row(row);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Reading guide: batch detectors excel on sudden drifts but pay B x D\n"
      "memory; error-rate detectors need ground-truth labels; the proposed\n"
      "method trades delay for O(C*D) state. Gradual and incremental drifts\n"
      "stretch every detector's delay; reoccurring bursts are only 'seen'\n"
      "by detectors whose window is shorter than the burst.\n");
  return 0;
}
