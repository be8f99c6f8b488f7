// Tests for the supervised OS-ELM classifier (one-hot targets, argmax
// prediction).
#include <gtest/gtest.h>

#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/data/stream.hpp"
#include "edgedrift/util/rng.hpp"
#include "oracle/classifier.hpp"

namespace {

using edgedrift::data::Dataset;
using edgedrift::data::GaussianClass;
using edgedrift::data::GaussianConcept;
using edgedrift::oselm::Activation;
using edgedrift::oselm::Classifier;
using edgedrift::oselm::make_projection;
using edgedrift::util::Rng;

GaussianConcept three_class_concept() {
  GaussianClass a;
  a.mean = {0.0, 0.0, 0.0, 0.0};
  a.stddev = {0.25};
  GaussianClass b;
  b.mean = {2.0, 0.0, 2.0, 0.0};
  b.stddev = {0.25};
  GaussianClass c;
  c.mean = {0.0, 2.0, 0.0, 2.0};
  c.stddev = {0.25};
  return GaussianConcept({a, b, c});
}

double accuracy(const Classifier& clf, const Dataset& d) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (static_cast<int>(clf.predict(d.x.row(i))) == d.labels[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(d.size());
}

TEST(Classifier, LearnsThreeClassesBatch) {
  Rng rng(1);
  const auto concept3 = three_class_concept();
  const Dataset train = edgedrift::data::draw(concept3, 600, rng);
  const Dataset test = edgedrift::data::draw(concept3, 300, rng);

  auto proj = make_projection(4, 20, Activation::kSigmoid, rng);
  Classifier clf(proj, 3);
  clf.init_train(train.x, train.labels);
  EXPECT_GT(accuracy(clf, test), 0.97);
}

TEST(Classifier, PureSequentialTrainingConverges) {
  Rng rng(2);
  const auto concept3 = three_class_concept();
  const Dataset train = edgedrift::data::draw(concept3, 1200, rng);
  const Dataset test = edgedrift::data::draw(concept3, 300, rng);

  auto proj = make_projection(4, 20, Activation::kSigmoid, rng);
  Classifier clf(proj, 3);
  clf.init_sequential();
  for (std::size_t i = 0; i < train.size(); ++i) {
    clf.train(train.x.row(i), static_cast<std::size_t>(train.labels[i]));
  }
  EXPECT_GT(accuracy(clf, test), 0.95);
}

TEST(Classifier, SequentialMatchesBatchAccuracy) {
  Rng rng(3);
  const auto concept3 = three_class_concept();
  const Dataset train = edgedrift::data::draw(concept3, 800, rng);
  const Dataset test = edgedrift::data::draw(concept3, 400, rng);

  auto proj = make_projection(4, 20, Activation::kSigmoid, rng);
  Classifier batch(proj, 3);
  batch.init_train(train.x, train.labels);

  Classifier sequential(proj, 3);
  const Dataset head = train.slice(0, 400);
  sequential.init_train(head.x, head.labels);
  for (std::size_t i = 400; i < train.size(); ++i) {
    sequential.train(train.x.row(i),
                     static_cast<std::size_t>(train.labels[i]));
  }
  // Same OS-ELM equivalence as the regressor: predictions must agree.
  for (std::size_t i = 0; i < test.size(); ++i) {
    EXPECT_EQ(sequential.predict(test.x.row(i)),
              batch.predict(test.x.row(i)));
  }
}

TEST(Classifier, MarginIsNonNegativeAndLargerOffBoundary) {
  Rng rng(4);
  const auto concept3 = three_class_concept();
  const Dataset train = edgedrift::data::draw(concept3, 600, rng);
  auto proj = make_projection(4, 20, Activation::kSigmoid, rng);
  Classifier clf(proj, 3);
  clf.init_train(train.x, train.labels);

  const std::vector<double> center{0.0, 0.0, 0.0, 0.0};   // Class-0 anchor.
  const std::vector<double> boundary{1.0, 0.0, 1.0, 0.0}; // Between 0 and 1.
  EXPECT_GE(clf.margin(center), 0.0);
  EXPECT_GT(clf.margin(center), clf.margin(boundary));
}

TEST(Classifier, DecisionValuesMatchPrediction) {
  Rng rng(5);
  const auto concept3 = three_class_concept();
  const Dataset train = edgedrift::data::draw(concept3, 600, rng);
  auto proj = make_projection(4, 20, Activation::kSigmoid, rng);
  Classifier clf(proj, 3);
  clf.init_train(train.x, train.labels);

  std::vector<double> values(3);
  for (std::size_t i = 0; i < 50; ++i) {
    clf.decision_values(train.x.row(i), values);
    const auto argmax = static_cast<std::size_t>(
        std::max_element(values.begin(), values.end()) - values.begin());
    EXPECT_EQ(clf.predict(train.x.row(i)), argmax);
  }
}

TEST(Classifier, ForgettingVariantAdaptsToLabelFlip) {
  Rng rng(6);
  GaussianClass a;
  a.mean = {0.0, 0.0};
  a.stddev = {0.15};
  GaussianClass b;
  b.mean = {2.0, 2.0};
  b.stddev = {0.15};
  GaussianConcept concept2({a, b});

  auto proj = make_projection(2, 12, Activation::kSigmoid, rng);
  Classifier forgetting(proj, 2, 1e-2, 0.95);
  forgetting.init_sequential();

  // Phase 1: normal labels, many samples.
  Dataset phase1 = edgedrift::data::draw(concept2, 800, rng);
  for (std::size_t i = 0; i < phase1.size(); ++i) {
    forgetting.train(phase1.x.row(i),
                     static_cast<std::size_t>(phase1.labels[i]));
  }
  // Phase 2: labels flip (concept drift in the label function).
  Dataset phase2 = edgedrift::data::draw(concept2, 150, rng);
  for (std::size_t i = 0; i < phase2.size(); ++i) {
    forgetting.train(phase2.x.row(i),
                     static_cast<std::size_t>(1 - phase2.labels[i]));
  }
  // The forgetting classifier must now follow the flipped labeling.
  Dataset probe = edgedrift::data::draw(concept2, 200, rng);
  std::size_t flipped_hits = 0;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    if (static_cast<int>(forgetting.predict(probe.x.row(i))) ==
        1 - probe.labels[i]) {
      ++flipped_hits;
    }
  }
  EXPECT_GT(static_cast<double>(flipped_hits) / probe.size(), 0.9);
}

TEST(Classifier, RejectsSingleLabel) {
  Rng rng(7);
  auto proj = make_projection(4, 8, Activation::kSigmoid, rng);
  EXPECT_DEATH(Classifier(proj, 1), "at least two labels");
}

}  // namespace
