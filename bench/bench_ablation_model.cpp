// Ablation bench: the paper's discriminative-model choice.
//
// Section 3.1 builds the discriminative model as one autoencoder per label
// with argmin reconstruction error, instead of the classic supervised
// OS-ELM classifier (one net, one-hot targets, argmax). This bench
// quantifies the trade on the NSL-KDD-like stream:
//   * static accuracy before/after the drift,
//   * whether the model yields the anomaly-score signal the proposed
//     detector's theta_error gate needs (the classifier's margin is the
//     closest analogue — and a much weaker drift signal),
//   * memory.
#include <cstdio>
#include <vector>

#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/table.hpp"
#include "oracle/classifier.hpp"

using namespace edgedrift;

int main() {
  std::printf("=== Ablation: autoencoder bank (paper) vs supervised "
              "classifier ===\n\n");

  data::NslKddLikeConfig data_config;
  data_config.train_size = 2000;
  data_config.test_size = 8000;
  data_config.drift_point = 4000;
  data::NslKddLike generator(data_config);
  util::Rng rng(23);
  const data::Dataset train = generator.training(rng);
  const data::Dataset test = generator.test_stream(rng);
  const std::size_t drift_at = data_config.drift_point;

  util::Rng model_rng(1);
  auto projection = oselm::make_projection(
      train.dim(), 22, oselm::Activation::kSigmoid, model_rng);

  model::MultiInstanceModel bank(2, projection, 1e-2);
  bank.init_train(train.x, train.labels);

  oselm::Classifier classifier(projection, 2, 1e-2);
  classifier.init_train(train.x, train.labels);

  // Accuracy and drift-signal statistics, pre and post drift.
  std::size_t bank_pre = 0, bank_post = 0, clf_pre = 0, clf_post = 0;
  std::vector<double> bank_scores_pre, bank_scores_post;
  std::vector<double> clf_margin_pre, clf_margin_post;
  model::BatchWorkspace ws;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const auto x = test.x.row(i);
    const auto pred = bank.predict(x, ws);
    const auto clf_label = classifier.predict(x);
    const bool pre = i < drift_at;
    if (static_cast<int>(pred.label) == test.labels[i]) {
      (pre ? bank_pre : bank_post) += 1;
    }
    if (static_cast<int>(clf_label) == test.labels[i]) {
      (pre ? clf_pre : clf_post) += 1;
    }
    (pre ? bank_scores_pre : bank_scores_post).push_back(pred.score);
    (pre ? clf_margin_pre : clf_margin_post)
        .push_back(classifier.margin(x));
  }

  const double n_pre = static_cast<double>(drift_at);
  const double n_post = static_cast<double>(test.size() - drift_at);
  util::Table table({"Model", "Acc pre (%)", "Acc post (%)",
                     "Drift signal pre", "Drift signal post",
                     "Signal ratio", "Memory (kB)"});
  const double bank_sig_pre = linalg::mean(bank_scores_pre);
  const double bank_sig_post = linalg::mean(bank_scores_post);
  table.add_row(
      {"autoencoder bank (paper)", util::fmt(100.0 * bank_pre / n_pre, 1),
       util::fmt(100.0 * bank_post / n_post, 1),
       util::fmt(bank_sig_pre, 4), util::fmt(bank_sig_post, 4),
       util::fmt(bank_sig_post / bank_sig_pre, 1) + "x",
       util::fmt(bank.memory_bytes() / 1024.0, 1)});
  // For the classifier the drift signal is the (negated) margin: margins
  // shrink off-distribution. Report the margin itself.
  const double clf_sig_pre = linalg::mean(clf_margin_pre);
  const double clf_sig_post = linalg::mean(clf_margin_post);
  table.add_row(
      {"supervised classifier", util::fmt(100.0 * clf_pre / n_pre, 1),
       util::fmt(100.0 * clf_post / n_post, 1),
       util::fmt(clf_sig_pre, 4), util::fmt(clf_sig_post, 4),
       util::fmt(clf_sig_post / clf_sig_pre, 1) + "x",
       util::fmt(classifier.memory_bytes() / 1024.0, 1)});
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Drift signal = mean reconstruction error (bank) / mean decision\n"
      "margin (classifier). The bank's score rises sharply off the trained\n"
      "manifold — that multiplicative jump is what opens the theta_error\n"
      "windows of Algorithm 1. A margin shrinks toward zero instead, a far\n"
      "weaker and bounded signal, and the classifier cannot be retrained\n"
      "from clustered pseudo-labels as naturally as per-label autoencoders.\n"
      "That, plus unsupervised operation, is why the paper picks the bank.\n");
  return 0;
}
