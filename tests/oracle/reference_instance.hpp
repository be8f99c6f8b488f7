// The per-label reference for model::MultiInstanceModel: a standalone
// oselm::Autoencoder rebuilt from one label's state. The model keeps its
// labels as column blocks of one packed beta and trains them through the
// same OS-ELM step as a standalone OsElm, so the rebuilt autoencoder scores
// exactly like the model's label (score_batch() at f64) and, trained on the
// same rows, stays bit-equal to the model's block.
#pragma once

#include <cstddef>

#include "edgedrift/model/multi_instance.hpp"
#include "oracle/autoencoder.hpp"

namespace edgedrift::oracle {

/// An Autoencoder over the model's projection and hyper-parameters holding
/// label `label`'s beta block, P and samples-seen count.
oselm::Autoencoder reference_instance(const model::MultiInstanceModel& model,
                                      std::size_t label);

}  // namespace edgedrift::oracle
