// SGD with momentum and a warmup + step-decay schedule (the "learning
// schedule parameters of the reference implementation" fixed across the
// base/decoded comparison in §VIII.A).
#pragma once

#include <vector>

#include "sciprep/dnn/layers.hpp"

namespace sciprep::dnn {

struct SgdConfig {
  float learning_rate = 0.01F;
  float momentum = 0.9F;
  float weight_decay = 0.0F;
  int warmup_steps = 0;      // linear LR ramp from 0
  int decay_every = 0;       // halve LR every N steps; 0 disables
};

class Sgd {
 public:
  Sgd(Layer& model, SgdConfig config);

  /// Apply accumulated gradients (scaled by 1/`grad_scale`, e.g. the batch
  /// size) and clear them.
  void step(float grad_scale = 1.0F);

  [[nodiscard]] float current_lr() const;

 private:
  std::vector<Tensor*> params_;
  std::vector<Tensor*> grads_;
  std::vector<Tensor> velocity_;
  SgdConfig config_;
  int steps_ = 0;
};

}  // namespace sciprep::dnn
