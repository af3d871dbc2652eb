// Trainable layers with hand-written backward passes.
//
// Shapes follow the two benchmark models in miniature:
//   CosmoFlow : Conv3d/MaxPool3d stacks on [c,d,h,w] volumes + Dense head,
//   DeepCAM   : Conv2d stacks on [c,h,w] images with per-pixel class logits.
// Each layer caches what its backward pass needs; `backward` returns the
// input gradient and accumulates parameter gradients (cleared by the
// optimizer step). Single-sample forward/backward: batches are averaged by
// the training loop, matching small-batch SGD semantics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sciprep/dnn/tensor.hpp"

namespace sciprep::dnn {

class Layer {
 public:
  virtual ~Layer() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual Tensor forward(const Tensor& input) = 0;
  virtual Tensor backward(const Tensor& output_grad) = 0;
  /// Parameter/gradient pairs, same order; empty for stateless layers.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }
};

/// Fully connected: y = W x + b, W is [out, in].
class Dense final : public Layer {
 public:
  Dense(std::size_t in, std::size_t out, Rng& rng);
  [[nodiscard]] std::string name() const override { return "dense"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& output_grad) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }

 private:
  std::size_t in_;
  std::size_t out_;
  Tensor w_, b_, dw_, db_;
  Tensor cache_input_;
};

/// 3x3x3 "same" convolution on [c,d,h,w] volumes.
class Conv3d final : public Layer {
 public:
  Conv3d(int in_channels, int out_channels, Rng& rng);
  [[nodiscard]] std::string name() const override { return "conv3d"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& output_grad) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }

 private:
  int in_c_, out_c_;
  Tensor w_, b_, dw_, db_;  // w is [out, in, 3, 3, 3]
  Tensor cache_input_;
};

/// 3x3 "same" convolution on [c,h,w] images.
class Conv2d final : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, Rng& rng);
  [[nodiscard]] std::string name() const override { return "conv2d"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& output_grad) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }

 private:
  int in_c_, out_c_;
  Tensor w_, b_, dw_, db_;  // w is [out, in, 3, 3]
  Tensor cache_input_;
};

/// 2x2x2 max pooling on [c,d,h,w] (dims must be even).
class MaxPool3d final : public Layer {
 public:
  [[nodiscard]] std::string name() const override { return "maxpool3d"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& output_grad) override;

 private:
  std::vector<std::uint64_t> in_shape_;
  std::vector<std::uint32_t> argmax_;
};

/// 2x2 max pooling on [c,h,w] (dims must be even).
class MaxPool2d final : public Layer {
 public:
  [[nodiscard]] std::string name() const override { return "maxpool2d"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& output_grad) override;

 private:
  std::vector<std::uint64_t> in_shape_;
  std::vector<std::uint32_t> argmax_;
};

class Relu final : public Layer {
 public:
  [[nodiscard]] std::string name() const override { return "relu"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& output_grad) override;

 private:
  std::vector<std::uint8_t> mask_;
  std::vector<std::uint64_t> in_shape_;
};

class Flatten final : public Layer {
 public:
  [[nodiscard]] std::string name() const override { return "flatten"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& output_grad) override;

 private:
  std::vector<std::uint64_t> in_shape_;
};

/// Sequential container; owns its layers.
class Sequential final : public Layer {
 public:
  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }
  [[nodiscard]] std::string name() const override { return "sequential"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& output_grad) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace sciprep::dnn
