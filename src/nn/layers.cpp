#include "nn/layers.h"

#include "nn/init.h"
#include "util/error.h"

namespace spectra::nn {

std::vector<Var> Module::parameters() const {
  std::vector<Var> all = params_;
  for (const Module* child : children_) {
    const std::vector<Var> sub = child->parameters();
    all.insert(all.end(), sub.begin(), sub.end());
  }
  return all;
}

long Module::parameter_count() const {
  long total = 0;
  for (const Var& p : parameters()) total += p.value().numel();
  return total;
}

void Module::zero_grad() const {
  for (Var p : parameters()) p.zero_grad();
}

Var Module::register_parameter(Tensor initial_value) {
  params_.push_back(Var::leaf(std::move(initial_value)));
  return params_.back();
}

void Module::register_child(Module& child) { children_.push_back(&child); }

Var apply_activation(const Var& x, Activation activation) {
  switch (activation) {
    case Activation::kNone:
      return x;
    case Activation::kRelu:
      return relu(x);
    case Activation::kLeakyRelu:
      return leaky_relu(x);
    case Activation::kTanh:
      return vtanh(x);
    case Activation::kSigmoid:
      return sigmoid(x);
  }
  SG_THROW("unknown activation");
}

Linear::Linear(long in_features, long out_features, Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  SG_CHECK(in_features > 0 && out_features > 0, "Linear requires positive dimensions");
  weight_ = register_parameter(
      init::xavier_uniform({in_features, out_features}, in_features, out_features, rng));
  bias_ = register_parameter(init::zeros({out_features}));
}

Var Linear::forward(const Var& x) const {
  SG_CHECK(x.value().rank() == 2 && x.value().dim(1) == in_features_,
           "Linear input must be [B, " + std::to_string(in_features_) + "]");
  return linear(x, weight_, bias_);
}

Mlp::Mlp(std::vector<long> dims, Activation hidden, Activation output, Rng& rng)
    : hidden_(hidden), output_(output) {
  SG_CHECK(dims.size() >= 2, "Mlp requires at least input and output dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    register_child(*layers_.back());
  }
}

Var Mlp::forward(const Var& x) const {
  Var h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->forward(h);
    h = apply_activation(h, i + 1 < layers_.size() ? hidden_ : output_);
  }
  return h;
}

Conv2dLayer::Conv2dLayer(long in_channels, long out_channels, long kernel, Conv2dSpec spec,
                         Rng& rng)
    : out_channels_(out_channels), spec_(spec) {
  SG_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
           "Conv2dLayer requires positive dimensions");
  const long fan_in = in_channels * kernel * kernel;
  const long fan_out = out_channels * kernel * kernel;
  weight_ = register_parameter(
      init::xavier_uniform({out_channels, in_channels, kernel, kernel}, fan_in, fan_out, rng));
  bias_ = register_parameter(init::zeros({out_channels}));
}

Var Conv2dLayer::forward(const Var& x) const { return conv2d(x, weight_, bias_, spec_); }

}  // namespace spectra::nn
