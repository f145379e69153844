// Layer/module abstraction: parameter registration, Linear, MLP, and
// Conv2d layers. Recurrent layers live in nn/lstm.h.

#pragma once

#include <memory>
#include <vector>

#include "nn/autograd.h"
#include "nn/conv.h"
#include "nn/ops.h"
#include "util/rng.h"

namespace spectra::nn {

// Base class for anything with trainable parameters. Children are
// registered non-owning (the owner stores them as members), mirroring the
// usual module-tree design without reference cycles.
class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // All parameters of this module and registered children, in
  // registration order (stable — serialization relies on it).
  std::vector<Var> parameters() const;

  long parameter_count() const;

  void zero_grad() const;

 protected:
  Var register_parameter(Tensor initial_value);
  void register_child(Module& child);

 private:
  std::vector<Var> params_;
  std::vector<const Module*> children_;
};

enum class Activation { kNone, kRelu, kLeakyRelu, kTanh, kSigmoid };

Var apply_activation(const Var& x, Activation activation);

// Fully connected layer: y = x W + b, x is [B, in].
class Linear : public Module {
 public:
  Linear(long in_features, long out_features, Rng& rng);
  Var forward(const Var& x) const;

  long in_features() const { return in_features_; }
  long out_features() const { return out_features_; }

 private:
  long in_features_;
  long out_features_;
  Var weight_;  // [in, out]
  Var bias_;    // [out]
};

// Multilayer perceptron over rank-2 inputs.
class Mlp : public Module {
 public:
  // dims = {in, h1, ..., out}; `hidden` applied between layers, `output`
  // applied after the last.
  Mlp(std::vector<long> dims, Activation hidden, Activation output, Rng& rng);
  Var forward(const Var& x) const;

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  Activation hidden_;
  Activation output_;
};

// Conv2d layer with owned weight/bias.
class Conv2dLayer : public Module {
 public:
  Conv2dLayer(long in_channels, long out_channels, long kernel, Conv2dSpec spec, Rng& rng);
  Var forward(const Var& x) const;

  long out_channels() const { return out_channels_; }

 private:
  long out_channels_;
  Conv2dSpec spec_;
  Var weight_;
  Var bias_;
};

}  // namespace spectra::nn
