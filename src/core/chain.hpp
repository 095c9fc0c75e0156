// The linearized DNN model of the paper (§3): a chain of L layers, each with
// a forward duration u_F, backward duration u_B, parameter weight size W and
// output activation size a. Layers are 1-based like the paper; a(0) is the
// input tensor of the network.
//
// All range queries (U(k,l), Σ W_i, Σ a_{i-1}) are O(1) via prefix sums,
// which the dynamic programs rely on.
#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"

namespace madpipe {

/// One layer of the linearized chain.
struct Layer {
  std::string name;
  Seconds forward_time = 0.0;   ///< u_F: forward duration for one mini-batch
  Seconds backward_time = 0.0;  ///< u_B: backward duration for one mini-batch
  Bytes weight_bytes = 0.0;     ///< W: parameter size
  Bytes output_bytes = 0.0;     ///< a: activation produced by F_l (= size of b^(l))
  /// Always-resident workspace the profile reports for this layer (v2
  /// profile field `scratch_bytes`). Charged once, like weights, not per
  /// in-flight batch.
  Bytes scratch_bytes = 0.0;

  bool operator==(const Layer&) const = default;
};

/// Immutable chain of layers with O(1) range aggregates.
class Chain {
 public:
  /// `input_bytes` is a(0), the input tensor size (stored for the backward
  /// pass of layer 1 and communicated if layer 1 is not on the first GPU —
  /// in our model the input is resident, so only storage counts).
  Chain(std::string name, Bytes input_bytes, std::vector<Layer> layers);

  const std::string& name() const noexcept { return name_; }
  /// L, the number of layers.
  int length() const noexcept { return static_cast<int>(layers_.size()); }

  /// Layer l, 1-based.
  const Layer& layer(int l) const;

  /// a_l for l in [0, L]; a_0 is the input size.
  Bytes activation(int l) const;

  Seconds forward_time(int l) const { return layer(l).forward_time; }
  Seconds backward_time(int l) const { return layer(l).backward_time; }
  Bytes weight(int l) const { return layer(l).weight_bytes; }

  /// U(k,l) = Σ_{i=k..l} (u_F + u_B). Empty range (k > l) is 0.
  Seconds compute_load(int k, int l) const;
  /// Σ_{i=k..l} u_F.
  Seconds forward_load(int k, int l) const;
  /// Σ_{i=k..l} u_B.
  Seconds backward_load(int k, int l) const;
  /// U(1,L): the sequential execution time of one mini-batch.
  Seconds total_compute() const { return compute_load(1, length()); }

  /// Σ_{i=k..l} W_i.
  Bytes weight_sum(int k, int l) const;
  /// Σ_{i=k..l} scratch_bytes.
  Bytes scratch_sum(int k, int l) const;
  /// ā over layers k..l: Σ_{i=k..l} a_{i-1} — the activations a stage must
  /// store per in-flight batch (each layer keeps its *input*).
  Bytes stored_activation_sum(int k, int l) const;
  /// Σ_{l=0..L} a_l (useful for bounds).
  Bytes total_activations() const;

  bool operator==(const Chain& other) const = default;

 private:
  void check_range(int k, int l) const;

  std::string name_;
  std::vector<Layer> layers_;
  std::vector<Bytes> activation_;        // a_0..a_L
  std::vector<Seconds> prefix_forward_;  // prefix_forward_[l] = Σ_{i<=l} u_F
  std::vector<Seconds> prefix_backward_;
  std::vector<Bytes> prefix_weight_;
  std::vector<Bytes> prefix_scratch_;
  std::vector<Bytes> prefix_activation_;  // Σ_{i<=l} a_i, i from 0
};

/// Convenience builder for tests and examples: uniform chain of `length`
/// layers, every layer with the given parameters.
Chain make_uniform_chain(int length, Seconds forward_time, Seconds backward_time,
                         Bytes weight_bytes, Bytes activation_bytes,
                         Bytes input_bytes, const std::string& name = "uniform");

}  // namespace madpipe
