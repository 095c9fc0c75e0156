// Registry of the paper's evaluation networks (§5.1): ResNet-50,
// ResNet-101, Inception-v3, DenseNet-121, profiled at a given square image
// size and mini-batch size on a device model, then linearized to a target
// chain length. build_network additionally accepts the LLM-scale
// transformer presets of models/transformer.hpp (list_transformer_presets),
// for which image_size is ignored; list_networks() stays the paper's four —
// benches and property tests iterate it at paper scale.
#pragma once

#include <string>
#include <vector>

#include "core/chain.hpp"
#include "models/cost_model.hpp"
#include "models/linearize.hpp"

namespace madpipe::models {

struct NetworkConfig {
  std::string network = "resnet50";  ///< see list_networks()
  int image_size = 1000;             ///< square input, pixels
  int batch = 8;                     ///< mini-batch size B
  int chain_length = 0;              ///< 0 = no coarsening
  DeviceModel device;
  CoarsenStrategy coarsen_strategy = CoarsenStrategy::MinCompute;
};

/// The paper's four network names. build_network also accepts
/// models::list_transformer_presets() names.
std::vector<std::string> list_networks();

/// Build the linearized profile chain for `config`. Throws on unknown names.
Chain build_network(const NetworkConfig& config);

/// The paper's default evaluation setting for a given network name:
/// 1000x1000 images, batch 8, coarsened to 24 stages.
Chain paper_network(const std::string& name);

}  // namespace madpipe::models
