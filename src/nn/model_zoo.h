// Model zoo: the two CNNs of the Table 3 accuracy experiment, scaled to the
// procedural dataset ("MiniVGG" for VGG16, "MiniResNet" for ResNet-50 — see
// DESIGN.md for the substitution rationale), plus the Table 2 layer list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/graph.h"
#include "tensor/conv_desc.h"

namespace lowino {

/// VGG-style: stacked 3x3 convs + maxpool + dense head. All convs are
/// Winograd-eligible (3x3, stride 1, pad 1).
SequentialModel make_minivgg(std::size_t hw = 16, std::size_t classes = 10,
                             std::uint64_t seed = 1);

/// ResNet-style: stem conv + residual blocks + dense head.
SequentialModel make_miniresnet(std::size_t hw = 16, std::size_t classes = 10,
                                std::uint64_t seed = 2);

/// MobileNet-style: stem conv, then depthwise-separable blocks (depthwise 3x3
/// with groups == C followed by a pointwise 1x1) — the workload the dedicated
/// int8_dw engine exists for, its pointwise convs run by int8_direct. No
/// layer is Winograd-eligible except the stem.
SequentialModel make_minimobilenet(std::size_t hw = 16, std::size_t classes = 10,
                                   std::uint64_t seed = 3);

/// One row of Table 2 (benchmarked convolutional layers).
struct PaperLayer {
  std::string name;
  ConvDesc desc;
};

/// The 20 layers of Table 2, verbatim (batch 64 for classification networks,
/// batch 1 for detection/segmentation). `batch_override` != 0 scales the
/// batch-64 entries down for quick runs.
std::vector<PaperLayer> paper_layers_table2(std::size_t batch_override = 0);

}  // namespace lowino
