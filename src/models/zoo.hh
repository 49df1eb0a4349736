/**
 * @file
 * The paper's three vision workloads as graph builders.
 *
 * - resnet50():     torchvision ResNet-50 classifier, 3x224x224.
 * - fcnResnet50():  torchvision fcn_resnet50 semantic segmentation
 *                   (dilated output-stride-8 backbone + FCN head +
 *                   aux head), 3x224x224 as in the paper.
 * - yolov8n():      Ultralytics YOLOv8-nano detector, 3x640x640
 *                   (CSP backbone with C2f blocks, SPPF, PAN neck,
 *                   decoupled anchor-free detect head).
 *
 * Parameter counts are pinned against the published models by unit
 * tests (ResNet50 25.6 M, FCN_ResNet50 35.3 M, YOLOv8n 3.2 M).
 */

#ifndef JETSIM_MODELS_ZOO_HH
#define JETSIM_MODELS_ZOO_HH

#include <string>
#include <vector>

#include "graph/network.hh"

namespace jetsim::models {

/** ResNet-50 image classifier (ImageNet head). */
graph::Network resnet50();

/** FCN_ResNet50 segmentation model (21 classes, as torchvision). */
graph::Network fcnResnet50();

/** YOLOv8n object detector (80 classes). */
graph::Network yolov8n();

/** @name Extension models (beyond the paper's three)
 * Useful for mixed-tenancy studies and for exercising paths the
 * paper's models do not (basic residual blocks, depthwise
 * convolutions).
 * @{ */

/** ResNet-18 classifier (basic blocks, 11.7 M params). */
graph::Network resnet18();

/** MobileNetV2 classifier (inverted residuals, 3.5 M params). */
graph::Network mobilenetV2();
/** @} */

/** The model names the paper sweeps, in its presentation order. */
const std::vector<std::string> &paperModelNames();

/** Every model the zoo can build (paper three + extensions). */
const std::vector<std::string> &allModelNames();

/**
 * The zoo model called @p name; fatal() on unknown names. Each model
 * is built once per process, on first use, and every call returns
 * that same immutable network (thread-safe).
 */
const graph::Network &modelByName(const std::string &name);

} // namespace jetsim::models

#endif // JETSIM_MODELS_ZOO_HH
