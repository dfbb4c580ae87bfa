// Intraoperative segmentation driver (paper §2, Fig. 1 "Tissue Classification").
//
// Builds the multichannel feature space — intraoperative MR intensity plus one
// saturated-distance-transform channel per preoperative tissue class (the
// "explicit 3D volumetric spatially varying model of the location of that
// tissue class") — selects prototypes from the preoperative data, and runs the
// k-NN classifier to segment the new scan. A brain mask is derived from the
// result for the active-surface stage.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "image/image3d.h"
#include "par/communicator.h"
#include "seg/knn.h"

namespace neuro::seg {

struct IntraopSegmentationConfig {
  std::vector<std::uint8_t> classes;   ///< labels to model with DT channels
  /// Labels that get no prototypes (thin/rare structures — falx, tumor — that
  /// the intraoperative statistical model should not try to classify; their
  /// voxels fall to the nearest coarse class, as in the paper's five-class
  /// intraoperative model).
  std::vector<std::uint8_t> exclude_classes;
  /// Prototype robustness (see select_prototypes_robust): candidates must lie
  /// this far inside their class, and intensity outliers beyond
  /// `prototype_trim_mads` MADs of the class median are discarded. Together
  /// these keep the statistical model clean where brain shift has moved a
  /// different tissue under a recorded preoperative label.
  double prototype_margin_mm = 6.0;
  double prototype_trim_mads = 4.0;

  double dt_saturation_mm = 20.0;      ///< saturation cap of the localization model
  double dt_weight = 4.0;              ///< feature-space weight of DT channels
  double intensity_weight = 1.0;
  int prototypes_per_class = 60;
  int k = 5;
  std::uint64_t seed = 7;
};

/// Result of segmenting one intraoperative scan.
struct IntraopSegmentation {
  ImageL labels;                       ///< full classification
  std::vector<Prototype> prototypes;   ///< reusable statistical model
};

/// The localization model of a (registered) preoperative segmentation: one
/// saturated DT channel per class in `config.classes`, weighted dt_weight.
/// It depends on the labels alone, so every scan classified against the same
/// labels can share one build.
FeatureStack build_localization_channels(const ImageL& preop_labels,
                                         const IntraopSegmentationConfig& config);

/// build_localization_channels into the caller's buffers: channel c is
/// `channels[c]`, filled with the saturated distance to config.classes[c],
/// and `squared` is the distance transforms' working grid, all on the labels'
/// grid. The function above is this call with buffers of its own and no
/// communicator.
///
/// With a communicator the call is collective and every rank passes the same
/// buffers: the ranks split each transform's lines (the collective
/// distance_to_label), and every rank returns the same stack over the filled
/// channels, the serial one bit for bit. The caller allocates the buffers on
/// its own thread before the rank region starts.
FeatureStack build_localization_channels(const ImageL& preop_labels,
                                         const IntraopSegmentationConfig& config,
                                         const std::vector<std::shared_ptr<ImageF>>& channels,
                                         Image3D<double>& squared, par::Communicator* comm);

/// The feature stack of a scan: channel 0 is the scan intensity, then the
/// channels of `localization` (shared, not copied).
FeatureStack build_feature_stack(const ImageF& scan, const FeatureStack& localization,
                                 const IntraopSegmentationConfig& config);

/// Builds the feature stack for a scan given the (registered) preoperative
/// segmentation: channel 0 is the scan intensity, then one saturated DT per
/// class in `config.classes`.
FeatureStack build_feature_stack(const ImageF& scan, const ImageL& preop_labels,
                                 const IntraopSegmentationConfig& config);

/// Segments an intraoperative scan. `preop_labels` must already be rigidly
/// aligned to the scan. If `reuse` is non-null, its prototypes' recorded
/// locations are refreshed against the new scan instead of selecting new ones
/// (the paper's automatic model update for follow-up scans).
IntraopSegmentation segment_intraop(const ImageF& scan, const ImageL& preop_labels,
                                    const IntraopSegmentationConfig& config,
                                    par::Communicator* comm = nullptr,
                                    const std::vector<Prototype>* reuse = nullptr);

/// The statistical model segment_intraop classifies `stack` with: `reuse`'s
/// recorded locations refreshed against the stack when non-null and
/// non-empty, else a robust selection from `preop_labels` (config.seed).
/// Callers that classify on several ranks build it once, before the SPMD
/// region, and hand it to KnnClassifier::classify_volume_parallel.
std::vector<Prototype> model_prototypes(const FeatureStack& stack,
                                        const ImageL& preop_labels,
                                        const IntraopSegmentationConfig& config,
                                        const std::vector<Prototype>* reuse = nullptr);

/// Binary mask (1/0) of voxels carrying any of the given labels.
ImageL mask_of_labels(const ImageL& labels, const std::vector<std::uint8_t>& keep);

}  // namespace neuro::seg
