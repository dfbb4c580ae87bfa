#include "seg/intraop.h"

#include <array>

#include "base/check.h"
#include "base/rng.h"
#include "image/distance.h"
#include "obs/trace.h"

namespace neuro::seg {

FeatureStack build_localization_channels(const ImageL& preop_labels,
                                         const IntraopSegmentationConfig& config,
                                         const std::vector<std::shared_ptr<ImageF>>& channels,
                                         Image3D<double>& squared, par::Communicator* comm) {
  NEURO_REQUIRE(!config.classes.empty(),
                "build_localization_channels: no classes configured");
  NEURO_REQUIRE(channels.size() == config.classes.size(),
                "build_localization_channels: need one channel buffer per class");
  obs::Span span = obs::global_span("seg.localization");
  FeatureStack localization;
  for (std::size_t c = 0; c < channels.size(); ++c) {
    distance_to_label(preop_labels, config.classes[c], config.dt_saturation_mm, *channels[c],
                      squared, comm);
    localization.add_channel(channels[c], config.dt_weight);
  }
  return localization;
}

FeatureStack build_localization_channels(const ImageL& preop_labels,
                                         const IntraopSegmentationConfig& config) {
  std::vector<std::shared_ptr<ImageF>> channels;
  for (std::size_t c = 0; c < config.classes.size(); ++c) {
    channels.push_back(std::make_shared<ImageF>(preop_labels.dims(), 0.0f,
                                                preop_labels.spacing(),
                                                preop_labels.origin()));
  }
  Image3D<double> squared(preop_labels.dims(), 0.0, preop_labels.spacing(),
                          preop_labels.origin());
  return build_localization_channels(preop_labels, config, channels, squared, nullptr);
}

FeatureStack build_feature_stack(const ImageF& scan, const FeatureStack& localization,
                                 const IntraopSegmentationConfig& config) {
  NEURO_REQUIRE(scan.dims() == localization.dims(),
                "build_feature_stack: scan/localization dims mismatch");
  obs::Span span = obs::global_span("seg.features");
  FeatureStack stack;
  stack.add_channel(scan, config.intensity_weight);
  stack.add_channels(localization);
  return stack;
}

FeatureStack build_feature_stack(const ImageF& scan, const ImageL& preop_labels,
                                 const IntraopSegmentationConfig& config) {
  NEURO_REQUIRE(scan.dims() == preop_labels.dims(),
                "build_feature_stack: scan/labels dims mismatch");
  return build_feature_stack(scan, build_localization_channels(preop_labels, config),
                             config);
}

std::vector<Prototype> model_prototypes(const FeatureStack& stack,
                                        const ImageL& preop_labels,
                                        const IntraopSegmentationConfig& config,
                                        const std::vector<Prototype>* reuse) {
  obs::Span span = obs::global_span("seg.prototypes");
  if (reuse != nullptr && !reuse->empty()) {
    std::vector<Prototype> prototypes = *reuse;
    refresh_prototypes(prototypes, stack);
    span.attr("refreshed", static_cast<std::int64_t>(prototypes.size()));
    return prototypes;
  }
  // First scan: select the statistical model from the preoperative
  // segmentation (standing in for the < 5 minutes of expert interaction).
  Rng rng(config.seed);
  std::vector<Prototype> prototypes = select_prototypes_robust(
      preop_labels, stack, config.prototypes_per_class, rng, config.exclude_classes,
      config.prototype_margin_mm, config.prototype_trim_mads);
  span.attr("selected", static_cast<std::int64_t>(prototypes.size()));
  return prototypes;
}

IntraopSegmentation segment_intraop(const ImageF& scan, const ImageL& preop_labels,
                                    const IntraopSegmentationConfig& config,
                                    par::Communicator* comm,
                                    const std::vector<Prototype>* reuse) {
  const FeatureStack stack = build_feature_stack(scan, preop_labels, config);
  IntraopSegmentation result;
  result.prototypes = model_prototypes(stack, preop_labels, config, reuse);
  const KnnClassifier classifier(result.prototypes, config.k);
  result.labels = comm != nullptr ? classifier.classify_volume_parallel(stack, *comm)
                                  : classifier.classify_volume(stack);
  return result;
}

ImageL mask_of_labels(const ImageL& labels, const std::vector<std::uint8_t>& keep) {
  std::array<std::uint8_t, 256> kept{};
  for (const std::uint8_t l : keep) kept[l] = 1;
  ImageL mask(labels.dims(), 0, labels.spacing(), labels.origin());
  const std::uint8_t* in = labels.data().data();
  std::uint8_t* out = mask.data().data();
  for (std::size_t i = 0; i < labels.size(); ++i) out[i] = kept[in[i]];
  return mask;
}

}  // namespace neuro::seg
