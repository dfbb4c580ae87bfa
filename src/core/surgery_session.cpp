#include "core/surgery_session.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace neuro::core {

SurgerySession::SurgerySession(ImageF preop, ImageL preop_labels,
                               PipelineConfig config, SessionRetention retention)
    : preop_(std::move(preop)),
      preop_labels_(std::move(preop_labels)),
      config_(std::move(config)),
      retention_(retention) {
  NEURO_REQUIRE(preop_.dims() == preop_labels_.dims(),
                "SurgerySession: preop image/labels dims mismatch");
  NEURO_REQUIRE(!config_.brain_labels.empty(),
                "SurgerySession: config.brain_labels unset — start from "
                "default_pipeline_config()");
}

SurgerySession::SurgerySession(ImageF preop, ImageL preop_labels,
                               PipelineConfig config,
                               const SessionCheckpoint& checkpoint,
                               SessionRetention retention)
    : SurgerySession(std::move(preop), std::move(preop_labels),
                     std::move(config), retention) {
  NEURO_REQUIRE(checkpoint.scans_processed >= 0,
                "SurgerySession: negative checkpoint scan count");
  prototypes_ = checkpoint.prototypes;
  last_good_field_ = checkpoint.last_good_field;
  scans_processed_ = checkpoint.scans_processed;
  first_retained_scan_ = checkpoint.scans_processed;
  summary_offset_ = checkpoint.scans_processed;
}

const PipelineResult& SurgerySession::process_scan(const ImageF& intraop) {
  return process_scan(intraop, ScanOverrides{});
}

const PipelineResult& SurgerySession::process_scan(
    const ImageF& intraop, const ScanOverrides& overrides) {
  const std::vector<seg::Prototype>* reuse =
      prototypes_.empty() ? nullptr : &prototypes_;
  const std::vector<Vec3>* last_good =
      last_good_field_.empty() ? nullptr : &last_good_field_;
  PipelineConfig config = config_;
  if (overrides.deadline_seconds >= 0.0) {
    config.deadline_seconds = overrides.deadline_seconds;
  }
  if (overrides.nranks > 0) {
    config.fem.nranks = overrides.nranks;
  }
  config.fem.fault_injection.seed += overrides.fault_seed_offset;
  // The scan in flight counts against the retention bound: retire down to
  // keep_full_results - 1 first, so at most keep_full_results full results
  // are alive at any time, including while this scan's pipeline runs.
  if (retention_.keep_full_results > 0) {
    while (static_cast<int>(results_.size()) >= retention_.keep_full_results) {
      results_.erase(results_.begin());
      ++first_retained_scan_;
    }
  }
  // Registration gives every rigid-on scan a new transform, so such a
  // session would only ever hold a model that cannot match.
  std::shared_ptr<const PreopModel>* model =
      config_.do_rigid_registration ? nullptr : &preop_model_;
  results_.push_back(run_intraop_pipeline(preop_, preop_labels_, intraop,
                                          config, reuse, last_good, model));
  ++scans_processed_;
  const PipelineResult& r = results_.back();
  // Carry the (refreshed) model and the validated field forward. The ladder
  // ignores a checkpoint whose size no longer matches the scan's mesh.
  prototypes_ = r.segmentation.prototypes;
  last_good_field_ = r.fem.node_displacements;
  // Every scan keeps a summary; only the last keep_full_results scans keep
  // their full (image-heavy) result (see the retention contract above).
  ScanSummary summary;
  summary.timeline = r.timeline;
  summary.total_seconds = r.total_seconds;
  summary.converged = r.fem.stats.converged;
  summary.degraded = r.degradation.degraded;
  summary.rung = r.degradation.rung;
  summary.trigger = r.degradation.trigger;
  summary.num_equations = r.fem.num_equations;
  summaries_.push_back(std::move(summary));
  return results_.back();
}

bool SurgerySession::has_full_result(int scan) const {
  return scan >= first_retained_scan_ && scan < scans_processed_;
}

const PipelineResult& SurgerySession::result(int scan) const {
  NEURO_REQUIRE(scan >= 0 && scan < scans_processed_,
                "SurgerySession::result: scan " << scan << " of "
                                                << scans_processed_);
  NEURO_REQUIRE(has_full_result(scan),
                "SurgerySession::result: scan "
                    << scan << " retired by the retention policy (keeping "
                    << retention_.keep_full_results
                    << " full results, oldest retained is scan "
                    << first_retained_scan_ << "); use summary(scan)");
  return results_[static_cast<std::size_t>(scan - first_retained_scan_)];
}

const PipelineResult& SurgerySession::latest() const {
  NEURO_REQUIRE(!results_.empty(), "SurgerySession::latest: no scans processed");
  return results_.back();
}

const ScanSummary& SurgerySession::summary(int scan) const {
  NEURO_REQUIRE(scan >= summary_offset_ && scan < scans_processed_,
                "SurgerySession::summary: scan "
                    << scan << " outside [" << summary_offset_ << ", "
                    << scans_processed_ << ") recorded by this session");
  return summaries_[static_cast<std::size_t>(scan - summary_offset_)];
}

SessionCheckpoint SurgerySession::checkpoint() const {
  SessionCheckpoint cp;
  cp.prototypes = prototypes_;
  cp.last_good_field = last_good_field_;
  cp.scans_processed = scans_processed_;
  return cp;
}

std::vector<StageTiming> SurgerySession::cumulative_timeline() const {
  std::vector<StageTiming> total;
  for (const auto& summary : summaries_) {
    for (const auto& stage : summary.timeline) {
      auto it = std::find_if(total.begin(), total.end(), [&](const StageTiming& s) {
        return s.name == stage.name;
      });
      if (it == total.end()) {
        total.push_back(stage);
      } else {
        it->seconds += stage.seconds;
      }
    }
  }
  return total;
}

}  // namespace neuro::core
