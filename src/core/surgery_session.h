// Multi-scan intraoperative session.
//
// The paper's clinical protocol (§3.1): "In each neurosurgery case several
// volumetric MRI scans were carried out during surgery. The first scan was
// acquired at the beginning of the procedure … and then over the course of
// surgery other scans were acquired as the surgeon checked the progress of
// tumor resection." The statistical classification model is built once
// ("less than five minutes of user interaction") and updated automatically
// for later scans by re-reading the recorded prototype locations.
//
// SurgerySession packages that workflow: construct it with the preoperative
// data, feed it intraoperative scans as they arrive, and it runs the full
// pipeline per scan while carrying the prototype model forward.
//
// Memory contract (docs/service.md): a session may outlive dozens of scans
// under service::SessionServer, and a full PipelineResult retains every
// stage image of its scan. Sessions therefore keep only the last
// `SessionRetention::keep_full_results` full results; every scan keeps a
// lightweight ScanSummary (timings, degradation report, solve stats)
// forever, so the aggregate timeline and the audit trail never truncate.
//
// Preoperative model reuse (docs/perf.md): a session whose scans share a
// frame (rigid registration off) keeps the PreopModel of its last scan and
// hands it to the next one, which skips every preop-derived rebuild when the
// model's key still matches. The results are the bits a fresh pipeline
// produces. A session with rigid registration on registers every scan anew,
// so its key never repeats and it keeps no model.
//
// Crash/eviction contract: checkpoint() captures everything a future
// process (or a re-created session in the same server) needs to continue
// the case — the prototype model and the last validated field — and the
// restoring constructor resumes from such a checkpoint. The preop model is
// not part of it: it is derived data, and the resumed session's first scan
// rebuilds it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pipeline.h"

namespace neuro::core {

/// Bounds how many full PipelineResults a session retains (see file header).
/// The bound includes the scan being processed: process_scan retires the
/// oldest results before its pipeline runs, so at most keep_full_results
/// full results are alive at any time (≈50 MB each at the 96³ Fig. 6 shape).
/// Non-positive keep_full_results means "keep every result" — the historical
/// behavior, for offline analysis runs that genuinely want all images.
struct SessionRetention {
  int keep_full_results = 3;
};

/// The carried-forward state of a session, sufficient to resume the case
/// after the owning object (or process) went away: the statistical model and
/// the ladder's last-good field. Scans already processed stay counted so a
/// resumed session numbers its scans continuously.
struct SessionCheckpoint {
  std::vector<seg::Prototype> prototypes;
  std::vector<Vec3> last_good_field;
  int scans_processed = 0;
};

/// One scan's lightweight record, retained for every scan regardless of the
/// full-result retention window.
struct ScanSummary {
  std::vector<StageTiming> timeline;
  double total_seconds = 0.0;
  bool converged = false;
  bool degraded = false;
  fem::DegradationRung rung = fem::DegradationRung::kFullSolve;
  base::Status trigger;  ///< why the ladder left rung 0 (kOk when it did not)
  int num_equations = 0;
};

/// Per-scan steering applied on top of the session's fixed config, used by
/// service::SessionServer: the remaining budget of the request driving this
/// scan, the rank count granted by the shared pool, and a fault-injection
/// seed offset so a retried solve draws a fresh (still deterministic) fault
/// stream instead of replaying the identical transient fault.
struct ScanOverrides {
  double deadline_seconds = -1.0;       ///< < 0: keep config; 0: unlimited
  int nranks = 0;                       ///< <= 0: keep config
  std::uint64_t fault_seed_offset = 0;  ///< added to fem.fault_injection.seed
};

class SurgerySession {
 public:
  SurgerySession(ImageF preop, ImageL preop_labels, PipelineConfig config,
                 SessionRetention retention = {});

  /// Resumes a case from a checkpoint (docs/service.md): the prototype model
  /// and the last-good field are restored, so the next process_scan behaves
  /// like the (scans_processed+1)-th scan of the original session. The
  /// checkpoint's per-scan results and summaries are gone — only the state
  /// needed to continue correctly survives a crash, by design.
  SurgerySession(ImageF preop, ImageL preop_labels, PipelineConfig config,
                 const SessionCheckpoint& checkpoint,
                 SessionRetention retention = {});

  /// Runs the pipeline on the next intraoperative scan. The first call
  /// selects the prototype model; later calls reuse it (locations persist,
  /// signals refresh). Returns the stored result for this scan; the
  /// reference stays valid until the `retention.keep_full_results`-th
  /// further call to process_scan starts (a call retires old results even
  /// when its pipeline then throws).
  const PipelineResult& process_scan(const ImageF& intraop);
  /// Same, with per-scan overrides (deadline, rank count, fault seed shift)
  /// applied to a copy of the session config for this scan only.
  const PipelineResult& process_scan(const ImageF& intraop,
                                     const ScanOverrides& overrides);

  /// Total scans processed over the whole case, including scans processed
  /// before a checkpoint/restore and scans whose full result has been
  /// retired by the retention policy.
  [[nodiscard]] int scans_processed() const { return scans_processed_; }

  /// True when `scan`'s full PipelineResult is still retained.
  [[nodiscard]] bool has_full_result(int scan) const;
  /// The full result of a retained scan; requires has_full_result(scan).
  [[nodiscard]] const PipelineResult& result(int scan) const;
  [[nodiscard]] const PipelineResult& latest() const;

  /// The lightweight summary of any scan processed by *this* object
  /// (summaries do not survive a checkpoint/restore).
  [[nodiscard]] const ScanSummary& summary(int scan) const;
  [[nodiscard]] int summaries_recorded() const {
    return static_cast<int>(summaries_.size());
  }

  /// The carried statistical model (empty before the first scan).
  [[nodiscard]] const std::vector<seg::Prototype>& prototypes() const {
    return prototypes_;
  }

  /// The last validated deformation field (empty before the first scan).
  /// Every accepted ladder rung passes the validation gate, so this is
  /// always safe to hand to the next scan as the ladder's final fallback.
  [[nodiscard]] const std::vector<Vec3>& last_good_field() const {
    return last_good_field_;
  }

  /// The preop model the next scan is offered (see file header); null
  /// before the first scan, after a restore, and always with rigid
  /// registration on.
  [[nodiscard]] const PreopModel* preop_model() const { return preop_model_.get(); }

  /// Everything needed to resume this case elsewhere (see SessionCheckpoint).
  [[nodiscard]] SessionCheckpoint checkpoint() const;

  /// Stage-by-stage seconds summed over all scans this object processed
  /// (summaries, so retired full results still contribute).
  [[nodiscard]] std::vector<StageTiming> cumulative_timeline() const;

  [[nodiscard]] const PipelineConfig& config() const { return config_; }
  [[nodiscard]] const SessionRetention& retention() const { return retention_; }

 private:
  ImageF preop_;
  ImageL preop_labels_;
  PipelineConfig config_;
  SessionRetention retention_;
  std::vector<seg::Prototype> prototypes_;
  /// The retained tail of full results: results_[i] is the full result of
  /// scan `first_retained_scan_ + i`.
  std::vector<PipelineResult> results_;
  int first_retained_scan_ = 0;
  int scans_processed_ = 0;
  std::vector<ScanSummary> summaries_;  ///< scans processed by this object
  int summary_offset_ = 0;  ///< scans processed before restore (no summaries)
  std::vector<Vec3> last_good_field_;  ///< checkpoint for the kLastGood rung
  std::shared_ptr<const PreopModel> preop_model_;  ///< offered to the next scan
};

}  // namespace neuro::core
