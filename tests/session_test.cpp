// Integration tests for the multi-scan SurgerySession: prototype-model reuse
// across scans, per-scan accuracy over a progressing deformation, the
// aggregate timeline, and preop-model reuse that reproduces a fresh pipeline
// bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "core/surgery_session.h"
#include "phantom/brain_phantom.h"

namespace neuro::core {
namespace {

TEST(ShiftProgressTest, ScalesAmplitudes) {
  phantom::ShiftConfig final_shift;
  final_shift.max_sink_mm = 8.0;
  final_shift.resection_collapse_mm = 3.0;

  const auto at0 = phantom::shift_at_progress(final_shift, 0.0);
  EXPECT_DOUBLE_EQ(at0.max_sink_mm, 0.0);
  EXPECT_FALSE(at0.resect_tumor);

  const auto at_quarter = phantom::shift_at_progress(final_shift, 0.25);
  EXPECT_DOUBLE_EQ(at_quarter.max_sink_mm, 2.0);
  EXPECT_FALSE(at_quarter.resect_tumor);  // before resection onset

  const auto at_full = phantom::shift_at_progress(final_shift, 1.0);
  EXPECT_DOUBLE_EQ(at_full.max_sink_mm, 8.0);
  EXPECT_TRUE(at_full.resect_tumor);
  EXPECT_DOUBLE_EQ(at_full.resection_collapse_mm, 3.0);

  EXPECT_THROW(phantom::shift_at_progress(final_shift, 1.5), CheckError);
}

TEST(CaseSequenceTest, SharedPreopIndependentIntraop) {
  phantom::PhantomConfig pc;
  pc.dims = {32, 32, 32};
  pc.spacing = {3.5, 3.5, 3.5};
  const auto cases =
      phantom::make_case_sequence(pc, phantom::ShiftConfig{}, {0.0, 0.5, 1.0});
  ASSERT_EQ(cases.size(), 3u);
  // Shared preoperative acquisition.
  EXPECT_EQ(cases[1].preop.data(), cases[0].preop.data());
  EXPECT_EQ(cases[2].preop_labels.data(), cases[0].preop_labels.data());
  // Independent intraop noise.
  EXPECT_NE(cases[1].intraop.data(), cases[0].intraop.data());
  // Deformation grows with progress.
  const ImageL mask = seg::mask_of_labels(cases[2].intraop_labels, {3, 4, 5, 6});
  const double d0 = field_stats(cases[0].true_backward_shift, &mask).mean_mm;
  const double d2 = field_stats(cases[2].true_backward_shift, &mask).mean_mm;
  EXPECT_LT(d0, 0.3);  // first scan: before any change
  EXPECT_GT(d2, 1.0);
}

TEST(CaseSequenceTest, RigidOffsetsPerScan) {
  phantom::PhantomConfig pc;
  pc.dims = {24, 24, 24};
  pc.spacing = {4.0, 4.0, 4.0};
  RigidTransform move;
  move.translation = {3, 0, 0};
  const auto cases = phantom::make_case_sequence(pc, phantom::ShiftConfig{},
                                                 {0.0, 1.0}, {RigidTransform{}, move});
  EXPECT_NEAR(cases[0].true_backward_shift(1, 1, 1).x, 0.0, 1e-9);
  EXPECT_NEAR(cases[1].true_backward_shift(1, 1, 1).x, -3.0, 1e-9);
  EXPECT_THROW(
      phantom::make_case_sequence(pc, phantom::ShiftConfig{}, {0.0, 1.0}, {move}),
      CheckError);
}

class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    phantom::PhantomConfig pc;
    pc.dims = {48, 48, 48};
    pc.spacing = {2.8, 2.8, 2.8};
    cases_ = new std::vector<phantom::PhantomCase>(phantom::make_case_sequence(
        pc, phantom::ShiftConfig{}, {0.35, 0.7, 1.0}));

    PipelineConfig config = default_pipeline_config();
    config.do_rigid_registration = false;
    session_ = new SurgerySession((*cases_)[0].preop, (*cases_)[0].preop_labels,
                                  config);
    for (const auto& cas : *cases_) session_->process_scan(cas.intraop);
  }
  static void TearDownTestSuite() {
    delete session_;
    delete cases_;
    session_ = nullptr;
    cases_ = nullptr;
  }

  static std::vector<phantom::PhantomCase>* cases_;
  static SurgerySession* session_;
};
std::vector<phantom::PhantomCase>* SessionTest::cases_ = nullptr;
SurgerySession* SessionTest::session_ = nullptr;

TEST_F(SessionTest, ProcessesAllScans) {
  EXPECT_EQ(session_->scans_processed(), 3);
  for (int s = 0; s < 3; ++s) {
    EXPECT_TRUE(session_->result(s).fem.stats.converged) << "scan " << s;
  }
  EXPECT_THROW(static_cast<void>(session_->result(3)), CheckError);
}

TEST_F(SessionTest, PrototypeModelPersistsAcrossScans) {
  // The model selected on scan 1 is reused: same voxel locations afterwards.
  const auto& p1 = session_->result(0).segmentation.prototypes;
  const auto& p3 = session_->result(2).segmentation.prototypes;
  ASSERT_EQ(p1.size(), p3.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].voxel, p3[i].voxel);
    EXPECT_EQ(p1[i].label, p3[i].label);
  }
  EXPECT_EQ(session_->prototypes().size(), p1.size());
}

TEST_F(SessionTest, EachScanBeatsRigidOnly) {
  for (int s = 1; s < 3; ++s) {  // scan 0 has almost no deformation to recover
    const auto report =
        evaluate_against_truth(session_->result(s), (*cases_)[static_cast<std::size_t>(s)]);
    EXPECT_LT(report.recovered_error.mean_mm, report.residual_rigid_only.mean_mm)
        << "scan " << s;
  }
}

TEST_F(SessionTest, RecoveredDeformationGrowsWithSurgery) {
  // Later scans carry more brain shift; the recovered fields must order the
  // same way.
  const double d1 = field_stats(session_->result(0).forward_field).mean_mm;
  const double d3 = field_stats(session_->result(2).forward_field).mean_mm;
  EXPECT_LT(d1, d3);
}

TEST_F(SessionTest, CumulativeTimelineSumsStages) {
  const auto total = session_->cumulative_timeline();
  ASSERT_FALSE(total.empty());
  double expected = 0.0;
  for (int s = 0; s < 3; ++s) {
    expected += session_->result(s).stage_seconds("tissue_classification");
  }
  const auto it = std::find_if(total.begin(), total.end(), [](const StageTiming& t) {
    return t.name == "tissue_classification";
  });
  ASSERT_NE(it, total.end());
  EXPECT_NEAR(it->seconds, expected, 1e-9);
}

class RetentionCaseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    phantom::PhantomConfig pc;
    pc.dims = {32, 32, 32};
    pc.spacing = {3.5, 3.5, 3.5};
    cases_ = new std::vector<phantom::PhantomCase>(phantom::make_case_sequence(
        pc, phantom::ShiftConfig{}, {0.0, 0.25, 0.5, 0.75, 1.0}));
  }
  static void TearDownTestSuite() {
    delete cases_;
    cases_ = nullptr;
  }
  static PipelineConfig config() {
    PipelineConfig config = default_pipeline_config();
    config.do_rigid_registration = false;
    return config;
  }

  static std::vector<phantom::PhantomCase>* cases_;
};
std::vector<phantom::PhantomCase>* RetentionCaseTest::cases_ = nullptr;

TEST_F(RetentionCaseTest, RetiresOldFullResultsKeepsEverySummary) {
  SurgerySession session((*cases_)[0].preop, (*cases_)[0].preop_labels,
                         config(), SessionRetention{.keep_full_results = 2});
  for (const auto& cas : *cases_) session.process_scan(cas.intraop);

  EXPECT_EQ(session.scans_processed(), 5);
  EXPECT_EQ(session.summaries_recorded(), 5);
  // Only the last two full (image-heavy) results survive.
  EXPECT_FALSE(session.has_full_result(0));
  EXPECT_FALSE(session.has_full_result(2));
  EXPECT_TRUE(session.has_full_result(3));
  EXPECT_TRUE(session.has_full_result(4));
  EXPECT_THROW(static_cast<void>(session.result(0)), CheckError);
  EXPECT_EQ(&session.result(4), &session.latest());
  // Every scan keeps its lightweight summary after the full result retires.
  for (int s = 0; s < 5; ++s) {
    EXPECT_FALSE(session.summary(s).timeline.empty()) << "scan " << s;
    EXPECT_GT(session.summary(s).total_seconds, 0.0) << "scan " << s;
  }
  // The cumulative timeline still covers all five scans, not just the
  // retained tail.
  const auto total = session.cumulative_timeline();
  double expected = 0.0;
  for (int s = 0; s < 5; ++s) {
    for (const auto& stage : session.summary(s).timeline) {
      if (stage.name == "tissue_classification") expected += stage.seconds;
    }
  }
  const auto it =
      std::find_if(total.begin(), total.end(), [](const StageTiming& t) {
        return t.name == "tissue_classification";
      });
  ASSERT_NE(it, total.end());
  EXPECT_NEAR(it->seconds, expected, 1e-9);
}

TEST_F(RetentionCaseTest, ResumesACaseFromItsCheckpoint) {
  SurgerySession original((*cases_)[0].preop, (*cases_)[0].preop_labels,
                          config());
  original.process_scan((*cases_)[0].intraop);
  original.process_scan((*cases_)[2].intraop);
  const SessionCheckpoint checkpoint = original.checkpoint();
  EXPECT_EQ(checkpoint.scans_processed, 2);
  ASSERT_FALSE(checkpoint.prototypes.empty());
  ASSERT_FALSE(checkpoint.last_good_field.empty());

  SurgerySession resumed((*cases_)[0].preop, (*cases_)[0].preop_labels,
                         config(), checkpoint);
  EXPECT_EQ(resumed.scans_processed(), 2);
  // Pre-restore scans kept their count but not their images or summaries.
  EXPECT_FALSE(resumed.has_full_result(1));
  EXPECT_THROW(static_cast<void>(resumed.result(1)), CheckError);
  EXPECT_THROW(static_cast<void>(resumed.summary(1)), CheckError);

  const auto& result = resumed.process_scan((*cases_)[4].intraop);
  EXPECT_EQ(resumed.scans_processed(), 3);
  EXPECT_TRUE(resumed.has_full_result(2));
  EXPECT_EQ(resumed.summaries_recorded(), 1);
  // The restored model is the one the original selected: same locations.
  const auto& prototypes = result.segmentation.prototypes;
  ASSERT_EQ(prototypes.size(), checkpoint.prototypes.size());
  for (std::size_t i = 0; i < prototypes.size(); ++i) {
    EXPECT_EQ(prototypes[i].voxel, checkpoint.prototypes[i].voxel);
    EXPECT_EQ(prototypes[i].label, checkpoint.prototypes[i].label);
  }
}

// --- Preoperative model reuse ------------------------------------------------

template <class T>
bool same_bytes(const T* a, std::size_t na, const T* b, std::size_t nb) {
  return na == nb && (na == 0 || std::memcmp(a, b, na * sizeof(T)) == 0);
}
template <class T>
bool same(const std::vector<T>& a, const std::vector<T>& b) {
  return same_bytes(a.data(), a.size(), b.data(), b.size());
}
template <class T>
bool same(const Image3D<T>& a, const Image3D<T>& b) {
  return a.same_grid(b) && same(a.data(), b.data());
}
template <class Id, class T>
bool same(const base::IdVector<Id, T>& a, const base::IdVector<Id, T>& b) {
  return same_bytes(a.data(), a.size(), b.data(), b.size());
}

void expect_same_segmentation(const seg::IntraopSegmentation& a,
                              const seg::IntraopSegmentation& b, const std::string& what) {
  EXPECT_TRUE(same(a.labels, b.labels)) << what;
  ASSERT_EQ(a.prototypes.size(), b.prototypes.size()) << what;
  for (std::size_t i = 0; i < a.prototypes.size(); ++i) {
    EXPECT_EQ(a.prototypes[i].voxel, b.prototypes[i].voxel) << what << ", prototype " << i;
    EXPECT_TRUE(same(a.prototypes[i].features, b.prototypes[i].features))
        << what << ", prototype " << i;
  }
}

/// Every product a scan hands on or shows, compared byte for byte.
void expect_same_result(const PipelineResult& a, const PipelineResult& b,
                        const std::string& what) {
  expect_same_segmentation(a.segmentation, b.segmentation, what);
  EXPECT_TRUE(same(a.preop_classified_labels, b.preop_classified_labels)) << what;
  EXPECT_TRUE(same(a.aligned_preop, b.aligned_preop)) << what;
  EXPECT_TRUE(same(a.brain_mesh.nodes, b.brain_mesh.nodes) &&
              same(a.brain_mesh.tets, b.brain_mesh.tets) &&
              same(a.brain_mesh.tet_labels, b.brain_mesh.tet_labels))
      << what;
  EXPECT_TRUE(same(a.surface_match.surface.vertices, b.surface_match.surface.vertices) &&
              same(a.surface_match.surface.mesh_nodes,
                   b.surface_match.surface.mesh_nodes) &&
              same(a.surface_match.displacements, b.surface_match.displacements))
      << what;
  EXPECT_TRUE(same(a.fem.node_displacements, b.fem.node_displacements)) << what;
  EXPECT_TRUE(same(a.forward_field, b.forward_field)) << what;
  EXPECT_TRUE(same(a.backward_field, b.backward_field)) << what;
  EXPECT_TRUE(same(a.warped_preop, b.warped_preop)) << what;
}

/// A session's state before a scan: what a fresh pipeline is handed.
struct SessionState {
  std::vector<seg::Prototype> prototypes;
  std::vector<Vec3> last_good;

  explicit SessionState(const SurgerySession& session)
      : prototypes(session.prototypes()), last_good(session.last_good_field()) {}

  [[nodiscard]] PipelineResult fresh(const phantom::PhantomCase& preop,
                                     const ImageF& intraop,
                                     const PipelineConfig& config) const {
    return run_intraop_pipeline(preop.preop, preop.preop_labels, intraop, config,
                                prototypes.empty() ? nullptr : &prototypes,
                                last_good.empty() ? nullptr : &last_good);
  }
};

class PreopModelReuseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    phantom::PhantomConfig pc;
    pc.dims = {32, 32, 32};
    pc.spacing = {3.5, 3.5, 3.5};
    cases_ = new std::vector<phantom::PhantomCase>(phantom::make_case_sequence(
        pc, phantom::ShiftConfig{}, {0.0, 0.4, 0.7, 1.0}));
  }
  static void TearDownTestSuite() {
    delete cases_;
    cases_ = nullptr;
  }
  static PipelineConfig config() {
    PipelineConfig config = default_pipeline_config();
    config.do_rigid_registration = false;
    return config;
  }
  static const phantom::PhantomCase& scan(std::size_t i) { return (*cases_)[i]; }

  static std::vector<phantom::PhantomCase>* cases_;
};
std::vector<phantom::PhantomCase>* PreopModelReuseTest::cases_ = nullptr;

TEST_F(PreopModelReuseTest, FollowUpScansMatchAFreshPipeline) {
  SurgerySession session(scan(0).preop, scan(0).preop_labels, config());
  const PipelineResult& first = session.process_scan(scan(0).intraop);
  EXPECT_FALSE(first.preop_model_reused);
  ASSERT_NE(session.preop_model(), nullptr);
  const PreopModel* model = session.preop_model();
  for (std::size_t s = 1; s < cases_->size(); ++s) {
    const SessionState before(session);
    const PipelineResult& reused = session.process_scan(scan(s).intraop);
    EXPECT_TRUE(reused.preop_model_reused) << "scan " << s;
    EXPECT_EQ(session.preop_model(), model) << "scan " << s;
    expect_same_result(reused, before.fresh(scan(0), scan(s).intraop, config()),
                       "scan " + std::to_string(s));
    // Both classifications also match the seg layer's own entry point, which
    // refreshes the carried prototypes against each scan.
    expect_same_segmentation(
        reused.segmentation,
        seg::segment_intraop(scan(s).intraop, reused.aligned_preop_labels, config().seg,
                             nullptr, &before.prototypes),
        "seg::segment_intraop, scan " + std::to_string(s));
    EXPECT_TRUE(same(reused.preop_classified_labels,
                     seg::segment_intraop(reused.aligned_preop, reused.aligned_preop_labels,
                                          config().seg, nullptr,
                                          &reused.segmentation.prototypes)
                         .labels))
        << "scan " << s;
  }
}

TEST_F(PreopModelReuseTest, HitMatchesFreshAtEachRankCount) {
  // The request's rank grant changes from scan to scan under the service.
  // The model built on scan 0's ranks serves scan 2 on any other count.
  SurgerySession opened(scan(0).preop, scan(0).preop_labels, config());
  opened.process_scan(scan(0).intraop);
  const SessionState before(opened);
  for (const int nranks : {1, 2, 4}) {
    SurgerySession session(scan(0).preop, scan(0).preop_labels, config());
    session.process_scan(scan(0).intraop);
    const PipelineResult& hit =
        session.process_scan(scan(2).intraop, ScanOverrides{.nranks = nranks});
    EXPECT_TRUE(hit.preop_model_reused) << nranks << " ranks";
    PipelineConfig ranks = config();
    ranks.fem.nranks = nranks;
    expect_same_result(hit, before.fresh(scan(0), scan(2).intraop, ranks),
                       std::to_string(nranks) + " ranks");
  }
}

TEST_F(PreopModelReuseTest, RestoredSessionRebuildsThenReuses) {
  SurgerySession original(scan(0).preop, scan(0).preop_labels, config());
  original.process_scan(scan(0).intraop);
  original.process_scan(scan(1).intraop);
  SurgerySession resumed(scan(0).preop, scan(0).preop_labels, config(),
                         original.checkpoint());
  EXPECT_EQ(resumed.preop_model(), nullptr);  // not part of the checkpoint
  for (const std::size_t s : {2, 3}) {
    const SessionState before(resumed);
    const PipelineResult& r = resumed.process_scan(scan(s).intraop);
    EXPECT_EQ(r.preop_model_reused, s == 3) << "scan " << s;
    expect_same_result(r, before.fresh(scan(0), scan(s).intraop, config()),
                       "resumed scan " + std::to_string(s));
  }
}

TEST_F(PreopModelReuseTest, ScanOnAnotherGridRebuilds) {
  SurgerySession session(scan(0).preop, scan(0).preop_labels, config());
  session.process_scan(scan(0).intraop);
  // The same voxels one voxel further along x: a different intraop grid.
  const ImageF& base = scan(1).intraop;
  ImageF moved(base.dims(), 0.0f, base.spacing(),
               base.origin() + Vec3{base.spacing().x, 0.0, 0.0});
  moved.data() = base.data();
  const SessionState before(session);
  const PipelineResult& r = session.process_scan(moved);
  EXPECT_FALSE(r.preop_model_reused);
  ASSERT_NE(session.preop_model(), nullptr);
  EXPECT_EQ(session.preop_model()->grid_origin.x, moved.origin().x);
  expect_same_result(r, before.fresh(scan(0), moved, config()), "moved grid");
  // Back on the original grid the key changes again: another rebuild.
  const PipelineResult& back = session.process_scan(scan(2).intraop);
  EXPECT_FALSE(back.preop_model_reused);
}

TEST_F(PreopModelReuseTest, OtherPrototypesRebuild) {
  // The model's preop classification depends on the prototype locations;
  // a caller handing other prototypes gets a rebuild, not a stale model.
  std::shared_ptr<const PreopModel> slot;
  const PipelineResult first = run_intraop_pipeline(
      scan(0).preop, scan(0).preop_labels, scan(0).intraop, config(), nullptr, nullptr,
      &slot);
  ASSERT_NE(slot, nullptr);
  std::vector<seg::Prototype> fewer = first.segmentation.prototypes;
  fewer.pop_back();
  const PipelineResult r = run_intraop_pipeline(scan(0).preop, scan(0).preop_labels,
                                                scan(1).intraop, config(), &fewer,
                                                nullptr, &slot);
  EXPECT_FALSE(r.preop_model_reused);
  expect_same_result(r,
                     run_intraop_pipeline(scan(0).preop, scan(0).preop_labels,
                                          scan(1).intraop, config(), &fewer),
                     "fewer prototypes");
  const PipelineResult again = run_intraop_pipeline(
      scan(0).preop, scan(0).preop_labels, scan(2).intraop, config(), &fewer, nullptr,
      &slot);
  EXPECT_TRUE(again.preop_model_reused);
}

TEST_F(PreopModelReuseTest, RigidSessionKeepsNoModel) {
  PipelineConfig rigid = config();
  rigid.do_rigid_registration = true;
  SurgerySession session(scan(0).preop, scan(0).preop_labels, rigid);
  for (const std::size_t s : {0, 1}) {
    const PipelineResult& r = session.process_scan(scan(s).intraop);
    EXPECT_FALSE(r.preop_model_reused) << "scan " << s;
    EXPECT_EQ(session.preop_model(), nullptr) << "scan " << s;
  }
}

TEST(SessionConstructionTest, RejectsBadInputs) {
  EXPECT_THROW(SurgerySession(ImageF({4, 4, 4}), ImageL({5, 5, 5}),
                              default_pipeline_config()),
               CheckError);
  EXPECT_THROW(SurgerySession(ImageF({4, 4, 4}), ImageL({4, 4, 4}),
                              PipelineConfig{}),
               CheckError);
  SurgerySession fresh(ImageF({4, 4, 4}), ImageL({4, 4, 4}),
                       default_pipeline_config());
  EXPECT_THROW(static_cast<void>(fresh.latest()), CheckError);
}

}  // namespace
}  // namespace neuro::core
