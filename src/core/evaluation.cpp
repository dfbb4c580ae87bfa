#include "core/evaluation.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "base/check.h"
#include "image/distance.h"
#include "image/filters.h"
#include "seg/knn.h"

namespace neuro::core {

AccuracyReport evaluate_against_truth(const PipelineResult& result,
                                      const phantom::PhantomCase& truth) {
  using phantom::Tissue;
  AccuracyReport report;

  const std::vector<std::uint8_t> brainish = {
      phantom::label(Tissue::kBrain), phantom::label(Tissue::kVentricle),
      phantom::label(Tissue::kFalx), phantom::label(Tissue::kTumor)};
  const ImageL true_mask = seg::mask_of_labels(truth.intraop_labels, brainish);

  report.residual_rigid_only = field_stats(truth.true_backward_shift, &true_mask);

  // Recovered total backward map composed with the rigid stage:
  // intraop y → preop T(y + v_nr(y)); truth maps y → y + v_true(y).
  {
    ImageV err(truth.true_backward_shift.dims(), Vec3{},
               truth.true_backward_shift.spacing(), truth.true_backward_shift.origin());
    const IVec3 d = err.dims();
    for (int k = 0; k < d.z; ++k) {
      for (int j = 0; j < d.y; ++j) {
        for (int i = 0; i < d.x; ++i) {
          const Vec3 y = err.voxel_to_physical(i, j, k);
          const Vec3 recovered = result.rigid.apply(y + result.backward_field(i, j, k));
          const Vec3 expected = y + truth.true_backward_shift(i, j, k);
          err(i, j, k) = recovered - expected;
        }
      }
    }
    report.recovered_error = field_stats(err, &true_mask);
  }

  report.mad_rigid_only =
      mean_abs_difference(result.aligned_preop, truth.intraop, &true_mask);
  report.mad_simulated =
      mean_abs_difference(result.warped_preop, truth.intraop, &true_mask);

  // Boundary band: within 3 mm of the true intraop brain surface — where the
  // paper's Fig. 4d judges the match. No voxel centre lies closer to the
  // surface than one spacing, so on grids coarser than 3 mm the half-width
  // widens to the largest spacing; otherwise the band would be empty.
  {
    const ImageF sdf = signed_distance_to_label(true_mask, 1, 1000.0);
    const Vec3 h = true_mask.spacing();
    const double half_width = std::max({3.0, h.x, h.y, h.z});
    ImageL band(true_mask.dims(), 0, true_mask.spacing(), true_mask.origin());
    for (std::size_t i = 0; i < band.size(); ++i) {
      band.data()[i] = std::abs(sdf.data()[i]) <= half_width ? 1 : 0;
    }
    report.mad_boundary_rigid_only =
        mean_abs_difference(result.aligned_preop, truth.intraop, &band);
    report.mad_boundary_simulated =
        mean_abs_difference(result.warped_preop, truth.intraop, &band);
  }

  report.brain_dice = seg::dice_coefficient(result.intraop_brain_mask, true_mask, 1);
  report.surface_residual_mm = result.surface_match.mean_abs_potential;
  return report;
}

void print_report(const AccuracyReport& r, std::ostream& os) {
  // Format into a local stream so the caller's flags are never disturbed.
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(2);
  auto f = [&oss](double v, int width = 6) -> std::ostringstream& {
    oss << std::setw(width) << v;
    return oss;
  };
  oss << "  residual after rigid only : mean ";
  f(r.residual_rigid_only.mean_mm) << " mm   max ";
  f(r.residual_rigid_only.max_mm) << " mm\n";
  oss << "  recovered-field error     : mean ";
  f(r.recovered_error.mean_mm) << " mm   max ";
  f(r.recovered_error.max_mm) << " mm\n";
  oss << "  intensity MAD (brain)     : rigid-only ";
  f(r.mad_rigid_only) << "  simulated ";
  f(r.mad_simulated) << "\n";
  oss << "  intensity MAD (boundary)  : rigid-only ";
  f(r.mad_boundary_rigid_only) << "  simulated ";
  f(r.mad_boundary_simulated) << "\n";
  oss << std::setprecision(3) << "  intraop brain Dice        : ";
  f(r.brain_dice) << "\n";
  oss << std::setprecision(2) << "  surface residual          : ";
  f(r.surface_residual_mm) << " mm\n";
  os << oss.str();
}

}  // namespace neuro::core
