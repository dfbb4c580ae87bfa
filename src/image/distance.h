// Exact Euclidean distance transforms.
//
// The paper converts each preoperative tissue class into a "saturated distance
// transform" (its ref. [19], Ragnemalm) that serves as a spatially varying
// localization prior for intraoperative k-NN classification. We compute the
// *exact* squared EDT with the separable lower-envelope (parabola) algorithm —
// linear time per axis and exact in arbitrary dimension, which is the property
// the saturated transform needs — then saturate at a configurable cap.
#pragma once

#include <cstdint>

#include "image/image3d.h"
#include "par/communicator.h"

namespace neuro {

/// Exact Euclidean distance (physical units) from every voxel to the nearest
/// voxel where `labels == label`. Voxels of the class itself get 0. If the
/// class is absent everywhere the result is `saturation` everywhere.
/// Distances are clamped ("saturated") to `saturation` when it is > 0.
ImageF distance_to_label(const ImageL& labels, std::uint8_t label,
                         double saturation = 0.0);

/// Signed distance to the boundary of the region `labels == label`:
/// negative inside the region, positive outside, zero on the boundary voxels'
/// interface. Used by the active surface as a smooth attraction potential.
ImageF signed_distance_to_label(const ImageL& labels, std::uint8_t label,
                                double saturation = 0.0);

/// Exact EDT of a binary mask (non-zero = feature). Returns distances in
/// physical units from each voxel to the nearest feature voxel.
ImageF distance_from_mask(const ImageL& mask, double saturation = 0.0);

/// distance_to_label written into `out`, with `squared` as the working grid
/// of squared distances; both lie on the labels' grid. The functions above
/// are this call with buffers of their own and no communicator.
///
/// With a communicator the call is collective and every rank passes the same
/// `out` and `squared`: the ranks split the lines of each of the three 1-D
/// passes, with a barrier between passes, and `out` holds the serial result
/// bit for bit, at any rank count, when the call returns on any rank. The
/// caller allocates both buffers on its own thread before the rank region
/// starts: a full grid allocated in a rank thread stays in that thread's
/// malloc arena and raises peak RSS.
void distance_to_label(const ImageL& labels, std::uint8_t label, double saturation,
                       ImageF& out, Image3D<double>& squared, par::Communicator* comm);

/// signed_distance_to_label in the collective form of distance_to_label's
/// above: two transforms through the one `squared` grid, into `out`.
void signed_distance_to_label(const ImageL& labels, std::uint8_t label,
                              double saturation, ImageF& out, Image3D<double>& squared,
                              par::Communicator* comm);

}  // namespace neuro
