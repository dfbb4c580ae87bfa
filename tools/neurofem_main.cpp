// neurofem — command-line front end for the library.
//
//   neurofem phantom  --out CASE [--dims 96] [--spacing 2.5] [--seed 42]
//                     [--sink-mm 8] [--offset-x mm --offset-y mm --offset-z mm]
//       Generates a synthetic case: CASE_preop.mhd, CASE_preop_labels.mhd,
//       CASE_intraop.mhd, CASE_intraop_labels.mhd (+ .raw files).
//
//   neurofem pipeline --preop a.mhd --labels l.mhd --intraop b.mhd --out OUT
//                     [--ranks 2] [--stride 3] [--rigid 1] [--hetero 0]
//       Runs the full intraoperative pipeline, writes OUT_warped.mhd,
//       OUT_segmentation.mhd, OUT_montage.ppm, OUT_surface.ply and a report.
//
//   neurofem segment  --scan b.mhd --labels l.mhd --out OUT
//       k-NN tissue classification only; writes OUT_segmentation.mhd.
//
//   neurofem mesh     --labels l.mhd --out OUT [--stride 2] [--keep 3,4,5,6]
//       Tetrahedral meshing only; writes OUT_surface.obj and prints stats.
//
//   neurofem info     --volume v.mhd
//       Prints geometry and intensity statistics.
#include <cstdio>
#include <cstring>

#include "base/check.h"

namespace neuro::cli {
int cmd_phantom(int argc, char** argv);
int cmd_pipeline(int argc, char** argv);
int cmd_segment(int argc, char** argv);
int cmd_mesh(int argc, char** argv);
int cmd_info(int argc, char** argv);
int cmd_warp(int argc, char** argv);
}  // namespace neuro::cli

namespace {

void usage() {
  std::printf(
      "usage: neurofem <command> [--flag value ...]\n"
      "commands:\n"
      "  phantom   generate a synthetic neurosurgery case (MetaImage volumes)\n"
      "  pipeline  run the full intraoperative registration pipeline\n"
      "  segment   k-NN tissue classification of one scan\n"
      "  mesh      tetrahedral meshing of a label volume\n"
      "  info      inspect a MetaImage volume\n"
      "  warp      apply a stored deformation field to further volumes\n"
      "run `neurofem <command>` with no flags to see its required inputs.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const char* cmd = argv[1];
  try {
    if (std::strcmp(cmd, "phantom") == 0) return neuro::cli::cmd_phantom(argc, argv);
    if (std::strcmp(cmd, "pipeline") == 0) return neuro::cli::cmd_pipeline(argc, argv);
    if (std::strcmp(cmd, "segment") == 0) return neuro::cli::cmd_segment(argc, argv);
    if (std::strcmp(cmd, "mesh") == 0) return neuro::cli::cmd_mesh(argc, argv);
    if (std::strcmp(cmd, "info") == 0) return neuro::cli::cmd_info(argc, argv);
    if (std::strcmp(cmd, "warp") == 0) return neuro::cli::cmd_warp(argc, argv);
    std::fprintf(stderr, "neurofem: unknown command '%s'\n", cmd);
    usage();
    return 2;
  } catch (const neuro::CheckError& e) {
    std::fprintf(stderr, "neurofem %s: %s\n", cmd, e.what());
    return 1;
  }
}
