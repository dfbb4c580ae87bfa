// Tests for MetaImage (.mhd/.raw) interchange I/O and the SSD-vs-MI
// registration metric comparison.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "base/check.h"
#include "base/rng.h"
#include "image/filters.h"
#include "image/metaimage.h"
#include "phantom/brain_phantom.h"
#include "reg/mutual_information.h"

namespace neuro {
namespace {

std::string tmp(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(MetaImageTest, FloatRoundTrip) {
  ImageF img({6, 5, 4}, 0.0f, {1.5, 2.0, 2.5}, {10, 20, 30});
  Rng rng(1);
  for (auto& v : img.data()) v = static_cast<float>(rng.uniform(-100, 100));
  const std::string stem = tmp("neuro_meta_f");
  write_metaimage(stem, img);
  const ImageF back = read_metaimage_f(stem + ".mhd");
  EXPECT_TRUE(back.same_grid(img));
  EXPECT_EQ(back.data(), img.data());
  std::remove((stem + ".mhd").c_str());
  std::remove((stem + ".raw").c_str());
}

TEST(MetaImageTest, UcharRoundTripAndMhdSuffixHandling) {
  ImageL img({3, 3, 3}, 7);
  img.at(1, 1, 1) = 42;
  const std::string stem = tmp("neuro_meta_l");
  write_metaimage(stem + ".mhd", img);  // suffix must be stripped, not doubled
  const ImageL back = read_metaimage_l(stem + ".mhd");
  EXPECT_EQ(back.data(), img.data());
  std::remove((stem + ".mhd").c_str());
  std::remove((stem + ".raw").c_str());
}

TEST(MetaImageTest, TypeMismatchRejected) {
  ImageL img({2, 2, 2}, 1);
  const std::string stem = tmp("neuro_meta_t");
  write_metaimage(stem, img);
  EXPECT_THROW(read_metaimage_f(stem + ".mhd"), CheckError);
  std::remove((stem + ".mhd").c_str());
  std::remove((stem + ".raw").c_str());
}

TEST(MetaImageTest, HeaderIsItkCompatibleText) {
  ImageF img({4, 4, 4}, 1.0f, {2, 2, 2});
  const std::string stem = tmp("neuro_meta_h");
  write_metaimage(stem, img);
  std::ifstream f(stem + ".mhd");
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("ObjectType = Image"), std::string::npos);
  EXPECT_NE(text.find("NDims = 3"), std::string::npos);
  EXPECT_NE(text.find("DimSize = 4 4 4"), std::string::npos);
  EXPECT_NE(text.find("ElementType = MET_FLOAT"), std::string::npos);
  EXPECT_NE(text.find("ElementDataFile = neuro_meta_h.raw"), std::string::npos);
  std::remove((stem + ".mhd").c_str());
  std::remove((stem + ".raw").c_str());
}

TEST(MetaImageTest, MissingAndMalformedHeadersRejected) {
  EXPECT_THROW(read_metaimage_f("/nonexistent/vol.mhd"), CheckError);
  const std::string path = tmp("neuro_meta_bad.mhd");
  {
    std::ofstream f(path);
    f << "ObjectType = Image\nNDims = 3\nElementType = MET_FLOAT\n";
    // no DimSize / ElementDataFile
  }
  EXPECT_THROW(read_metaimage_f(path), CheckError);
  std::remove(path.c_str());
}

TEST(MetricComparisonTest, SsdFindsAlignedIdenticalImages) {
  // Same modality, same intensities: SSD works (sanity).
  phantom::PhantomConfig pc;
  pc.dims = {32, 32, 32};
  pc.spacing = {3.5, 3.5, 3.5};
  pc.intensity_drift = 0.0;
  phantom::ShiftConfig noshift;
  noshift.max_sink_mm = 0;
  noshift.resection_collapse_mm = 0;
  noshift.resect_tumor = false;
  const auto cas = phantom::make_case(pc, noshift);
  reg::MiConfig mi;
  const double at_truth =
      reg::mean_squared_difference(cas.intraop, cas.preop, RigidTransform{}, mi);
  RigidTransform off;
  off.translation = {4, 0, 0};
  const double misaligned =
      reg::mean_squared_difference(cas.intraop, cas.preop, off, mi);
  EXPECT_LT(at_truth, misaligned);
}

TEST(MetricComparisonTest, MiBeatsSsdUnderIntensityRemapping) {
  // Strongly remap one image's intensities (as different acquisitions do).
  // MI must still rank the true pose best; SSD's optimum moves away.
  phantom::PhantomConfig pc;
  pc.dims = {32, 32, 32};
  pc.spacing = {3.5, 3.5, 3.5};
  phantom::ShiftConfig noshift;
  noshift.max_sink_mm = 0;
  noshift.resection_collapse_mm = 0;
  noshift.resect_tumor = false;
  const auto cas = phantom::make_case(pc, noshift);

  ImageF remapped = cas.preop;
  for (auto& v : remapped.data()) {
    v = 255.0f - v;  // inverted contrast: the extreme of "different modality"
  }
  reg::MiConfig mi;
  const double mi_true =
      reg::mutual_information(cas.intraop, remapped, RigidTransform{}, mi);
  RigidTransform off;
  off.translation = {5, 0, 0};
  const double mi_off = reg::mutual_information(cas.intraop, remapped, off, mi);
  EXPECT_GT(mi_true, mi_off);  // MI survives the remapping

  const double ssd_true =
      reg::mean_squared_difference(cas.intraop, remapped, RigidTransform{}, mi);
  const double ssd_off =
      reg::mean_squared_difference(cas.intraop, remapped, off, mi);
  // For inverted contrast, SSD prefers (or barely distinguishes) the wrong
  // pose: it must NOT show the clear true-pose preference MI shows.
  EXPECT_LT((ssd_off - ssd_true) / std::max(1.0, ssd_true), 0.2);
}

}  // namespace
}  // namespace neuro
