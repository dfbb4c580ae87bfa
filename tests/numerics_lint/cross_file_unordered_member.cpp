// Seeded-bug fixture for tools/lint/check_numerics.py (--self-test), rule
// `unordered-iteration` across files: the hash-container members are declared
// in cross_file_unordered_member.h, not here, so only a harvest of unordered
// names over the headers of the tree catches the iteration below.
//
// EXPECT: unordered-iteration@17

#include "cross_file_unordered_member.h"

#include <cstddef>

namespace neuro {

// BUG: the rounding of `total` follows the hash-table layout of the run.
double mean_stiffness(const TissueStiffness& stiffness) {
  double total = 0.0;
  for (const auto& [label, e] : stiffness.per_label) {
    total += e;
  }
  return stiffness.per_label.empty() ? 0.0 : total / stiffness.per_label.size();
}

// OK: lookup-only visit; nothing order-sensitive escapes the loop.
std::size_t count_tags(const TissueStiffness& stiffness) {
  std::size_t n = 0;
  for (const auto& tag : stiffness.tags) {
    if (!tag.empty()) ++n;
  }
  return n;
}

}  // namespace neuro
