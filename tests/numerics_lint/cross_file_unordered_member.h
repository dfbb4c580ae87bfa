// Companion header of cross_file_unordered_member.cpp (tools/lint/
// check_numerics.py --self-test): declares the hash-container members the
// fixture iterates. The .cpp never spells an unordered type itself, so the
// analyzer only sees these members through its tree-wide header harvest.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>

namespace neuro {

struct TissueStiffness {
  std::unordered_map<int, double> per_label;
  std::unordered_set<std::string> tags;
};

}  // namespace neuro
