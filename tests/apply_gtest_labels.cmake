# Re-applies the complete label set to every test discovered from one gtest
# executable. gtest_discover_tests flattens a multi-element LABELS value while
# forwarding PROPERTIES through its discovery machinery (observed on CMake
# 3.25: `LABELS "a;b"` arrives as `LABELS a b`, leaving LABELS=a and a
# dangling token), so only the first label survives and `ctest -L b` matches
# nothing. neuro_test() appends this include after the generated
# <name>[1]_tests.cmake; it parses that file's add_test names and restores the
# full list. Inputs: NEURO_LABEL_TESTS_FILE (the generated discovery file),
# NEURO_LABELS (the complete label list).
#
# neuro_test_labels() reuses this file with NEURO_LABEL_FILTER set (a regex
# on test names): only matching tests get NEURO_LABELS, which must then be
# their complete list (ctest scripts cannot read a test's current labels).
if(EXISTS "${NEURO_LABEL_TESTS_FILE}")
  file(STRINGS "${NEURO_LABEL_TESTS_FILE}" _neuro_add_lines REGEX "^add_test")
  foreach(_neuro_line IN LISTS _neuro_add_lines)
    if(_neuro_line MATCHES "^add_test\\(\\[=*\\[([^]]+)\\]")
      set(_neuro_test "${CMAKE_MATCH_1}")
      if(NOT DEFINED NEURO_LABEL_FILTER OR _neuro_test MATCHES "${NEURO_LABEL_FILTER}")
        set_tests_properties("${_neuro_test}" PROPERTIES LABELS "${NEURO_LABELS}")
      endif()
    endif()
  endforeach()
  unset(_neuro_test)
  unset(_neuro_add_lines)
  unset(_neuro_line)
endif()
# Every include shares the CTestTestfile scope; do not leak the filter into
# the next executable's label pass.
unset(NEURO_LABEL_FILTER)
