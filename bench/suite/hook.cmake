# Adds the benchmark suite to the repository's own build without editing
# any file outside bench/suite.  run.sh configures with
#
#   -DCMAKE_PROJECT_lamport_clocks_dircc_INCLUDE=<this file>
#
# so project() includes this file in the top-level directory scope.  The
# deferred include then runs after the top-level CMakeLists.txt has defined
# every library target the suite links against (add_subdirectory itself
# cannot be deferred, so the suite's CMakeLists.txt is included instead).
set(LCDC_BENCH_SUITE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${LCDC_BENCH_SUITE_DIR}/CMakeLists.txt")
