# Adds bench/e2e to the repo's top-level project, as an
# `add_subdirectory(e2e)` in bench/CMakeLists.txt would. Passed as
# CMAKE_PROJECT_INCLUDE, CMake includes it at the end of project(); the
# deferred include runs after the top-level CMakeLists.txt has defined
# every library target. (A deferred call may not add a subdirectory, and
# its arguments are expanded when it runs, hence the variable.)
set(SG_BENCH_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER CALL include ${SG_BENCH_E2E_DIR}/CMakeLists.txt)
