# The benchmark's build file. run.py injects it into the repository's own
# configure step,
#   cmake -S . -B .bench_build -DCMAKE_PROJECT_INCLUDE=<abs>/perfbench/perfbench.cmake
# so the benchmark compiles with the flags, include paths and data directory
# the repository's CMakeLists.txt sets, and links the libraries remy-run and
# remy-train link, without any repository file being edited. The target is
# defined once the top-level CMakeLists.txt has finished and inherits its
# directory settings.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_target)
  add_executable(perfbench
    ${PERFBENCH_DIR}/src/main.cc
    ${PERFBENCH_DIR}/src/tracing.cc
    ${PERFBENCH_DIR}/src/host_speed.cc
    ${PERFBENCH_DIR}/src/decorators.cc
    ${PERFBENCH_DIR}/src/paper_sweep.cc
    ${PERFBENCH_DIR}/src/remy_train.cc
    ${PERFBENCH_DIR}/src/incast.cc)
  target_include_directories(perfbench PRIVATE ${PERFBENCH_DIR}/src)
  target_link_libraries(perfbench PRIVATE bench_harness remy_all)
  target_compile_definitions(perfbench PRIVATE
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    PERFBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}")
  # The reference work keeps its code generation when the repository's
  # optimisation flags change, so such a change moves the workloads' times
  # and not the yardstick they are scaled by (see src/host_speed.hh).
  set_source_files_properties(${PERFBENCH_DIR}/src/host_speed.cc
    PROPERTIES COMPILE_OPTIONS "-O2")
  set_target_properties(perfbench PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/perfbench")
endfunction()

cmake_language(DEFER CALL perfbench_add_target)
