# Benchmark harness target, injected into the program's own build with
#   cmake -S . -B .bench_build -DCMAKE_PROJECT_INCLUDE=rmpbench/rmpbench.cmake
# so it links the program's library targets (resolved at generate time)
# and inherits their include paths. rmpbench/run.py does this.
add_executable(rmpbench
    ${CMAKE_CURRENT_LIST_DIR}/src/main.cc
    ${CMAKE_CURRENT_LIST_DIR}/src/bench.cc
    ${CMAKE_CURRENT_LIST_DIR}/src/oneshot.cc
    ${CMAKE_CURRENT_LIST_DIR}/src/daemon.cc
)
set_target_properties(rmpbench PROPERTIES
    CXX_STANDARD 20 CXX_STANDARD_REQUIRED ON CXX_EXTENSIONS OFF)
target_compile_options(rmpbench PRIVATE -Wall -Wextra)
target_link_libraries(rmpbench PRIVATE rmp_report rmp_contracts
    rmp_synthlc rmp_r2m rmp_designs rmp_sim rmp_analysis rmp_obs
    rmp_serve rmp_store)
