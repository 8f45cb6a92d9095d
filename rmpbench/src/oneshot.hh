/**
 * @file
 * One-shot workloads: one fresh process per job (see oneshot.cc).
 */

#ifndef RMPBENCH_ONESHOT_HH
#define RMPBENCH_ONESHOT_HH

#include <cstdint>
#include <string>

namespace rmpbench
{

struct OneshotArgs
{
    std::string workload;  ///< mcva-synth | contracts-tiny
    uint64_t seed = 1;     ///< exploration (and SynthLC sim) seed
    bool setupOnly = false;///< stop after the set-up phase
    bool obs = false;      ///< turn the program's obs switch on
    bool audit = false;    ///< audit every verdict (replay + DRAT)
    std::string spansOut;  ///< write the harness spans here
    std::string traceOut;  ///< write the program's chrome trace here
};

/** Run one one-shot job; prints one JSON line. Returns the exit code. */
int runOneshot(const OneshotArgs &a);

} // namespace rmpbench

#endif // RMPBENCH_ONESHOT_HH
