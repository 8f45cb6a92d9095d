/**
 * @file
 * The tape kernel's CPU dispatch (DESIGN.md §3h, "Kernel and CPU
 * dispatch").
 *
 * simdEvalOps() evaluates a tape's op program over the SoA value array
 * with one vector kernel, evalOpsVec, fusing each levelized same-opcode
 * run into one loop instead of dispatching per op. The vector type is
 * chosen once per call:
 *
 *   P >= 4 and the CPU has AVX2  ->  VAvx2, four lanes per register
 *                                    (separate TU, the only one
 *                                    compiled with -mavx2)
 *   otherwise                    ->  portable VPort<P>, one value per
 *                                    slot row
 *
 * Bit-identical to the interpreted Simulator by construction; the
 * differential suites enforce it.
 */

#ifndef SIM_SIMD_HH
#define SIM_SIMD_HH

#include <cstdint>

#include "sim/tape.hh"

namespace rmp::sim
{

/** Evaluate @p tp's op program over @p P physical lanes of @p vals
 *  (vals[slot * P + lane]; P a power of two in [1, kMaxLanes]). */
void simdEvalOps(const Tape &tp, uint64_t *vals, unsigned P);

/** Name of the vector type simdEvalOps picks for @p P physical lanes
 *  on this machine: "avx2" or "portable". */
const char *simdIsa(unsigned P);

} // namespace rmp::sim

#endif // SIM_SIMD_HH
