/**
 * @file
 * Sequential cone-of-influence analysis over the netlist IR.
 *
 * Generalizes Design::combFanInSources — which stops at the first
 * register/input boundary — into multi-cycle reachability that crosses
 * register next-state connections: backwardCone() collects every cell
 * whose value can influence the roots (the classical cone of influence /
 * transitive support). It backs the lint's liveness rules (dead-cell,
 * never-read-reg; DESIGN.md §3e).
 */

#ifndef ANALYSIS_COI_HH
#define ANALYSIS_COI_HH

#include <cstdint>
#include <vector>

#include "rtlir/design.hh"

namespace rmp::analysis
{

/** A cone of influence: a subset of a Design's cells. */
struct Cone
{
    /** Per-cell membership mask, indexed by SigId. */
    std::vector<uint8_t> inCone;
    /** Member cells, sorted ascending. */
    std::vector<SigId> cells;
    /** Member registers (sorted). */
    std::vector<SigId> regs;
    /** Member inputs (sorted). */
    std::vector<SigId> inputs;

    size_t size() const { return cells.size(); }
    bool
    contains(SigId id) const
    {
        return id < inCone.size() && inCone[id];
    }
};

/**
 * Backward sequential cone of influence of @p roots.
 *
 * Traversal follows every value dependency: comb cells to their
 * operands, and registers — unlike combFanInSources — onward to their
 * next-state signals, to the fixpoint. The cone is closed under
 * backward edges.
 */
Cone backwardCone(const Design &d, const std::vector<SigId> &roots);

} // namespace rmp::analysis

#endif // ANALYSIS_COI_HH
