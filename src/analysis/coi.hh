/**
 * @file
 * Sequential cone-of-influence analysis over the netlist IR.
 *
 * Generalizes Design::combFanInSources — which stops at the first
 * register/input boundary — into multi-cycle reachability that crosses
 * register next-state connections, in both directions:
 *
 *  - backwardCone(): every cell whose value can influence the roots,
 *    crossing at most @p maxRegDepth register boundaries (unlimited by
 *    default, i.e. the classical cone of influence / transitive support);
 *  - forwardReach(): every cell the roots can influence (fan-out).
 *
 * backwardCone() backs the lint's liveness rules (dead-cell,
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
 * next-state signals, crossing at most @p maxRegDepth register
 * boundaries (< 0 = unlimited, the fixpoint cone). Registers reached at
 * the depth limit are members, but their next-state logic is not
 * explored; only the fixpoint cone (the default) is closed under
 * backward edges.
 */
Cone backwardCone(const Design &d, const std::vector<SigId> &roots,
                  int maxRegDepth = -1);

/**
 * Forward reachability: cells whose value @p roots can influence, again
 * crossing at most @p maxRegDepth register boundaries (< 0 = unlimited).
 * Returns the sorted cell set. Used by the lint's liveness rules and by
 * taint-cone sanity checks (a signal can only ever taint its forward
 * reach).
 */
std::vector<SigId> forwardReach(const Design &d,
                                const std::vector<SigId> &roots,
                                int maxRegDepth = -1);

} // namespace rmp::analysis

#endif // ANALYSIS_COI_HH
