/**
 * @file
 * Per-design combinational-graph cache.
 *
 * Design::combFanInSources re-derives graph structure on every call: it
 * re-runs a fresh backward DFS with per-call allocations. It is called
 * per query on hot paths (lintIft checks every taint root and shadow;
 * HB-edge candidate derivation hits every PL), so CombGraph hoists the
 * shared structure into one object computed once per design:
 *
 *  - a CSR fan-out adjacency (users of every signal);
 *  - each comb cell's topological position;
 *  - memoized combFanInSources results per root;
 *  - memoized same-cycle forward comb cones (fsmreach's per-state
 *    successor propagation re-evaluates exactly this cone per state).
 *
 * The cache is read-only with respect to the Design and must not
 * outlive it; memo tables make the object non-thread-safe (one
 * CombGraph per analysis pass, not shared across threads).
 */

#ifndef ANALYSIS_COMBGRAPH_HH
#define ANALYSIS_COMBGRAPH_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rtlir/design.hh"

namespace rmp::analysis
{

class CombGraph
{
  public:
    explicit CombGraph(const Design &d);

    const Design &design() const { return *d_; }

    /** Cells reading signal @p id (fan-out edges, CSR slice). */
    const SigId *
    usersBegin(SigId id) const
    {
        return userList_.data() + userStart_[id];
    }
    const SigId *
    usersEnd(SigId id) const
    {
        return userList_.data() + userStart_[id + 1];
    }

    /** Topological position of a comb cell (sources are ~0u). */
    uint32_t topoPos(SigId id) const { return topoPos_[id]; }

    /**
     * The registers and inputs in @p root's combinational fan-in cone —
     * Design::combFanInSources, memoized per root. The returned
     * reference stays valid for the CombGraph's lifetime.
     */
    const std::vector<SigId> &fanInSources(SigId root) const;

    /**
     * Comb cells whose same-cycle value @p src can influence (fan-out
     * without crossing a register boundary), sorted by topological
     * position — i.e. a valid evaluation order. Memoized per source.
     */
    const std::vector<SigId> &forwardComb(SigId src) const;

  private:
    const Design *d_;
    std::vector<uint32_t> userStart_; ///< CSR offsets, numCells+1
    std::vector<SigId> userList_;
    std::vector<uint32_t> topoPos_;
    mutable std::unordered_map<SigId, std::vector<SigId>> fanInMemo_;
    mutable std::unordered_map<SigId, std::vector<SigId>> fwdMemo_;
};

} // namespace rmp::analysis

#endif // ANALYSIS_COMBGRAPH_HH
