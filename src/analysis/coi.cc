#include "analysis/coi.hh"

#include <algorithm>
#include <deque>

#include "analysis/combgraph.hh"
#include "common/logging.hh"

namespace rmp::analysis
{

Cone
backwardCone(const Design &d, const std::vector<SigId> &roots,
             int maxRegDepth)
{
    size_t n = d.numCells();
    // depth[id] = fewest register boundaries crossed to reach id from a
    // root; kUnseen = not reached. Comb edges keep the depth, crossing a
    // register's next-state connection adds one, so a breadth-first wave
    // per depth layer computes the minimum.
    constexpr unsigned kUnseen = ~0u;
    std::vector<unsigned> depth(n, kUnseen);
    std::deque<SigId> frontier;
    for (SigId r : roots) {
        rmp_assert(r < n, "backwardCone: bad root %u", r);
        if (depth[r] != kUnseen)
            continue;
        depth[r] = 0;
        frontier.push_back(r);
    }
    while (!frontier.empty()) {
        SigId id = frontier.front();
        frontier.pop_front();
        const Cell &c = d.cell(id);
        unsigned dep = depth[id];
        unsigned arg_depth = dep;
        if (c.op == Op::Reg) {
            // Crossing the sequential boundary into next-state logic.
            if (maxRegDepth >= 0 && dep >= static_cast<unsigned>(maxRegDepth))
                continue;
            arg_depth = dep + 1;
        }
        for (unsigned i = 0; i < 3 && c.args[i] != kNoSig; i++) {
            SigId a = c.args[i];
            if (depth[a] <= arg_depth)
                continue;
            depth[a] = arg_depth;
            // 0/1-BFS: same-depth edges go to the front so each depth
            // layer is fully comb-closed before the next wave starts. A
            // cell whose depth improves is re-queued so its fan-in is
            // re-relaxed under the smaller register budget.
            if (arg_depth == dep)
                frontier.push_front(a);
            else
                frontier.push_back(a);
        }
    }

    Cone cone;
    cone.inCone.assign(n, 0);
    for (SigId id = 0; id < n; id++) {
        if (depth[id] == kUnseen)
            continue;
        cone.inCone[id] = 1;
        cone.cells.push_back(id);
        if (d.cell(id).op == Op::Reg)
            cone.regs.push_back(id);
        else if (d.cell(id).op == Op::Input)
            cone.inputs.push_back(id);
    }
    return cone;
}

std::vector<SigId>
forwardReach(const Design &d, const std::vector<SigId> &roots,
             int maxRegDepth)
{
    // One-shot convenience wrapper; repeated callers should hold a
    // CombGraph and use the overload in combgraph.hh.
    CombGraph g(d);
    return forwardReach(g, roots, maxRegDepth);
}

} // namespace rmp::analysis
