#include "analysis/coi.hh"

#include "common/logging.hh"

namespace rmp::analysis
{

Cone
backwardCone(const Design &d, const std::vector<SigId> &roots)
{
    size_t n = d.numCells();
    Cone cone;
    cone.inCone.assign(n, 0);
    std::vector<SigId> work;
    for (SigId r : roots) {
        rmp_assert(r < n, "backwardCone: bad root %u", r);
        if (!cone.inCone[r]) {
            cone.inCone[r] = 1;
            work.push_back(r);
        }
    }
    // A register's args are its next-state signals, so following args
    // crosses the sequential boundary like any comb edge.
    while (!work.empty()) {
        const Cell &c = d.cell(work.back());
        work.pop_back();
        for (unsigned i = 0; i < 3 && c.args[i] != kNoSig; i++) {
            if (!cone.inCone[c.args[i]]) {
                cone.inCone[c.args[i]] = 1;
                work.push_back(c.args[i]);
            }
        }
    }

    for (SigId id = 0; id < n; id++) {
        if (!cone.inCone[id])
            continue;
        cone.cells.push_back(id);
        if (d.cell(id).op == Op::Reg)
            cone.regs.push_back(id);
        else if (d.cell(id).op == Op::Input)
            cone.inputs.push_back(id);
    }
    return cone;
}

} // namespace rmp::analysis
