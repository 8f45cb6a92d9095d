#include "analysis/combgraph.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rmp::analysis
{

CombGraph::CombGraph(const Design &d) : d_(&d)
{
    size_t n = d.numCells();
    // CSR fan-out adjacency: two passes, counts then fill.
    userStart_.assign(n + 1, 0);
    for (SigId id = 0; id < n; id++) {
        const Cell &c = d.cell(id);
        for (unsigned i = 0; i < 3 && c.args[i] != kNoSig; i++)
            userStart_[c.args[i] + 1]++;
    }
    for (size_t i = 1; i <= n; i++)
        userStart_[i] += userStart_[i - 1];
    userList_.resize(userStart_[n]);
    std::vector<uint32_t> cursor(userStart_.begin(), userStart_.end() - 1);
    for (SigId id = 0; id < n; id++) {
        const Cell &c = d.cell(id);
        for (unsigned i = 0; i < 3 && c.args[i] != kNoSig; i++)
            userList_[cursor[c.args[i]]++] = id;
    }
    topoPos_.assign(n, ~0u);
    uint32_t pos = 0;
    for (SigId id : d.topoOrder())
        topoPos_[id] = pos++;
}

const std::vector<SigId> &
CombGraph::fanInSources(SigId root) const
{
    auto it = fanInMemo_.find(root);
    if (it != fanInMemo_.end())
        return it->second;
    return fanInMemo_.emplace(root, d_->combFanInSources(root))
        .first->second;
}

const std::vector<SigId> &
CombGraph::forwardComb(SigId src) const
{
    auto it = fwdMemo_.find(src);
    if (it != fwdMemo_.end())
        return it->second;
    rmp_assert(src < d_->numCells(), "forwardComb: bad source %u", src);
    std::vector<uint8_t> seen(d_->numCells(), 0);
    std::vector<SigId> work{src};
    std::vector<SigId> out;
    seen[src] = 1;
    while (!work.empty()) {
        SigId id = work.back();
        work.pop_back();
        for (const SigId *u = usersBegin(id); u != usersEnd(id); ++u) {
            if (seen[*u] || !isCombOp(d_->cell(*u).op))
                continue;
            seen[*u] = 1;
            out.push_back(*u);
            work.push_back(*u);
        }
    }
    std::sort(out.begin(), out.end(), [&](SigId x, SigId y) {
        return topoPos_[x] < topoPos_[y];
    });
    return fwdMemo_.emplace(src, std::move(out)).first->second;
}

} // namespace rmp::analysis
