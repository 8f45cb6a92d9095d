#include "bmc/aig.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rmp::bmc
{

Aig::Aig()
{
    nodes.emplace_back(); // node 0: constant false
}

Aig::Aig(const Aig *b)
    : base(b), baseN(static_cast<uint32_t>(b->numNodes())),
      baseAnds(b->numAnds())
{
    rmp_assert(!b->base, "an AIG overlay needs a base that owns its nodes");
}

AigLit
Aig::addInput()
{
    Node n;
    n.isInput = true;
    nodes.push_back(n);
    return static_cast<AigLit>((numNodes() - 1) * 2);
}

AigLit
Aig::mkAnd(AigLit a, AigLit b)
{
    // Constant folding and trivial cases.
    if (a > b)
        std::swap(a, b);
    if (a == kFalse)
        return kFalse;
    if (a == kTrue)
        return b;
    if (a == b)
        return a;
    if (a == aigNot(b))
        return kFalse;
    Key key{a, b};
    // b > a, so both fanins are base nodes iff b's is. Only such a pair
    // can be in the base's hash.
    if (aigNode(b) < baseN) {
        auto it = base->strash.find(key);
        if (it != base->strash.end())
            return it->second;
    }
    auto it = strash.find(key);
    if (it != strash.end())
        return it->second;
    Node n;
    n.a = a;
    n.b = b;
    nodes.push_back(n);
    andCount++;
    AigLit lit = static_cast<AigLit>((numNodes() - 1) * 2);
    strash.emplace(key, lit);
    return lit;
}

AigLit
Aig::mkXor(AigLit a, AigLit b)
{
    if (a == kFalse)
        return b;
    if (a == kTrue)
        return aigNot(b);
    if (b == kFalse)
        return a;
    if (b == kTrue)
        return aigNot(a);
    if (a == b)
        return kFalse;
    if (a == aigNot(b))
        return kTrue;
    return mkOr(mkAnd(a, aigNot(b)), mkAnd(aigNot(a), b));
}

AigLit
Aig::mkMux(AigLit sel, AigLit t, AigLit f)
{
    if (sel == kTrue)
        return t;
    if (sel == kFalse)
        return f;
    if (t == f)
        return t;
    return mkOr(mkAnd(sel, t), mkAnd(aigNot(sel), f));
}

AigLit
Aig::mkAndN(const std::vector<AigLit> &ls)
{
    if (ls.empty())
        return kTrue;
    std::vector<AigLit> cur = ls;
    while (cur.size() > 1) {
        std::vector<AigLit> next;
        for (size_t i = 0; i + 1 < cur.size(); i += 2)
            next.push_back(mkAnd(cur[i], cur[i + 1]));
        if (cur.size() & 1)
            next.push_back(cur.back());
        cur = std::move(next);
    }
    return cur[0];
}

AigLit
Aig::mkOrN(const std::vector<AigLit> &ls)
{
    std::vector<AigLit> neg;
    neg.reserve(ls.size());
    for (AigLit l : ls)
        neg.push_back(aigNot(l));
    return aigNot(mkAndN(neg));
}

} // namespace rmp::bmc
