/**
 * @file
 * And-inverter graph with structural hashing and constant folding.
 *
 * The bit-blaster lowers the word-level netlist into this representation,
 * one literal per signal bit per time frame. Structural hashing plus
 * constant folding is what keeps property cones small after the harness
 * pins instruction encodings to constants (DESIGN.md §4 ablation 2).
 */

#ifndef BMC_AIG_HH
#define BMC_AIG_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace rmp::bmc
{

/**
 * AIG literal: node index * 2 + negation flag.
 * Node 0 is the constant FALSE node, so lit 0 = false, lit 1 = true.
 */
using AigLit = uint32_t;

constexpr AigLit kFalse = 0;
constexpr AigLit kTrue = 1;

inline AigLit aigNot(AigLit l) { return l ^ 1; }
inline uint32_t aigNode(AigLit l) { return l >> 1; }
inline bool aigSign(AigLit l) { return l & 1; }

/**
 * The graph: node 0 = const false, others are inputs or AND gates.
 *
 * An *overlay* extends a frozen base graph without copying it: it reads
 * the base's nodes, adds its own after them (ids base.numNodes(), +1,
 * ...) and looks a new AND up in the base's structural hash before its
 * own. So a sequence of calls on an overlay returns exactly the literals
 * the same calls would on a private copy of the base, and any number of
 * overlays may share one base across threads (they only read it).
 */
class Aig
{
  public:
    Aig();

    /**
     * An overlay over @p base, which must outlive this graph and never
     * grow again. @p base must not itself be an overlay.
     */
    explicit Aig(const Aig *base);

    /** Create a primary input; returns its (positive) literal. */
    AigLit addInput();

    /** AND with folding and structural hashing. */
    AigLit mkAnd(AigLit a, AigLit b);

    /** Derived gates. */
    AigLit mkOr(AigLit a, AigLit b) { return aigNot(mkAnd(aigNot(a), aigNot(b))); }
    AigLit mkXor(AigLit a, AigLit b);
    AigLit mkMux(AigLit sel, AigLit t, AigLit f);
    AigLit mkXnor(AigLit a, AigLit b) { return aigNot(mkXor(a, b)); }

    /** N-ary helpers (balanced trees). */
    AigLit mkAndN(const std::vector<AigLit> &ls);
    AigLit mkOrN(const std::vector<AigLit> &ls);

    /** True iff node @p n is a primary input. */
    bool isInput(uint32_t n) const { return node(n).isInput; }

    /** Fan-ins of AND node @p n. */
    AigLit fanin0(uint32_t n) const { return node(n).a; }
    AigLit fanin1(uint32_t n) const { return node(n).b; }

    /** Nodes and AND gates, the base's included. */
    size_t numNodes() const { return baseN + nodes.size(); }
    size_t numAnds() const { return baseAnds + andCount; }

  private:
    struct Node
    {
        AigLit a = 0, b = 0;
        bool isInput = false;
    };

    const Node &
    node(uint32_t n) const
    {
        return n < baseN ? base->nodes[n] : nodes[n - baseN];
    }

    struct Key
    {
        AigLit a, b;
        bool operator==(const Key &o) const { return a == o.a && b == o.b; }
    };
    struct KeyHash
    {
        size_t
        operator()(const Key &k) const
        {
            return k.a * 0x9e3779b97f4a7c15ULL ^ (uint64_t(k.b) << 17);
        }
    };

    /** The frozen base of an overlay (nullptr: none). */
    const Aig *base = nullptr;
    /** Node and AND counts of the base (0: none). */
    uint32_t baseN = 0;
    size_t baseAnds = 0;
    /** This graph's own nodes: node baseN + i is nodes[i]. */
    std::vector<Node> nodes;
    std::unordered_map<Key, AigLit, KeyHash> strash;
    size_t andCount = 0;
};

} // namespace rmp::bmc

#endif // BMC_AIG_HH
