/**
 * @file
 * Word-level abstract interpretation over the netlist IR (DESIGN.md §3i).
 *
 * Computes, for every cell, a sound over-approximation of the set of
 * values the signal can take at ANY cycle of ANY run that starts in the
 * reset state with free inputs — exactly the trace set over which the
 * BMC engine's properties are evaluated (§V-B). Three coupled domains:
 *
 *  - ternary known-bits: per bit, proven-0 / proven-1 / unknown (⊤);
 *  - a small value set (≤ kMaxSetSize sorted values) when enumerable —
 *    this is what makes FSM-style control registers precise;
 *  - an unsigned interval [lo, hi], derived from the set when present
 *    and from the known bits otherwise (never iterated independently,
 *    which keeps the fixpoint lattice finite).
 *
 * The fixpoint seeds registers at their reset values (fully known),
 * inputs at ⊤ and constants at themselves, evaluates the combinational
 * DAG in topological order with per-op transfer functions that mirror
 * Simulator::step() bit for bit, then joins each register's next-state
 * abstraction into its state. Joins only discard knowledge (clear known
 * bits, grow/clear sets), so the iteration is monotone on a finite
 * lattice and terminates; a generous iteration cap panics in case of a
 * transfer-function monotonicity bug rather than looping.
 *
 * Soundness of the consumers (the absint lint rules and the facts
 * `rmp analyze` reports) reduces to one claim, argued in DESIGN.md §3i:
 * facts().val[s] contains every value cell s takes on any
 * reachable-from-reset trace. Anything proven impossible here is
 * impossible in every bounded unrolling and every simulation.
 */

#ifndef ANALYSIS_ABSINT_HH
#define ANALYSIS_ABSINT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "rtlir/design.hh"

namespace rmp::analysis
{

/** Maximum tracked value-set size before a cell's set widens to ⊤. */
inline constexpr size_t kMaxSetSize = 64;

/** Abstract value of one cell. Invariants: zeros & ones == 0; both are
 *  subsets of the width mask; when set is non-empty it lists every
 *  possible value (sorted, deduped) and zeros/ones/lo/hi agree with it. */
struct AbsVal
{
    /** Bits proven 0 on every reachable cycle. */
    uint64_t zeros = 0;
    /** Bits proven 1 on every reachable cycle. */
    uint64_t ones = 0;
    /** Derived unsigned range (lo <= value <= hi on every cycle). */
    uint64_t lo = 0;
    uint64_t hi = ~0ULL;
    /** Exhaustive possible-value set; empty = not enumerable. */
    std::vector<uint64_t> set;

    /** Fully known iff every bit in @p mask is proven. */
    bool known(uint64_t mask) const { return (zeros | ones) == mask; }
    /** The proven constant (meaningful only when known()). */
    uint64_t cval() const { return ones; }
    /** Bits that may be 1 under @p mask. */
    uint64_t possible(uint64_t mask) const { return mask & ~zeros; }
    /** True iff @p v is consistent with every tracked fact. */
    bool admits(uint64_t v) const;
    /** Number of proven bits under @p mask. */
    unsigned knownBits(uint64_t mask) const;

    static AbsVal top(uint64_t mask);
    static AbsVal constant(uint64_t v, uint64_t mask);
    /** From an explicit value set (derives bits + range; widens to the
     *  common-bits abstraction if the set exceeds kMaxSetSize). */
    static AbsVal fromSet(std::vector<uint64_t> vals, uint64_t mask);
};

/** Lattice join (set union): keeps only facts true of both sides. */
AbsVal joinAbs(const AbsVal &x, const AbsVal &y, uint64_t mask);

/** Fixpoint results for one design. Immutable once computed. */
struct AbsFacts
{
    /** Structural fingerprint of the analyzed design
     *  (exec::designFingerprint) — guards reuse across designs. */
    uint64_t designFp = 0;
    /** Per-cell abstraction at the fixpoint, indexed by SigId. */
    std::vector<AbsVal> val;
    /** Registers whose reachable value set was proven exhaustively by
     *  fsmReachability() (val[reg].set is then the exact state set). */
    std::vector<uint8_t> exactSet;
    /** Fixpoint iterations until stable (incl. fsmreach refinements). */
    unsigned fixpointIters = 0;
    /** Total proven bits / total bits across all cells. */
    uint64_t bitsKnown = 0;
    uint64_t bitsTotal = 0;
    /** Order-independent digest of every per-cell fact: equal digests
     *  mean equal facts (e.g. with vs without FSM refinement differ). */
    uint64_t fingerprint = 0;

    const AbsVal &of(SigId id) const { return val[id]; }
};

/** Abstract-interpretation knobs (defaults are the shipping profile). */
struct AbsintConfig
{
    /** Hard cap on sweeps over the register file; hitting it indicates
     *  a non-monotone transfer function and panics. */
    unsigned maxIters = 100000;
};

/**
 * Run the known-bits/value-set fixpoint on @p d. Registers classified
 * as control by the caller can afterwards be sharpened with
 * fsmReachability() (fsmreach.hh), which refines the same AbsFacts.
 */
AbsFacts absInterpret(const Design &d, const AbsintConfig &cfg = {});

/**
 * Evaluate one comb cell's transfer function. @p vals must hold valid
 * abstractions for the cell's operands. Exposed for fsmreach's pinned
 * successor enumeration and the unit tests.
 */
AbsVal transferCell(const Design &d, SigId id,
                    const std::vector<AbsVal> &vals);

/** One full combinational sweep: refresh every input/const/comb cell's
 *  abstraction in @p vals from the register entries (left untouched).
 *  Exposed for fsmreach's refinement re-stabilization. */
void absEvalComb(const Design &d, std::vector<AbsVal> &vals);

/** Recompute @p f's bit tallies, fingerprint, and obs gauges after its
 *  val[] entries changed (fsmreach refinement). */
void absSeal(const Design &d, AbsFacts &f);

/**
 * Per-Mux statically-fixed select values: muxSel[id] is 0 or 1 when
 * @p facts proves cell id is a Mux whose select is that constant on
 * every reachable cycle, -1 otherwise (including non-Mux cells). The
 * lint's dead-mux-arm rule reports each fixed select: the other arm's
 * logic never reaches the mux output.
 */
std::vector<int8_t> muxSelectFacts(const Design &d, const AbsFacts &facts);

} // namespace rmp::analysis

#endif // ANALYSIS_ABSINT_HH
