/**
 * @file
 * FSM reachability on the abstract domain (DESIGN.md §3i).
 *
 * For registers the μFSM identifier classifies as control (the state
 * variables of uhb::MicroFsm — passed in as plain SigIds so this layer
 * stays below uhb), the global known-bits fixpoint is usually coarse:
 * joining all states loses exactly the "which states exist at all"
 * information that lint's unreachable-fsm-state rule reports.
 *
 * fsmReachability() sharpens them with symbolic successor enumeration:
 * starting from the reset value, each reachable state s is pinned into
 * the register while every other cell keeps its global abstraction,
 * the register's same-cycle forward comb cone is re-evaluated with the
 * absint transfer functions, and the resulting next-state abstraction
 * is concretized (via its value set, or by enumerating its few unknown
 * bits). The closure of this relation over-approximates the register's
 * reachable value set — with free inputs it is almost always exact —
 * and replaces the register's abstraction in the AbsFacts, after which
 * the global fixpoint is re-stabilized with the refined registers
 * pinned (their sets are proven invariants: closed under successors
 * from reset, computed under an env that over-approximates the final
 * one). Refinement rounds repeat until nothing shrinks.
 *
 * This is what proves a declared μFSM state valuation dead:
 * Eq(state_var, dead_value) evaluates to known-0 everywhere downstream,
 * and `rmp analyze` lists the exact reachable set.
 */

#ifndef ANALYSIS_FSMREACH_HH
#define ANALYSIS_FSMREACH_HH

#include <cstdint>
#include <vector>

#include "analysis/absint.hh"
#include "rtlir/design.hh"

namespace rmp::analysis
{

/** Successor-enumeration knobs. */
struct FsmReachConfig
{
    /** Skip registers wider than this (state space too large). */
    unsigned maxStateBits = 12;
    /** Bail to inexact when the closure exceeds this many states. */
    unsigned maxStates = 1024;
    /** Max unknown bits to concretize in one successor abstraction. */
    unsigned maxEnumBits = 10;
    /** Refinement rounds (closure -> pin -> re-stabilize) to run. */
    unsigned maxRefineRounds = 4;
};

/** Reachable-state verdict for one control register. */
struct FsmReachResult
{
    SigId reg = kNoSig;
    /** Successor closure completed without bailing: states is a sound
     *  over-approximation, and empirically the exact reachable set. */
    bool exact = false;
    /** Sorted reachable values (valid iff exact). */
    std::vector<uint64_t> states;
};

/**
 * Run successor enumeration for @p controlRegs (deduped; non-register
 * ids are ignored with a warning) and refine @p facts in place: each
 * exactly-closed register's abstraction becomes its reachable-state
 * set, facts.exactSet marks registers whose set survived the size cap,
 * and the fixpoint is re-stabilized and re-sealed (new fingerprint).
 */
std::vector<FsmReachResult> fsmReachability(const Design &d,
                                            const std::vector<SigId> &controlRegs,
                                            AbsFacts &facts,
                                            const FsmReachConfig &cfg = {});

/**
 * Convenience: absInterpret() sharpened by fsmReachability() over
 * @p controlRegs, as one call: the fact set `rmp analyze` reports for a
 * harnessed design — the caller supplies the μFSM state variables (e.g.
 * uhb::MicroFsm::vars) as plain SigIds. The benchmark harness times it
 * (rmpbench/src/oneshot.cc:278).
 */
AbsFacts staticFacts(const Design &d, const std::vector<SigId> &controlRegs,
                     const AbsintConfig &acfg = {},
                     const FsmReachConfig &fcfg = {});

} // namespace rmp::analysis

#endif // ANALYSIS_FSMREACH_HH
