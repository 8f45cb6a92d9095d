/**
 * @file
 * Op-tape compilation: lowering an elaborated netlist into a dense linear
 * program for the batched simulation engine (DESIGN.md §3h).
 *
 * compileTape() runs once per (design, watch set) and produces a Tape —
 * flat parallel arrays of opcode / destination slot / operand slots /
 * width masks, ordered by the design's combinational topological order —
 * that BatchSim then executes with a tight dispatch loop over contiguous
 * value arrays: no hash maps, no per-step Cell lookups, no virtual calls.
 *
 * Lowering performs several semantics-preserving simplifications:
 *
 *  - constant folding: cells whose transitive inputs are all Const
 *    collapse to a preloaded slot value and emit no op; distinct folded
 *    cells with equal values share one pooled slot;
 *  - dead-code pruning: combinational cells outside the register cone
 *    (every register's next-state function) and the caller's watch set
 *    emit nothing — their SigIds map to kNoSlot;
 *  - slot aliasing: cells that are the identity on one operand (Zext,
 *    And with all-ones, Or/Xor/Add with zero, shift/slice by zero, a
 *    Mux whose select folded), absorbed into a constant (And/Mul with
 *    zero, Or with all-ones), or duplicates of an already-emitted op
 *    tuple (CSE, commutative operands normalized) emit no op and share
 *    the surviving slot.
 *
 * Ops are emitted level by level (longest path from a register, input,
 * or constant), grouped by opcode within a level — any level order is a
 * valid evaluation order, and the grouping gives BatchSim's kernel
 * long same-opcode runs to amortize its one opcode test per run over.
 *
 * The interpreted Simulator remains the reference oracle: the tape is
 * only trusted because test_sim_compiled replays seeded random programs
 * through both engines and asserts bit-identical watched values.
 */

#ifndef SIM_TAPE_HH
#define SIM_TAPE_HH

#include <cstdint>
#include <vector>

#include "rtlir/design.hh"

namespace rmp::sim
{

/** Index into a Tape's dense value array. */
using Slot = uint32_t;

/** Slot of a pruned (never-evaluated) cell. */
inline constexpr Slot kNoSlot = UINT32_MAX;

/** Dense input ordinal of a cell that is not a live input. */
inline constexpr uint32_t kNoInput = UINT32_MAX;

/**
 * Tape opcodes. A subset of rtlir::Op: Const/Input/Reg cells become
 * preloaded or externally written slots, Zext becomes slot aliasing.
 */
enum class TOp : uint8_t {
    Not,    ///< dst = ~a & mask
    And,    ///< dst = a & b
    Or,     ///< dst = a | b
    Xor,    ///< dst = a ^ b
    RedOr,  ///< dst = a != 0
    RedAnd, ///< dst = a == mask (mask = operand's full mask)
    Eq,     ///< dst = a == b
    Ult,    ///< dst = a < b
    Add,    ///< dst = (a + b) & mask
    Sub,    ///< dst = (a - b) & mask
    Mul,    ///< dst = (a * b) & mask
    Shl,    ///< dst = b >= 64 ? 0 : (a << b) & mask
    Shr,    ///< dst = b >= 64 ? 0 : (a >> b) & mask
    Mux,    ///< dst = a ? b : c
    Slice,  ///< dst = (a >> aux) & mask
    Concat, ///< dst = (a << aux) | b   (aux = low operand's width)
};

const char *topName(TOp op);

/**
 * A compiled design: the linear op program plus everything BatchSim
 * needs to seed, drive, and observe it. Immutable after compileTape();
 * any number of BatchSim instances (one per worker thread) may share
 * one tape concurrently.
 */
struct Tape
{
    /** @name The op program (parallel arrays, topo order) */
    /// @{
    std::vector<uint8_t> opc; ///< static_cast<TOp>
    std::vector<Slot> dst;
    std::vector<Slot> a, b, c; ///< operand slots (unused -> 0)
    std::vector<uint32_t> aux; ///< Slice shift / Concat low width
    std::vector<uint64_t> mask;
    /// @}

    /** Number of value slots (dense, contiguous). */
    uint32_t numSlots = 0;

    /** Per-slot reset value: folded constants and register resets. */
    std::vector<uint64_t> init;

    /** Register latch: after each step, slot[reg] <- slot[next]. */
    struct Latch
    {
        Slot reg = kNoSlot;
        Slot next = kNoSlot;
    };
    std::vector<Latch> latches;

    /** One live (unpruned) input: its slot and width mask. */
    struct InBind
    {
        Slot slot = kNoSlot;
        uint64_t mask = 0;
    };
    /** Live inputs, indexed by dense input ordinal. */
    std::vector<InBind> inputs;

    /** The caller's watch set (deduped, caller order preserved). */
    std::vector<SigId> watchSigs;
    /** watchSlots[k] = slot of watchSigs[k]. */
    std::vector<Slot> watchSlots;

    /** SigId -> slot; kNoSlot for pruned cells. */
    std::vector<Slot> slotOf;
    /** SigId -> dense input ordinal; kNoInput for non-inputs and pruned
     *  inputs (whose values cannot reach a register or watched signal). */
    std::vector<uint32_t> inputOrdinal;

    /** @name Compile statistics */
    /// @{
    uint32_t cellsTotal = 0;
    uint32_t cellsPruned = 0;
    uint32_t constsFolded = 0;
    /** Cells elided by identity / absorption / CSE slot aliasing. */
    uint32_t cellsAliased = 0;
    /** Distinct pooled constant slots (the `sim.tape_consts` metric:
     *  every folded cell and absorption rewrite shares one of these). */
    uint32_t constsPooled = 0;
    double compileMs = 0.0;
    /// @}

    size_t numOps() const { return opc.size(); }
    size_t numInputs() const { return inputs.size(); }
};

/**
 * Lower @p design into a Tape that preserves, cycle for cycle and bit
 * for bit, the interpreted Simulator's values of every signal in
 * @p watch plus every register. Duplicate watch entries are deduped.
 */
Tape compileTape(const Design &design, const std::vector<SigId> &watch);

} // namespace rmp::sim

#endif // SIM_TAPE_HH
