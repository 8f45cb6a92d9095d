/**
 * @file
 * Design-under-verification metadata: the user annotations that SYNTHLC and
 * RTL2MμPATH require (§V-A and Table II) — IFR, μFSMs with PCRs, commit
 * signal, operand registers, ARF/AMEM, plus the instruction encoding list.
 */

#ifndef UHB_DUV_HH
#define UHB_DUV_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rtlir/design.hh"
#include "uhb/ufsm.hh"

namespace rmp::uhb
{

/** Coarse instruction classes used by contract derivation (Table I). */
enum class InstrClass : uint8_t
{
    Alu,     ///< single-cycle integer ops (incl. LUI/AUIPC)
    Mul,     ///< multiplier unit ops
    DivRem,  ///< serial divider ops (variable latency)
    Load,
    Store,
    Branch,  ///< conditional branches (explicit branches in STT terms)
    Jump,    ///< JAL/JALR
};

const char *instrClassName(InstrClass c);

/** One implemented instruction: its name, encoding, and class. */
struct InstrSpec
{
    std::string name;   ///< e.g. "DIV", "LW", "BEQ"
    uint64_t opcode = 0;///< value of the IFR opcode field
    InstrClass cls = InstrClass::Alu;
    bool usesRs1 = true;
    bool usesRs2 = true;
};

/** Index into DuvInfo::instrs. */
using InstrId = uint32_t;

/**
 * Everything the tools need to know about a DUV.
 *
 * The design itself plus the §V-A metadata. The verification harness
 * (designs/harness) consumes this and produces the augmented design with
 * IUV/transmitter tracking and visited flags.
 */
struct DuvInfo
{
    std::string name;
    std::shared_ptr<Design> design;

    /** @name Frontend interface (driven by the model checker, §V-B) */
    /// @{
    SigId ifr = kNoSig;        ///< instruction fetch register (an input)
    SigId fetchValid = kNoSig; ///< input: IFR holds an instruction
    SigId fetchReady = kNoSig; ///< wire: core accepts the instruction
    SigId fetchPc = kNoSig;    ///< input: PC of the fetched instruction
    /// @}

    /** Commit signal and the PC of the committing instruction. */
    SigId commit = kNoSig;
    SigId commitPc = kNoSig;

    /**
     * Issue/register-read stage identification (taint-introduction point,
     * §V-C1): the stage-occupied wire and the PCR of the occupant.
     */
    SigId issueOccupied = kNoSig;
    SigId issuePcr = kNoSig;

    /** All μFSMs (PCR + vars + idle states). */
    std::vector<MicroFsm> fsms;

    /** Opcode field position within the IFR word. */
    unsigned opcodeLo = 0, opcodeWidth = 0;

    /** Operand-field layout within the IFR word (width 0 = absent). */
    struct EncodingLayout
    {
        unsigned rdLo = 0, rdW = 0;
        unsigned rs1Lo = 0, rs1W = 0;
        unsigned rs2Lo = 0, rs2W = 0;
        unsigned immLo = 0, immW = 0;
    } layout;

    /** Implemented instructions. */
    std::vector<InstrSpec> instrs;

    /** Encode an instruction word for simulation-based tests/examples. */
    uint64_t encode(const std::string &name, uint64_t rd = 0,
                    uint64_t rs1 = 0, uint64_t rs2 = 0,
                    uint64_t imm = 0) const;

    /** @name SynthLC inputs (§V-A) */
    /// @{
    /** Operand registers at issue/register-read (taint introduction). */
    SigId rs1Reg = kNoSig, rs2Reg = kNoSig;
    /** Architectural register file words (taint blocking). */
    std::vector<SigId> arfRegs;
    /** Architectural main memory words (taint blocking). */
    std::vector<SigId> amemRegs;
    /**
     * Persistent microarchitectural state (caches, buffers that survive an
     * instruction's dematerialization): retains taint across the
     * Assumption-3 sticky-taint flush (§V-C1).
     */
    std::vector<SigId> persistentRegs;
    /// @}

    /**
     * Completeness bound: the number of cycles within which any single
     * instruction provably drains from the pipeline, plus the context
     * window. UNSAT covers up to this bound are reported Unreachable
     * (DESIGN.md §5).
     */
    unsigned completenessBound = 24;

    /** PCs are counters of this width in the harness. */
    unsigned pcWidth = 6;

    /** Find an instruction by name; panics if absent. */
    const InstrSpec &instr(const std::string &name) const;
    InstrId instrId(const std::string &name) const;
    /** The instruction named @p name, or nullopt if the DUV has none
     *  (for names that come from users). */
    std::optional<InstrId> findInstr(const std::string &name) const;
};

} // namespace rmp::uhb

#endif // UHB_DUV_HH
