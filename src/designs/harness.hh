/**
 * @file
 * The verification harness: the auxiliary verification-only state that the
 * paper adds around a DUV (§V-A, footnote 2).
 *
 * Given a design under construction plus its §V-A metadata, the harness:
 *
 *  - enumerates the candidate PL universe (every non-idle valuation of
 *    every μFSM's vars, §V-B1);
 *  - adds instruction-under-verification (IUV) tracking: a mark input
 *    binds one fetched instruction, whose PC then identifies it at every
 *    μFSM (the paper's IID mechanism, §III-C);
 *  - adds a second, independent transmitter (txm) mark for SynthLC's
 *    symbolic-IFT assumptions 1/2a/2b/3 (§V-C1, Fig. 7);
 *  - adds per-PL sticky visited flags, consecutive/non-consecutive revisit
 *    detectors, and visit counters (§V-B4, §V-B6);
 *  - adds per-candidate-HB-edge sticky observers, with candidates pruned
 *    by combinational connectivity between μFSMs (§V-B5);
 *  - provides the base assume set (valid instruction encodings, mark
 *    well-formedness) that every generated property includes.
 *
 * All of this state exists only in the verification environment, exactly
 * as in the paper ("removed prior to synthesis and fabrication").
 */

#ifndef DESIGNS_HARNESS_HH
#define DESIGNS_HARNESS_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ift/instrument.hh"
#include "prop/property.hh"
#include "rtlir/builder.hh"
#include "uhb/duv.hh"
#include "uhb/graph.hh"

namespace rmp::designs
{

/** A DUV mid-construction: design + open builder + filled-in metadata. */
struct DuvUnderConstruction
{
    std::shared_ptr<Design> design;
    std::shared_ptr<Builder> builder;
    uhb::DuvInfo info;
};

/** Per-PL harness signals. */
struct PlSignals
{
    SigId occupied = kNoSig;      ///< someone occupies this PL (wire)
    SigId iuvAt = kNoSig;         ///< the IUV occupies this PL (wire)
    SigId iuvPrevAt = kNoSig;     ///< iuvAt delayed one cycle (reg)
    SigId iuvVisited = kNoSig;    ///< sticky: IUV visited before now (reg)
    SigId revisitConsec = kNoSig; ///< sticky: >=2 consecutive visits
    SigId revisitNonconsec = kNoSig; ///< sticky: revisit after a gap
    SigId visitCount = kNoSig;    ///< saturating total-visit counter
    SigId maxRun = kNoSig;        ///< max consecutive-run length
    SigId txmAt = kNoSig;         ///< the transmitter occupies this PL
};

/**
 * The finalized, analysis-ready wrapper around a DUV.
 *
 * Construction finalizes the design; afterwards the Design is immutable
 * and all tool queries go through signals and assume-expressions exposed
 * here.
 */
class Harness
{
  public:
    explicit Harness(DuvUnderConstruction duc);

    const uhb::DuvInfo &duv() const { return info; }
    const Design &design() const { return *info.design; }

    /**
     * The IFT instrumentation SynthLC analyzes and the IFT lint checks:
     * taint enters at the operand registers, the ARF and AMEM words
     * block it, the persistent registers keep it across the sticky
     * flush, which the transmitter's departure triggers. Empty when the
     * DUV declares no operand registers.
     */
    std::optional<ift::IftConfig> iftConfig() const;

    /** The μFSM state variables: the control registers every absint
     *  consumer (lint, analyze) sharpens with fsmReachability. */
    std::vector<SigId> controlRegs() const;

    /** @name PL universe (§V-B1 candidates, before reachability pruning) */
    /// @{
    size_t numPls() const { return pls_.size(); }
    const uhb::PerfLoc &pl(uhb::PlId p) const { return pls_[p]; }
    const std::string &plName(uhb::PlId p) const { return plNames_[p]; }
    const std::vector<std::string> &plNames() const { return plNames_; }
    const PlSignals &plSig(uhb::PlId p) const { return plSigs[p]; }
    /// @}

    /** @name Global IUV / transmitter tracking signals */
    /// @{
    SigId iuvTaken = kNoSig;   ///< sticky: IUV has been marked
    SigId iuvPc = kNoSig;      ///< latched PC of the IUV
    SigId iuvPresent = kNoSig; ///< wire: IUV occupies some PL now
    SigId iuvGone = kNoSig;    ///< wire: IUV was present earlier, not now
    SigId iuvCommitted = kNoSig; ///< sticky: IUV committed
    SigId markIuvFire = kNoSig;  ///< wire: the IUV is being marked now

    SigId txmTaken = kNoSig;
    SigId txmPc = kNoSig;
    SigId txmPresent = kNoSig;
    SigId txmGone = kNoSig;
    SigId markTxmFire = kNoSig;
    SigId txmAtIssue = kNoSig; ///< wire: transmitter at the issue stage
    SigId txmOlder = kNoSig;   ///< wire: txm PC < iuv PC (both taken)
    SigId txmSame = kNoSig;    ///< wire: txm PC == iuv PC (both taken)
    /// @}

    /** @name Candidate HB edges (§V-B5) */
    /// @{
    struct EdgeObserver
    {
        uhb::PlId from, to;
        SigId seen; ///< sticky: IUV at `from` one cycle before at `to`
    };
    const std::vector<EdgeObserver> &edgeObservers() const { return edges_; }
    /** True iff μFSM @p b's state cone combinationally reads μFSM @p a. */
    bool fsmConnected(uhb::FsmId a, uhb::FsmId b) const;
    /// @}

    /** @name Assume-expression builders */
    /// @{
    /** Base assumes every query includes (valid encodings etc.). */
    std::vector<prop::ExprRef> baseAssumes() const;
    /** The marked IUV is instruction @p i. */
    prop::ExprRef assumeIuvIs(uhb::InstrId i) const;
    /** The marked transmitter is instruction @p i. */
    prop::ExprRef assumeTxmIs(uhb::InstrId i) const;
    /// @}

    /** Width of the per-PL visit counters. */
    static constexpr unsigned kCountWidth = 7;

  private:
    void enumeratePls();
    void buildTracking(Builder &b);
    void buildEdgeObservers(Builder &b);
    void computeFsmConnectivity();

    uhb::DuvInfo info;
    std::vector<uhb::PerfLoc> pls_;
    std::vector<std::string> plNames_;
    std::vector<PlSignals> plSigs;
    std::vector<EdgeObserver> edges_;
    /** connectivity[a * numFsms + b] = b reads a combinationally. */
    std::vector<bool> connectivity;
    /** Per-instruction: wire asserting markIuvFire implies this opcode. */
    std::vector<SigId> iuvIsWires;
    std::vector<SigId> txmIsWires;
    SigId encValidWire = kNoSig;
    SigId pcWire = kNoSig;
};

} // namespace rmp::designs

#endif // DESIGNS_HARNESS_HH
