#include "designs/harness.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rmp::designs
{

using namespace uhb;

std::optional<ift::IftConfig>
Harness::iftConfig() const
{
    if (info.rs1Reg == kNoSig || info.rs2Reg == kNoSig)
        return std::nullopt;
    ift::IftConfig cfg;
    cfg.taintSources = {info.rs1Reg, info.rs2Reg};
    cfg.blockRegs = info.arfRegs;
    cfg.blockRegs.insert(cfg.blockRegs.end(), info.amemRegs.begin(),
                         info.amemRegs.end());
    cfg.persistentRegs = info.persistentRegs;
    cfg.txmGone = txmGone;
    return cfg;
}

std::vector<SigId>
Harness::controlRegs() const
{
    std::vector<SigId> ctrl;
    for (const uhb::MicroFsm &fsm : info.fsms)
        for (SigId v : fsm.vars)
            ctrl.push_back(v);
    return ctrl;
}

Harness::Harness(DuvUnderConstruction duc) : info(std::move(duc.info))
{
    rmp_assert(info.design == duc.design, "DuvInfo does not own the design");
    rmp_assert(info.ifr != kNoSig && info.fetchValid != kNoSig &&
                   info.fetchPc != kNoSig,
               "DUV %s missing frontend metadata", info.name.c_str());
    rmp_assert(!info.fsms.empty(), "DUV %s declares no μFSMs",
               info.name.c_str());

    // Finalize the DUV's own construction first so that register
    // next-state connections exist for the connectivity analysis.
    duc.builder->finalize();

    enumeratePls();
    computeFsmConnectivity();

    // Harness state is built with a second builder over the same design
    // (the paper's verification-only auxiliary state, §V-A footnote 2).
    Builder b(*info.design);
    buildTracking(b);
    buildEdgeObservers(b);
    b.finalize();
}

void
Harness::enumeratePls()
{
    const Design &d = *info.design;
    for (FsmId f = 0; f < info.fsms.size(); f++) {
        const MicroFsm &fsm = info.fsms[f];
        rmp_assert(fsm.pcr != kNoSig, "μFSM %s has no PCR",
                   fsm.name.c_str());
        unsigned total_width = 0;
        for (SigId v : fsm.vars)
            total_width += d.cell(v).width;
        rmp_assert(total_width >= 1 && total_width <= 8,
                   "μFSM %s vars width %u out of range (1..8)",
                   fsm.name.c_str(), total_width);
        for (uint64_t enc = 0; enc < (1ULL << total_width); enc++) {
            // Unpack the encoding into per-var values.
            PerfLoc pl;
            pl.fsm = f;
            uint64_t rest = enc;
            for (SigId v : fsm.vars) {
                unsigned w = d.cell(v).width;
                pl.state.push_back(rest & BitVec::maskOf(w));
                rest >>= w;
            }
            bool idle = false;
            for (const auto &ist : fsm.idleStates)
                if (ist == pl.state)
                    idle = true;
            if (idle)
                continue;
            plNames_.push_back(plLabel(fsm, pl));
            pls_.push_back(std::move(pl));
        }
    }
}

void
Harness::computeFsmConnectivity()
{
    const Design &d = *info.design;
    size_t n = info.fsms.size();
    connectivity.assign(n * n, false);

    // For each μFSM, the register sources feeding its state cone.
    std::vector<std::vector<SigId>> fanin(n);
    for (size_t f = 0; f < n; f++) {
        std::vector<SigId> roots;
        for (SigId v : info.fsms[f].vars)
            roots.push_back(d.cell(v).args[0]); // next-state signal
        roots.push_back(d.cell(info.fsms[f].pcr).args[0]);
        fanin[f] = d.combFanInSources(roots);
    }
    for (size_t a = 0; a < n; a++) {
        std::vector<SigId> a_regs = info.fsms[a].vars;
        a_regs.push_back(info.fsms[a].pcr);
        std::sort(a_regs.begin(), a_regs.end());
        for (size_t q = 0; q < n; q++) {
            bool hit = false;
            for (SigId src : fanin[q])
                if (std::binary_search(a_regs.begin(), a_regs.end(), src))
                    hit = true;
            connectivity[a * n + q] = hit;
        }
    }
}

bool
Harness::fsmConnected(FsmId a, FsmId b) const
{
    return connectivity[a * info.fsms.size() + b];
}

void
Harness::buildTracking(Builder &b)
{
    const Design &d = *info.design;
    auto sig = [&](SigId id) { return Sig{&b, id}; };

    Sig fetch_valid = sig(info.fetchValid);
    Sig fetch_ready = info.fetchReady != kNoSig ? sig(info.fetchReady)
                                                : b.lit1(true);
    Sig fetch_fire = fetch_valid & fetch_ready;
    Sig fetch_pc = sig(info.fetchPc);
    unsigned pcw = d.cell(info.fetchPc).width;

    // Valid-encoding wire: whenever an instruction is fetched its opcode
    // field must match one of the implemented encodings.
    Sig opc = sig(info.ifr).slice(info.opcodeLo, info.opcodeWidth);
    Sig any;
    for (const auto &ins : info.instrs) {
        Sig m = opc == b.lit(info.opcodeWidth, ins.opcode);
        any = any.valid() ? (any | m) : m;
    }
    encValidWire = b.named("hx_enc_valid", ~fetch_valid | any).id;

    // --- IUV mark ---------------------------------------------------
    Sig mark_iuv = b.input("hx_mark_iuv", 1);
    RegSig iuv_taken = b.regh("hx_iuv_taken", 1, 0);
    RegSig iuv_pc = b.regh("hx_iuv_pc", pcw, 0);
    Sig iuv_fire =
        b.named("hx_mark_iuv_fire", mark_iuv & fetch_fire & ~iuv_taken.q);
    b.when(iuv_fire);
    b.assign(iuv_taken, b.lit1(true));
    b.assign(iuv_pc, fetch_pc);
    b.end();
    iuvTaken = iuv_taken.q.id;
    iuvPc = iuv_pc.q.id;
    markIuvFire = iuv_fire.id;

    // --- Transmitter mark --------------------------------------------
    Sig mark_txm = b.input("hx_mark_txm", 1);
    RegSig txm_taken = b.regh("hx_txm_taken", 1, 0);
    RegSig txm_pc = b.regh("hx_txm_pc", pcw, 0);
    Sig txm_fire =
        b.named("hx_mark_txm_fire", mark_txm & fetch_fire & ~txm_taken.q);
    b.when(txm_fire);
    b.assign(txm_taken, b.lit1(true));
    b.assign(txm_pc, fetch_pc);
    b.end();
    txmTaken = txm_taken.q.id;
    txmPc = txm_pc.q.id;
    markTxmFire = txm_fire.id;

    // --- Per-instruction mark implications ---------------------------
    for (const auto &ins : info.instrs) {
        Sig is_i = opc == b.lit(info.opcodeWidth, ins.opcode);
        iuvIsWires.push_back(
            b.named("hx_iuv_is_" + ins.name, ~iuv_fire | is_i).id);
        txmIsWires.push_back(
            b.named("hx_txm_is_" + ins.name, ~txm_fire | is_i).id);
    }

    // --- Per-PL tracking ----------------------------------------------
    plSigs.resize(pls_.size());
    Sig iuv_any, txm_any;
    for (PlId p = 0; p < pls_.size(); p++) {
        const PerfLoc &pl = pls_[p];
        const MicroFsm &fsm = info.fsms[pl.fsm];
        const std::string &pn = plNames_[p];
        PlSignals &ps = plSigs[p];

        // State match: vars hold exactly this valuation.
        Sig occ;
        for (size_t i = 0; i < fsm.vars.size(); i++) {
            Sig v = sig(fsm.vars[i]);
            Sig m = v == b.lit(v.width(), pl.state[i]);
            occ = occ.valid() ? (occ & m) : m;
        }
        occ = b.named("hx_occ_" + pn, occ);
        ps.occupied = occ.id;

        Sig pc_match = sig(fsm.pcr) == iuv_pc.q;
        Sig at = b.named("hx_iuv_at_" + pn, occ & pc_match & iuv_taken.q);
        ps.iuvAt = at.id;

        Sig txm_pc_match = sig(fsm.pcr) == txm_pc.q;
        Sig tat =
            b.named("hx_txm_at_" + pn, occ & txm_pc_match & txm_taken.q);
        ps.txmAt = tat.id;

        RegSig prev = b.regh("hx_prev_" + pn, 1, 0);
        b.assign(prev, at);
        ps.iuvPrevAt = prev.q.id;

        RegSig visited = b.regh("hx_visited_" + pn, 1, 0);
        b.assign(visited, visited.q | at);
        ps.iuvVisited = visited.q.id;

        RegSig consec = b.regh("hx_consec_" + pn, 1, 0);
        b.assign(consec, consec.q | (at & prev.q));
        ps.revisitConsec = consec.q.id;

        RegSig nonconsec = b.regh("hx_nonconsec_" + pn, 1, 0);
        b.assign(nonconsec, nonconsec.q | (at & ~prev.q & visited.q));
        ps.revisitNonconsec = nonconsec.q.id;

        // Saturating visit counter and max consecutive-run tracker.
        unsigned cw = kCountWidth;
        Sig maxc = b.lit(cw, BitVec::maskOf(cw));
        RegSig count = b.regh("hx_count_" + pn, cw, 0);
        Sig count_sat = count.q == maxc;
        b.when(at & ~count_sat);
        b.assign(count, count.q + b.lit(cw, 1));
        b.end();
        ps.visitCount = count.q.id;

        RegSig cur_run = b.regh("hx_run_" + pn, cw, 0);
        RegSig max_run = b.regh("hx_maxrun_" + pn, cw, 0);
        Sig run_sat = cur_run.q == maxc;
        Sig run_now = b.mux(
            at, b.mux(prev.q, cur_run.q + b.mux(run_sat, b.lit(cw, 0),
                                                b.lit(cw, 1)),
                      b.lit(cw, 1)),
            b.lit(cw, 0));
        b.assign(cur_run, run_now);
        b.when(max_run.q < run_now);
        b.assign(max_run, run_now);
        b.end();
        ps.maxRun = max_run.q.id;

        iuv_any = iuv_any.valid() ? (iuv_any | at) : at;
        txm_any = txm_any.valid() ? (txm_any | tat) : tat;
    }
    iuv_any = b.named("hx_iuv_present", iuv_any);
    txm_any = b.named("hx_txm_present", txm_any);
    iuvPresent = iuv_any.id;
    txmPresent = txm_any.id;

    RegSig iuv_ever = b.regh("hx_iuv_ever", 1, 0);
    b.assign(iuv_ever, iuv_ever.q | iuv_any);
    iuvGone = b.named("hx_iuv_gone", iuv_ever.q & ~iuv_any).id;

    RegSig txm_ever = b.regh("hx_txm_ever", 1, 0);
    b.assign(txm_ever, txm_ever.q | txm_any);
    txmGone = b.named("hx_txm_gone", txm_ever.q & ~txm_any).id;

    // IUV commit tracking.
    if (info.commit != kNoSig && info.commitPc != kNoSig) {
        RegSig committed = b.regh("hx_iuv_committed", 1, 0);
        Sig now = sig(info.commit) & (sig(info.commitPc) == iuv_pc.q) &
                  iuv_taken.q;
        b.assign(committed, committed.q | now);
        iuvCommitted = committed.q.id;
    }

    // Transmitter-at-issue (taint introduction point, §V-C1).
    if (info.issueOccupied != kNoSig && info.issuePcr != kNoSig) {
        txmAtIssue = b.named("hx_txm_at_issue",
                             sig(info.issueOccupied) &
                                 (sig(info.issuePcr) == txm_pc.q) &
                                 txm_taken.q)
                         .id;
    }

    // Program-order relations between the two marked instructions. The
    // fetch PC is a monotonically increasing counter, so PC order is
    // program order.
    Sig both = iuv_taken.q & txm_taken.q;
    txmOlder = b.named("hx_txm_older", both & (txm_pc.q < iuv_pc.q)).id;
    txmSame = b.named("hx_txm_same", both & (txm_pc.q == iuv_pc.q)).id;
}

void
Harness::buildEdgeObservers(Builder &b)
{
    for (PlId p = 0; p < pls_.size(); p++) {
        for (PlId q = 0; q < pls_.size(); q++) {
            if (p == q)
                continue;
            FsmId fp = pls_[p].fsm, fq = pls_[q].fsm;
            if (fp != fq && !fsmConnected(fp, fq))
                continue;
            Sig prev_p{&b, plSigs[p].iuvPrevAt};
            Sig at_q{&b, plSigs[q].iuvAt};
            RegSig seen = b.regh(
                "hx_edge_" + plNames_[p] + "__" + plNames_[q], 1, 0);
            b.assign(seen, seen.q | (prev_p & at_q));
            edges_.push_back({p, q, seen.q.id});
        }
    }
}

std::vector<prop::ExprRef>
Harness::baseAssumes() const
{
    return {prop::pBit(encValidWire)};
}

prop::ExprRef
Harness::assumeIuvIs(InstrId i) const
{
    return prop::pBit(iuvIsWires[i]);
}

prop::ExprRef
Harness::assumeTxmIs(InstrId i) const
{
    return prop::pBit(txmIsWires[i]);
}

} // namespace rmp::designs
