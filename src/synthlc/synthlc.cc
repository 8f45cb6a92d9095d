#include "synthlc/synthlc.hh"

#include <algorithm>
#include <atomic>
#include <random>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "exec/parallel.hh"
#include "obs/progress.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "rtl2mupath/sim_explore.hh"

namespace rmp::slc
{

using namespace uhb;
using namespace prop;

const char *
txTypeName(TxType t)
{
    switch (t) {
      case TxType::Intrinsic: return "intrinsic";
      case TxType::DynamicOlder: return "dynamic-older";
      case TxType::DynamicYounger: return "dynamic-younger";
      case TxType::Static: return "static";
    }
    return "?";
}

const char *
operandName(Operand o)
{
    return o == Operand::Rs1 ? "rs1" : "rs2";
}

namespace
{

/** Build the per-μFSM taint-reduction wires (vars + PCR shadows). */
std::vector<SigId>
buildFsmTaintWires(const designs::Harness &hx, const ift::Instrumented &inst)
{
    std::vector<SigId> out;
    for (const MicroFsm &fsm : hx.duv().fsms) {
        std::vector<SigId> regs = fsm.vars;
        regs.push_back(fsm.pcr);
        out.push_back(inst.anyTaintWire(regs));
    }
    return out;
}

/** Named-field engine configuration (positional init breaks silently as
 *  EngineConfig grows). */
bmc::EngineConfig
engineConfigFor(const designs::Harness &hx, const SynthLcConfig &config)
{
    bmc::EngineConfig ec;
    ec.bound = hx.duv().completenessBound;
    ec.budget = config.budget;
    ec.auditReplay = config.auditReplay;
    ec.auditProof = config.auditProof;
    return ec;
}

} // anonymous namespace

SynthLc::SynthLc(const designs::Harness &harness, const SynthLcConfig &config)
    : hx(harness), cfg(config),
      inst(ift::instrument(hx.design(),
                           [&] {
                               auto icfg = harness.iftConfig();
                               rmp_assert(icfg, "DUV %s lacks operand-"
                                          "register metadata",
                                          harness.duv().name.c_str());
                               return *icfg;
                           }())),
      fsmTaint(buildFsmTaintWires(harness, inst)),
      pool_(*inst.design, engineConfigFor(harness, config), config.store),
      base(hx.baseAssumes())
{
}

prop::ExprRef
SynthLc::taintIntro(Operand op) const
{
    const DuvInfo &info = hx.duv();
    SigId sel = op == Operand::Rs1 ? info.rs1Reg : info.rs2Reg;
    SigId other = op == Operand::Rs1 ? info.rs2Reg : info.rs1Reg;
    SigId sel_in = inst.taintIn.at(sel);
    SigId other_in = inst.taintIn.at(other);
    uint64_t mask = BitVec::maskOf(inst.design->cell(sel_in).width);
    ExprRef at_issue = pBit(hx.txmAtIssue);
    // Taint is introduced exactly while the transmitter occupies the
    // issue stage (§V-C1), and never anywhere else.
    ExprRef intro = pOr(pAnd(at_issue, pEq(sel_in, mask)),
                        pAnd(pNot(at_issue), pEq(sel_in, 0)));
    return pAnd(intro, pEq(other_in, 0));
}

prop::ExprRef
SynthLc::assumptionExpr(TxType type, PlId src) const
{
    ExprRef both = pAnd(pBit(hx.iuvTaken), pBit(hx.txmTaken));
    ExprRef at_src = pBit(hx.plSig(src).iuvAt);
    switch (type) {
      case TxType::Intrinsic:
        // Assumption 1: iT and iP are the same dynamic instruction.
        return pOr(pNot(both), pBit(hx.txmSame));
      case TxType::DynamicOlder:
        // Assumption 2a: iT older, and in-flight whenever iP is at src.
        return pAnd(pOr(pNot(both), pBit(hx.txmOlder)),
                    pOr(pNot(at_src), pBit(hx.txmPresent)));
      case TxType::DynamicYounger:
        // Assumption 2b: iT younger (neither older nor the same), and
        // in-flight whenever iP is at src.
        return pAnd(pOr(pNot(both), pAnd(pNot(pBit(hx.txmOlder)),
                                         pNot(pBit(hx.txmSame)))),
                    pOr(pNot(at_src), pBit(hx.txmPresent)));
      case TxType::Static:
        // Assumption 3: iT materialized and dematerialized before iP
        // reaches src (and is a distinct instruction).
        return pAnd(pOr(pNot(both), pNot(pBit(hx.txmSame))),
                    pOr(pNot(at_src), pBit(hx.txmGone)));
    }
    rmp_panic("bad TxType");
}

prop::ExprRef
SynthLc::coverExpr(const Decision &d,
                   const std::vector<PlId> &succ_universe) const
{
    ExprRef at_src = pBit(hx.plSig(d.src).iuvAt);
    // Exact destination occupancy over the successor universe.
    std::vector<ExprRef> terms;
    for (PlId q : succ_universe) {
        bool in = std::find(d.dst.begin(), d.dst.end(), q) != d.dst.end();
        ExprRef at_q = pBit(hx.plSig(q).iuvAt);
        terms.push_back(in ? at_q : pNot(at_q));
    }
    // Destination μFSM taint (for the departure decision, the source
    // μFSM's taint stands in for the observable freeing of the resource).
    std::vector<ExprRef> taint_terms;
    if (d.dst.empty()) {
        terms.push_back(pBit(hx.iuvGone));
        taint_terms.push_back(pBit(fsmTaint[hx.pl(d.src).fsm]));
    } else {
        for (PlId q : d.dst)
            taint_terms.push_back(pBit(fsmTaint[hx.pl(q).fsm]));
    }
    terms.push_back(pOrN(taint_terms));
    return pDelay(at_src, 1, pAndN(terms));
}

std::vector<prop::ExprRef>
SynthLc::queryAssumes(InstrId transponder, InstrId transmitter, Operand op,
                      TxType type, PlId src) const
{
    std::vector<ExprRef> assumes = base;
    assumes.push_back(hx.assumeIuvIs(transponder));
    assumes.push_back(hx.assumeTxmIs(transmitter));
    assumes.push_back(taintIntro(op));
    assumes.push_back(assumptionExpr(type, src));
    assumes.push_back(
        pEq(inst.stickyMode, type == TxType::Static ? 1 : 0));
    return assumes;
}

void
SynthLc::simBatch(InstrId transponder, InstrId transmitter, Operand op,
                  TxType type,
                  const std::map<PlId, std::vector<Decision>> &by_src,
                  const std::map<PlId, std::vector<PlId>> &universe,
                  std::set<std::pair<PlId, Decision>> *hits) const
{
    if (cfg.simRuns == 0)
        return;
    const DuvInfo &info = hx.duv();
    const Design &d = *inst.design;
    // Pre-step taint-introduction needs register-backed issue metadata.
    if (d.cell(info.issueOccupied).op != Op::Reg ||
        d.cell(info.issuePcr).op != Op::Reg)
        return;
    SigId sel = op == Operand::Rs1 ? info.rs1Reg : info.rs2Reg;
    SigId other = op == Operand::Rs1 ? info.rs2Reg : info.rs1Reg;
    SigId sel_in = inst.taintIn.at(sel);
    SigId other_in = inst.taintIn.at(other);
    uint64_t mask = BitVec::maskOf(d.cell(sel_in).width);
    bool sticky = type == TxType::Static;

    r2m::SimExploreConfig ecfg;
    ecfg.fetchProb = sticky ? 0.35 : 0.85;
    std::mt19937_64 rng(cfg.simSeed * 0x2545f4914f6cdd1dULL +
                        transponder * 131 + transmitter * 17 +
                        static_cast<int>(op) * 5 + static_cast<int>(type));
    unsigned bound = pool_.bound();

    auto extra = [&](unsigned, Simulator &sim, InputMap &in) {
        bool at_issue = sim.regValue(info.issueOccupied) &&
                        sim.regValue(hx.txmTaken) &&
                        sim.regValue(info.issuePcr) ==
                            sim.regValue(hx.txmPc);
        in[sel_in] = at_issue ? mask : 0;
        in[other_in] = 0;
        in[inst.stickyMode] = sticky;
    };

    for (unsigned run = 0; run < cfg.simRuns; run++) {
        unsigned iuv_pos = 0, txm_pos = 0;
        switch (type) {
          case TxType::Intrinsic:
            iuv_pos = txm_pos = rng() % 3;
            break;
          case TxType::DynamicOlder:
            txm_pos = rng() % 3;
            iuv_pos = txm_pos + 1 + rng() % 2;
            break;
          case TxType::DynamicYounger:
            iuv_pos = rng() % 3;
            txm_pos = iuv_pos + 1 + rng() % 2;
            break;
          case TxType::Static:
            txm_pos = 0;
            iuv_pos = 1 + rng() % 3;
            break;
        }
        r2m::SimRun rr = r2m::randomConstrainedRun(
            hx, d, bound, transponder, iuv_pos,
            static_cast<int>(transmitter), txm_pos, ecfg, rng, extra);
        const SimTrace &tr = rr.trace;
        for (const auto &[src, ds] : by_src) {
            // The run must satisfy every assume of this src's query for
            // a cover match to be equivalent to a BMC witness.
            bool valid = true;
            auto assumes =
                queryAssumes(transponder, transmitter, op, type, src);
            for (const auto &a : assumes) {
                unsigned lastf =
                    bound > a->depth() ? bound - a->depth() : 1;
                for (unsigned t = 0; t < lastf && valid; t++)
                    valid = prop::evalOnTrace(a, tr, t);
                if (!valid)
                    break;
            }
            if (!valid)
                continue;
            for (const Decision &dec : ds) {
                if (hits->count({src, dec}))
                    continue;
                ExprRef cov = coverExpr(dec, universe.at(src));
                for (unsigned t = 0; t + 1 < bound; t++) {
                    if (prop::evalOnTrace(cov, tr, t)) {
                        hits->insert({src, dec});
                        break;
                    }
                }
            }
        }
    }
}

std::vector<std::string>
SynthLc::implicitInputsOf(const Decision &d) const
{
    const Design &dsg = *inst.design;
    const DuvInfo &info = hx.duv();
    // Structures combinationally read by the destination μFSMs' (and the
    // source μFSM's) next-state logic.
    std::set<FsmId> fsms{hx.pl(d.src).fsm};
    for (PlId q : d.dst)
        fsms.insert(hx.pl(q).fsm);
    std::vector<SigId> roots;
    for (FsmId f : fsms) {
        for (SigId v : info.fsms[f].vars)
            roots.push_back(dsg.cell(v).args[0]);
    }
    auto srcs = dsg.combFanInSources(roots);

    std::set<SigId> excluded;
    excluded.insert(info.rs1Reg);
    excluded.insert(info.rs2Reg);
    for (SigId s : info.arfRegs)
        excluded.insert(s);
    for (SigId s : info.amemRegs)
        excluded.insert(s);
    for (const MicroFsm &f : info.fsms) {
        excluded.insert(f.pcr);
        for (SigId v : f.vars)
            excluded.insert(v);
    }
    std::set<std::string> names;
    for (SigId s : srcs) {
        const Cell &c = dsg.cell(s);
        if (c.op != Op::Reg || excluded.count(s))
            continue;
        const std::string &n = c.name;
        if (n.rfind("hx_", 0) == 0 || n.rfind("t_", 0) == 0 ||
            n.rfind("ift_", 0) == 0)
            continue;
        names.insert(n);
    }
    return {names.begin(), names.end()};
}

std::vector<LeakageSignature>
SynthLc::analyze(InstrId transponder, const std::vector<Decision> &decisions,
                 const std::vector<InstrId> &transmitters)
{
    const DuvInfo &info = hx.duv();

    // Group decisions by source and form each source's successor universe.
    std::map<PlId, std::vector<Decision>> by_src;
    std::map<PlId, std::vector<PlId>> universe;
    for (const Decision &d : decisions) {
        by_src[d.src].push_back(d);
        auto &u = universe[d.src];
        for (PlId q : d.dst)
            if (std::find(u.begin(), u.end(), q) == u.end())
                u.push_back(q);
    }

    // Only decision sources (>= 2 decisions) are analyzed (§IV-B).
    std::map<PlId, std::vector<Decision>> sources;
    for (auto &[src, ds] : by_src)
        if (ds.size() >= 2)
            sources[src] = ds;

    // Enumerate the (transmitter, operand, assumption) batches in the
    // canonical order; every batch is independent of every other.
    struct Batch
    {
        InstrId t;
        Operand op;
        TxType type;
    };
    std::vector<Batch> batches;
    for (InstrId t : transmitters) {
        const InstrSpec &spec = info.instrs[t];
        for (Operand op : {Operand::Rs1, Operand::Rs2}) {
            if (op == Operand::Rs1 && !spec.usesRs1)
                continue;
            if (op == Operand::Rs2 && !spec.usesRs2)
                continue;
            if (cfg.testIntrinsic && t == transponder)
                batches.push_back({t, op, TxType::Intrinsic});
            if (cfg.testDynamicOlder)
                batches.push_back({t, op, TxType::DynamicOlder});
            if (cfg.testDynamicYounger)
                batches.push_back({t, op, TxType::DynamicYounger});
            if (cfg.testStatic)
                batches.push_back({t, op, TxType::Static});
        }
    }

    obs::Span span("slc-analyze", "slc");
    span.arg("transponder", transponder);
    span.arg("batches", batches.size());

    // Phase A: taint-simulation pre-filtering. The batches are pure
    // functions of their parameters and write index-distinct hit sets,
    // so they fan out at cfg.jobs width; the simHits tally is folded in
    // serially afterwards.
    std::vector<std::set<std::pair<PlId, Decision>>> hits(batches.size());
    {
        obs::Span sim_span("slc-sim-filter", "slc");
        sim_span.arg("batches", batches.size());
        std::atomic<uint64_t> done{0};
        exec::parallelFor(batches.size(), cfg.jobs, [&](size_t k) {
            simBatch(transponder, batches[k].t, batches[k].op,
                     batches[k].type, sources, universe, &hits[k]);
            obs::progress("slc:sim-filter", done.fetch_add(1) + 1,
                          batches.size(),
                          info.instrs[transponder].name);
        });
    }
    uint64_t batch_hits = 0;
    for (const auto &h : hits)
        batch_hits += h.size();
    stats_.simHits += batch_hits;
    if (obs::enabled())
        obs::Registry::global()
            .counter("slc.sim_hits", {{"design", hx.design().name()}})
            .add(batch_hits);

    // Phase B: per-(decision) tag accumulation, in the canonical batch
    // order. A decision_taint cover the simulations did not discharge is
    // probed right where its tag is decided.
    std::map<std::pair<PlId, Decision>, std::vector<TransmitterInput>>
        tags;
    uint64_t probes = 0;
    for (size_t k = 0; k < batches.size(); k++) {
        for (auto &[src, ds] : sources) {
            for (const Decision &d : ds) {
                bool hit = hits[k].count({src, d}) > 0;
                if (!hit) {
                    bmc::CoverResult r = pool_.eval(
                        coverExpr(d, universe[src]),
                        queryAssumes(transponder, batches[k].t,
                                     batches[k].op, batches[k].type, src));
                    probes++;
                    stats_.queries++;
                    stats_.seconds += r.seconds;
                    switch (r.outcome) {
                      case bmc::Outcome::Reachable:
                        stats_.reachable++;
                        break;
                      case bmc::Outcome::Unreachable:
                        stats_.unreachable++;
                        break;
                      case bmc::Outcome::Undetermined:
                        stats_.undetermined++;
                        break;
                    }
                    hit = r.reachable();
                }
                if (hit)
                    tags[{src, d}].push_back(
                        {batches[k].t, batches[k].op, batches[k].type});
            }
        }
    }
    span.arg("probes", probes);
    if (obs::enabled())
        obs::Registry::global()
            .counter("slc.probes", {{"design", hx.design().name()}})
            .add(probes);

    std::vector<LeakageSignature> out;
    for (auto &[src, ds] : sources) {
        LeakageSignature sig;
        sig.transponder = transponder;
        sig.src = src;
        size_t tagged_decisions = 0;
        for (const Decision &d : ds) {
            TaggedDecision td;
            td.decision = d;
            td.tags = tags[{src, d}];
            if (!td.tags.empty())
                tagged_decisions++;
            sig.decisions.push_back(std::move(td));
        }
        // Footnote 3: at least two operand-dependent decisions are needed
        // to yield >1 observation as a function of operand values.
        if (tagged_decisions < 2)
            continue;
        std::set<TransmitterInput> ins;
        for (const auto &td : sig.decisions)
            for (const auto &ti : td.tags)
                ins.insert(ti);
        sig.inputs.assign(ins.begin(), ins.end());
        sig.implicitInputs = implicitInputsOf(ds[0]);
        out.push_back(std::move(sig));
    }
    if (span.active()) {
        span.arg("signatures", out.size());
        obs::Registry::global()
            .counter("slc.signatures",
                     {{"design", hx.design().name()},
                      {"transponder", info.instrs[transponder].name}})
            .add(out.size());
    }
    return out;
}

std::string
SynthLc::render(const LeakageSignature &sig) const
{
    const DuvInfo &info = hx.duv();
    std::ostringstream os;
    os << "dst " << info.instrs[sig.transponder].name << "_"
       << hx.plName(sig.src) << "(";
    for (size_t i = 0; i < sig.inputs.size(); i++) {
        const auto &ti = sig.inputs[i];
        if (i)
            os << ", ";
        os << info.instrs[ti.instr].name;
        switch (ti.type) {
          case TxType::Intrinsic: os << "^N"; break;
          case TxType::DynamicOlder: os << "^D_O"; break;
          case TxType::DynamicYounger: os << "^D_Y"; break;
          case TxType::Static: os << "^S"; break;
        }
        os << " i" << i << "." << operandName(ti.op);
    }
    os << ") -> one of {";
    for (size_t i = 0; i < sig.decisions.size(); i++) {
        if (i)
            os << " | ";
        os << "{";
        const auto &dst = sig.decisions[i].decision.dst;
        for (size_t j = 0; j < dst.size(); j++) {
            if (j)
                os << ",";
            os << hx.plName(dst[j]);
        }
        os << "}";
    }
    os << "}";
    if (!sig.implicitInputs.empty()) {
        os << "  // implicit: ";
        for (size_t i = 0; i < sig.implicitInputs.size(); i++) {
            if (i)
                os << ", ";
            os << sig.implicitInputs[i];
        }
    }
    return os.str();
}

} // namespace rmp::slc
