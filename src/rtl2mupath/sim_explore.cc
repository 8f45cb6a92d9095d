#include "rtl2mupath/sim_explore.hh"

#include <algorithm>
#include <atomic>
#include <optional>
#include <random>
#include <set>
#include <utility>

#include "common/logging.hh"
#include "exec/parallel.hh"
#include "obs/obs.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "sim/tape.hh"

namespace rmp::r2m
{

using namespace uhb;

namespace
{

/** The harness marking inputs, resolved once per engine invocation so
 *  per-run StimGen construction skips the name lookups. */
struct MarkSigs
{
    SigId iuv = kNoSig;
    SigId txm = kNoSig;
};

MarkSigs
lookupMarks(const Design &design)
{
    return {design.findByName("hx_mark_iuv"),
            design.findByName("hx_mark_txm")};
}

/**
 * The constrained-random stimulus generator, shared by every execution
 * engine so one run index always means one program. The RNG draw order —
 * coins, init values, instruction picks, words — is part of the repo's
 * determinism contract: randomConstrainedRun has always drawn in exactly
 * this order and SynthLC's leakage probes (and their tests) depend on it.
 */
struct StimGen
{
    const Design &design;
    const DuvInfo &info;
    SigId markIuv, markTxm;
    InstrId iuv;
    unsigned markPos;
    int txm;
    unsigned txmPos;
    const SimExploreConfig &cfg;
    std::mt19937_64 &rng;
    std::uniform_real_distribution<double> coin{0.0, 1.0};
    unsigned fired = 0;
    /** fetchValid was driven by the latest cycleInputs(). */
    bool offeredFetch = false;

    StimGen(const Design &design_, const DuvInfo &info_, InstrId iuv_,
            unsigned mark_pos, int txm_, unsigned txm_pos,
            const SimExploreConfig &cfg_, std::mt19937_64 &rng_,
            MarkSigs marks = {})
        : design(design_), info(info_),
          markIuv(marks.iuv != kNoSig
                      ? marks.iuv
                      : design_.findByName("hx_mark_iuv")),
          markTxm(marks.txm != kNoSig
                      ? marks.txm
                      : design_.findByName("hx_mark_txm")),
          iuv(iuv_), markPos(mark_pos), txm(txm_), txmPos(txm_pos),
          cfg(cfg_), rng(rng_)
    {
    }

    /** Stimulus for cycle @p t as (signal, value) pairs, appended to the
     *  caller's (cleared) buffer — the hot loops reuse one allocation. */
    void
    cycleInputs(unsigned t, std::vector<std::pair<SigId, uint64_t>> &in)
    {
        in.clear();
        // Symbolic architectural init: driven in the first cycle only.
        if (t == 0) {
            for (SigId i : design.inputs()) {
                const std::string &n = design.cell(i).name;
                if (n.find("_init") == std::string::npos)
                    continue;
                uint64_t mask = BitVec::maskOf(design.cell(i).width);
                uint64_t v = coin(rng) < cfg.specialInitProb
                                 ? (rng() & 3)
                                 : (rng() & mask);
                in.emplace_back(i, v & mask);
            }
        }
        bool offer = coin(rng) < cfg.fetchProb;
        bool is_iuv_slot = fired == markPos;
        bool is_txm_slot = txm >= 0 && fired == txmPos;
        offeredFetch = offer || is_iuv_slot || is_txm_slot;
        if (offeredFetch) {
            // Random valid instruction word; forced opcode for marks.
            InstrId pick = is_iuv_slot
                               ? iuv
                               : (is_txm_slot ? static_cast<InstrId>(txm)
                                              : static_cast<InstrId>(
                                                    rng() %
                                                    info.instrs.size()));
            uint64_t word = rng() & BitVec::maskOf(
                                        design.cell(info.ifr).width);
            // Overwrite the opcode field.
            uint64_t opc_mask = BitVec::maskOf(info.opcodeWidth)
                                << info.opcodeLo;
            word = (word & ~opc_mask) |
                   (info.instrs[pick].opcode << info.opcodeLo);
            in.emplace_back(info.fetchValid, 1);
            in.emplace_back(info.ifr, word);
            in.emplace_back(markIuv, is_iuv_slot);
            in.emplace_back(markTxm,
                            is_txm_slot || (txm >= 0 && is_iuv_slot &&
                                            txmPos == markPos));
        }
    }

    /** Advance the fetched-instruction count after the cycle stepped. */
    void
    onStepped(bool fetch_offered, bool fetch_ready)
    {
        if (fetch_offered && fetch_ready)
            fired++;
    }
};

/**
 * The exploration watch set and where each signal lands in it. Index
 * layout: [fetchReady?] [iuvGone] [5 per PL: at, visited, consec,
 * nonconsec, count] [1 per edge observer].
 */
struct WatchPlan
{
    std::vector<SigId> sigs;
    int fetchReady = -1; ///< index in sigs, -1 when the DUV has none
    size_t gone = 0;
    size_t plBase = 0;
    size_t edgeBase = 0;

    size_t at(PlId p) const { return plBase + size_t(p) * 5; }
    size_t visited(PlId p) const { return at(p) + 1; }
    size_t consec(PlId p) const { return at(p) + 2; }
    size_t nonconsec(PlId p) const { return at(p) + 3; }
    size_t count(PlId p) const { return at(p) + 4; }
    size_t edge(size_t j) const { return edgeBase + j; }
};

WatchPlan
makeWatchPlan(const designs::Harness &hx)
{
    WatchPlan wp;
    const DuvInfo &info = hx.duv();
    if (info.fetchReady != kNoSig) {
        wp.fetchReady = static_cast<int>(wp.sigs.size());
        wp.sigs.push_back(info.fetchReady);
    }
    wp.gone = wp.sigs.size();
    wp.sigs.push_back(hx.iuvGone);
    wp.plBase = wp.sigs.size();
    for (PlId p = 0; p < hx.numPls(); p++) {
        const designs::PlSignals &ps = hx.plSig(p);
        wp.sigs.push_back(ps.iuvAt);
        wp.sigs.push_back(ps.iuvVisited);
        wp.sigs.push_back(ps.revisitConsec);
        wp.sigs.push_back(ps.revisitNonconsec);
        wp.sigs.push_back(ps.visitCount);
    }
    wp.edgeBase = wp.sigs.size();
    for (const auto &eo : hx.edgeObservers())
        wp.sigs.push_back(eo.seen);
    return wp;
}

/**
 * Compact per-run summaries, flat across all runs (three allocations for
 * the whole batch instead of dozens per run — the full watched-value
 * matrix at ~30 KB/run dominated exploration wall time before this).
 * mergeRun() derives every fact from these; representative witnesses are
 * re-derived on demand from the run seed (runs are cheap and replayable,
 * so only the handful that discover a new set are ever re-simulated).
 *
 * at[run * bound + t]: bitmask of PLs the IUV occupies at cycle t, with
 * bit 63 = iuvGone (so numPls must stay below 63).
 */
struct RunSummaries
{
    unsigned bound = 0;
    size_t numPls = 0;
    size_t edgeWords = 0;
    std::vector<uint64_t> at;       ///< runs * bound occupancy+gone masks
    std::vector<uint64_t> last;     ///< runs * 3: visited/consec/nonconsec
    std::vector<uint8_t> counts;    ///< runs * numPls (kCountWidth <= 8)
    std::vector<uint64_t> edges;    ///< runs * edgeWords seen-bitmap

    RunSummaries(unsigned runs, unsigned bound_, size_t num_pls,
                 size_t num_edges)
        : bound(bound_), numPls(num_pls),
          edgeWords((num_edges + 63) / 64),
          at(size_t(runs) * bound_, 0), last(size_t(runs) * 3, 0),
          counts(size_t(runs) * num_pls, 0),
          edges(size_t(runs) * edgeWords, 0)
    {
        static_assert(designs::Harness::kCountWidth <= 8,
                      "visit counters must fit the uint8 summary");
        rmp_assert(num_pls < 63, "too many PLs for a 64-bit run summary");
    }

    static constexpr uint64_t kGoneBit = 1ULL << 63;
};

/** Fold one cycle's PL-occupancy mask into @p s and return it (shared
 *  by both engines; @p wv(k) = watch signal k's value this cycle). */
template <typename WatchFn>
uint64_t
summarizeAt(RunSummaries &s, const WatchPlan &plan, unsigned run,
            unsigned t, size_t num_pls, WatchFn wv)
{
    uint64_t m = 0;
    for (PlId p = 0; p < num_pls; p++)
        if (wv(plan.at(p)))
            m |= 1ULL << p;
    if (wv(plan.gone))
        m |= RunSummaries::kGoneBit;
    s.at[size_t(run) * s.bound + t] = m;
    return m;
}

/** Fold the run's sticky end-of-run accumulators (visited / consec /
 *  nonconsec masks, visit counts, seen edges) into @p s. The harness
 *  only updates them while the IUV is in flight, so they may be read at
 *  any cycle at or after retirement — early-exited batches harvest them
 *  from the last cycle they actually simulated. */
template <typename WatchFn>
void
summarizeFinal(RunSummaries &s, const WatchPlan &plan, unsigned run,
               size_t num_pls, size_t num_edges, WatchFn wv)
{
    uint64_t vis = 0, con = 0, non = 0;
    for (PlId p = 0; p < num_pls; p++) {
        if (wv(plan.visited(p)))
            vis |= 1ULL << p;
        if (wv(plan.consec(p)))
            con |= 1ULL << p;
        if (wv(plan.nonconsec(p)))
            non |= 1ULL << p;
        s.counts[size_t(run) * num_pls + p] =
            static_cast<uint8_t>(wv(plan.count(p)));
    }
    s.last[size_t(run) * 3 + 0] = vis;
    s.last[size_t(run) * 3 + 1] = con;
    s.last[size_t(run) * 3 + 2] = non;
    for (size_t j = 0; j < num_edges; j++)
        if (wv(plan.edge(j)))
            s.edges[size_t(run) * s.edgeWords + j / 64] |= 1ULL
                                                           << (j % 64);
}

/** splitmix64 finalizer. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Per-run seed: runs are independent streams, so any partition of the
 *  run space onto lanes and slots replays identically. */
uint64_t
runSeed(uint64_t seed, InstrId iuv, unsigned run)
{
    return mix64(mix64(mix64(seed) ^ (iuv + 1)) + run);
}

/** Reference engine: one scalar interpreted Simulator per run. */
void
runsInterpreted(const designs::Harness &hx, InstrId iuv,
                const SimExploreConfig &cfg, unsigned bound,
                const WatchPlan &plan, RunSummaries &sum)
{
    const Design &design = hx.design();
    const DuvInfo &info = hx.duv();
    const size_t num_pls = hx.numPls();
    const size_t num_edges = hx.edgeObservers().size();
    const MarkSigs marks = lookupMarks(design);
    std::vector<std::pair<SigId, uint64_t>> pairs;
    InputMap in;
    for (unsigned run = 0; run < cfg.runs; run++) {
        std::mt19937_64 rng(runSeed(cfg.seed, iuv, run));
        unsigned mark_pos = rng() % (cfg.maxMarkPos + 1);
        StimGen gen(design, info, iuv, mark_pos, -1, 0, cfg, rng, marks);
        Simulator sim(design);
        sim.setRecording(false); // the watch plan is all we record
        for (unsigned t = 0; t < bound; t++) {
            gen.cycleInputs(t, pairs);
            in.clear();
            for (const auto &[s, v] : pairs)
                in[s] = v;
            sim.step(in);
            bool ready = info.fetchReady == kNoSig ||
                         sim.value(info.fetchReady) != 0;
            gen.onStepped(gen.offeredFetch, ready);
            summarizeAt(sum, plan, run, t, num_pls, [&](size_t k) {
                return sim.value(plan.sigs[k]);
            });
            if (t + 1 == bound)
                summarizeFinal(sum, plan, run, num_pls, num_edges,
                               [&](size_t k) {
                                   return sim.value(plan.sigs[k]);
                               });
        }
    }
}

/** Compiled engine: lanes-wide BatchSim batches fanned out over
 *  @p slots slots. Each slot owns one BatchSim and claims batches from
 *  a shared counter, so a slot whose thread starts late leaves no batch
 *  waiting for it; every run writes only its own rows of the pre-sized
 *  summaries, so slots share nothing else mutable. A batch stops
 *  stepping as soon as every lane's IUV has retired; post-retirement
 *  cycles cannot change any fact, so the summaries stay bit-identical
 *  to a full-bound simulation. */
void
runsCompiled(const designs::Harness &hx, InstrId iuv,
             const SimExploreConfig &cfg, unsigned bound,
             const WatchPlan &plan, const sim::Tape &tape, unsigned lanes,
             unsigned slots, RunSummaries &sum)
{
    const Design &design = hx.design();
    const DuvInfo &info = hx.duv();
    const size_t num_pls = hx.numPls();
    const size_t num_edges = hx.edgeObservers().size();
    const MarkSigs marks = lookupMarks(design);
    const unsigned nbatch = (cfg.runs + lanes - 1) / lanes;
    std::atomic<unsigned> next_batch{0};

    exec::parallelFor(slots, slots, [&](size_t) {
        unsigned b = next_batch++;
        if (b >= nbatch)
            return;
        sim::BatchSim bs(tape, lanes);
        bs.reserveTrace(bound);
        struct LaneCtx
        {
            std::mt19937_64 rng;
            std::optional<StimGen> gen;
        };
        std::vector<std::pair<SigId, uint64_t>> pairs;
        for (; b < nbatch; b = next_batch++) {
            const unsigned r0 = b * lanes;
            const unsigned active = std::min(lanes, cfg.runs - r0);
            bs.reset();
            std::vector<LaneCtx> lc(active);
            for (unsigned l = 0; l < active; l++) {
                lc[l].rng.seed(runSeed(cfg.seed, iuv, r0 + l));
                unsigned mark_pos = lc[l].rng() % (cfg.maxMarkPos + 1);
                lc[l].gen.emplace(design, info, iuv, mark_pos, -1, 0,
                                  cfg, lc[l].rng, marks);
            }
            // Step until the bound — or until every lane's IUV has
            // retired. Once iuvGone is set a run's facts are frozen
            // (empty occupancy, sticky accumulators), so the remaining
            // cycles are provably inert and their at-masks can be
            // backfilled without simulating them.
            unsigned ran = bound;
            for (unsigned t = 0; t < bound; t++) {
                bs.clearInputs();
                for (unsigned l = 0; l < active; l++) {
                    lc[l].gen->cycleInputs(t, pairs);
                    for (const auto &[s, v] : pairs)
                        bs.stageInput(l, s, v);
                }
                bs.step();
                bool allGone = true;
                for (unsigned l = 0; l < active; l++) {
                    // fetchReady may be a register, so read it from the
                    // recorded (pre-latch) frame, not the raw slot.
                    bool ready =
                        plan.fetchReady < 0 ||
                        bs.watched(t, size_t(plan.fetchReady), l) != 0;
                    lc[l].gen->onStepped(lc[l].gen->offeredFetch, ready);
                    if (!bs.watched(t, plan.gone, l))
                        allGone = false;
                }
                if (allGone) {
                    ran = t + 1;
                    break;
                }
            }
            for (unsigned l = 0; l < active; l++) {
                for (unsigned t = 0; t < ran; t++)
                    summarizeAt(sum, plan, r0 + l, t, num_pls,
                                [&](size_t k) {
                                    return bs.watched(t, k, l);
                                });
                for (unsigned t = ran; t < bound; t++)
                    sum.at[size_t(r0 + l) * bound + t] =
                        RunSummaries::kGoneBit;
                summarizeFinal(sum, plan, r0 + l, num_pls, num_edges,
                               [&](size_t k) {
                                   return bs.watched(ran - 1, k, l);
                               });
            }
        }
    });
}

/**
 * Re-derive run @p run's representative witness: replayable per-cycle
 * inputs plus a sparse watch-set trace (full-width frames, non-watched
 * signals zero). Runs are deterministic functions of their seed, so the
 * hot loops keep only compact summaries and the handful of runs that
 * discover a new Reachable PL Set are re-simulated here, on the
 * interpreted oracle — which also makes the materialized witness
 * trivially engine-independent.
 */
bmc::Witness
materializeWitness(const designs::Harness &hx, const WatchPlan &plan,
                   const SimExploreConfig &cfg, InstrId iuv, unsigned run,
                   unsigned bound, size_t num_cells, Simulator &sim,
                   MarkSigs marks)
{
    const Design &design = hx.design();
    const DuvInfo &info = hx.duv();
    std::mt19937_64 rng(runSeed(cfg.seed, iuv, run));
    unsigned mark_pos = rng() % (cfg.maxMarkPos + 1);
    StimGen gen(design, info, iuv, mark_pos, -1, 0, cfg, rng, marks);
    sim.reset();
    sim.setRecording(false);
    bmc::Witness w;
    w.inputs.resize(bound);
    w.trace.frames.assign(bound, std::vector<uint64_t>(num_cells, 0));
    std::vector<std::pair<SigId, uint64_t>> pairs;
    for (unsigned t = 0; t < bound; t++) {
        gen.cycleInputs(t, pairs);
        for (const auto &[s, v] : pairs)
            w.inputs[t][s] = v;
        sim.step(w.inputs[t]);
        bool ready = info.fetchReady == kNoSig ||
                     sim.value(info.fetchReady) != 0;
        gen.onStepped(gen.offeredFetch, ready);
        for (size_t k = 0; k < plan.sigs.size(); k++)
            w.trace.frames[t][plan.sigs[k]] = sim.value(plan.sigs[k]);
    }
    return w;
}

/**
 * Fold one run's summary into the facts. Runs are merged serially in run
 * order regardless of which engine / lane / slot produced them — this
 * is what makes SimFacts engine- and parallelism-invariant. @p scratch
 * vectors are reused across runs (zero allocations in the common case).
 */
struct MergeScratch
{
    std::vector<PlId> visited, now, next;
    /** Distinct (now, next) occupancy-mask pairs already folded into
     *  facts.succ — the same handful of patterns recurs across tens of
     *  thousands of run-cycles, so the set-of-vectors inserts run once
     *  per pattern instead of once per cycle. */
    std::set<std::pair<uint64_t, uint64_t>> seenSucc;
    /** Distinct visited masks already folded into facts.iuvPls. */
    std::set<uint64_t> seenVisited;
    /** Lazily built interpreted oracle, reset per materialized witness —
     *  construction walks the whole design, so one instance serves every
     *  new-set run in an exploreSim call. */
    std::optional<Simulator> oracle;
    /** Harness mark signals, looked up once per exploreSim call. */
    MarkSigs marks;
};

void
mergeRun(SimFacts &facts, const designs::Harness &hx,
         const WatchPlan &plan, const RunSummaries &sum, unsigned run,
         const SimExploreConfig &cfg, InstrId iuv, size_t num_cells,
         MergeScratch &scratch)
{
    const unsigned bound = sum.bound;
    const uint64_t *at = sum.at.data() + size_t(run) * bound;
    auto unpack = [&](uint64_t m, std::vector<PlId> &out) {
        out.clear();
        for (PlId p = 0; p < hx.numPls(); p++)
            if (m & (1ULL << p))
                out.push_back(p);
    };

    // Only completed executions contribute set-level facts; PL visits
    // and successor patterns are valid regardless.
    const uint64_t vis = sum.last[size_t(run) * 3 + 0];
    unpack(vis, scratch.visited);
    if (scratch.seenVisited.insert(vis).second)
        for (PlId p : scratch.visited)
            facts.iuvPls.insert(p);

    // Successor patterns at every cycle where the IUV sits anywhere.
    for (size_t t = 0; t + 1 < bound; t++) {
        const uint64_t now_m = at[t] & ~RunSummaries::kGoneBit;
        const uint64_t next_m = at[t + 1];
        if (!now_m)
            continue;
        if (!(next_m & ~RunSummaries::kGoneBit) &&
            !(next_m & RunSummaries::kGoneBit))
            continue; // should not happen on gap-free designs
        if (!scratch.seenSucc.insert({now_m, next_m}).second)
            continue;
        unpack(now_m, scratch.now);
        unpack(next_m & ~RunSummaries::kGoneBit, scratch.next);
        for (PlId src : scratch.now)
            facts.succ[src].insert(scratch.next);
    }

    bool gone = (at[bound - 1] & RunSummaries::kGoneBit) != 0;
    if (!gone || scratch.visited.empty())
        return;
    SimSetFact &sf = facts.sets[scratch.visited];
    if (sf.set.empty()) {
        sf.set = scratch.visited;
        if (!scratch.oracle)
            scratch.oracle.emplace(hx.design());
        sf.witness =
            materializeWitness(hx, plan, cfg, iuv, run, bound, num_cells,
                               *scratch.oracle, scratch.marks);
    }
    const uint64_t con = sum.last[size_t(run) * 3 + 1];
    const uint64_t non = sum.last[size_t(run) * 3 + 2];
    for (PlId p : scratch.visited) {
        if (con & (1ULL << p))
            sf.consec.insert(p);
        if (non & (1ULL << p))
            sf.nonconsec.insert(p);
        sf.counts[p].insert(sum.counts[size_t(run) * sum.numPls + p]);
    }
    const auto &eos = hx.edgeObservers();
    const uint64_t *ew = sum.edges.data() + size_t(run) * sum.edgeWords;
    for (size_t j = 0; j < eos.size(); j++)
        if (ew[j / 64] & (1ULL << (j % 64)))
            sf.edges.insert({eos[j].from, eos[j].to});
}

} // anonymous namespace

SimRun
randomConstrainedRun(const designs::Harness &hx, const Design &design,
                     unsigned cycles, InstrId iuv, unsigned mark_pos,
                     int txm, unsigned txm_pos, const SimExploreConfig &cfg,
                     std::mt19937_64 &rng,
                     const std::function<void(unsigned, Simulator &,
                                              InputMap &)> &extra)
{
    const DuvInfo &info = hx.duv();
    StimGen gen(design, info, iuv, mark_pos, txm, txm_pos, cfg, rng);
    Simulator sim(design);
    sim.reserveTrace(cycles);
    SimRun rr;
    rr.inputs.resize(cycles);
    std::vector<std::pair<SigId, uint64_t>> pairs;
    for (unsigned t = 0; t < cycles; t++) {
        InputMap &in = rr.inputs[t];
        gen.cycleInputs(t, pairs);
        for (const auto &[s, v] : pairs)
            in[s] = v;
        if (extra)
            extra(t, sim, in);
        sim.step(in);
        gen.onStepped(in.count(info.fetchValid) != 0,
                      info.fetchReady == kNoSig ||
                          sim.value(info.fetchReady) != 0);
    }
    rr.trace = sim.trace();
    return rr;
}

SimFacts
exploreSim(const designs::Harness &hx, InstrId iuv,
           const SimExploreConfig &cfg, unsigned width)
{
    SimFacts facts;
    if (cfg.runs == 0)
        return facts;
    const unsigned bound = hx.duv().completenessBound;
    const WatchPlan plan = makeWatchPlan(hx);
    const unsigned lanes =
        std::clamp(cfg.lanes, 1U, sim::kMaxLanes);
    // At most one slot per batch: a slot past the last batch would have
    // nothing to do.
    const unsigned slots = std::min(exec::fanOutWidth(width),
                                    (cfg.runs + lanes - 1) / lanes);
    const bool compiled = cfg.engine == SimEngine::Compiled;

    obs::Span span("sim-explore", "sim");
    if (span.active()) {
        span.arg("iuv", iuv);
        span.arg("runs", cfg.runs);
        span.arg("lanes", compiled ? lanes : 1);
        span.arg("threads", compiled ? slots : 1);
    }

    RunSummaries sum(cfg.runs, bound, hx.numPls(),
                     hx.edgeObservers().size());

    if (compiled) {
        sim::Tape tape = sim::compileTape(hx.design(), plan.sigs);
        runsCompiled(hx, iuv, cfg, bound, plan, tape, lanes, slots, sum);
    } else {
        runsInterpreted(hx, iuv, cfg, bound, plan, sum);
    }

    MergeScratch scratch;
    scratch.marks = lookupMarks(hx.design());
    for (unsigned run = 0; run < cfg.runs; run++)
        mergeRun(facts, hx, plan, sum, run, cfg, iuv,
                 hx.design().numCells(), scratch);

    if (obs::enabled()) {
        auto &reg = obs::Registry::global();
        reg.counter("sim.runs").add(cfg.runs);
        reg.counter("sim.cycles").add(uint64_t(cfg.runs) * bound);
        reg.gauge("sim.lanes").set(compiled ? lanes : 1);
        if (compiled) {
            auto &occ = reg.histogram("sim.lane_occupancy");
            for (unsigned r0 = 0; r0 < cfg.runs; r0 += lanes)
                occ.record(std::min(lanes, cfg.runs - r0));
        }
    }
    return facts;
}

bool
factsEqual(const SimFacts &x, const SimFacts &y)
{
    if (x.iuvPls != y.iuvPls || x.succ != y.succ ||
        x.sets.size() != y.sets.size())
        return false;
    auto ix = x.sets.begin();
    auto iy = y.sets.begin();
    for (; ix != x.sets.end(); ++ix, ++iy) {
        if (ix->first != iy->first)
            return false;
        const SimSetFact &a = ix->second;
        const SimSetFact &b = iy->second;
        if (a.set != b.set || a.consec != b.consec ||
            a.nonconsec != b.nonconsec || a.counts != b.counts ||
            a.edges != b.edges)
            return false;
        if (a.witness.matchFrame != b.witness.matchFrame ||
            a.witness.inputs != b.witness.inputs ||
            a.witness.trace.frames != b.witness.trace.frames)
            return false;
    }
    return true;
}

} // namespace rmp::r2m
