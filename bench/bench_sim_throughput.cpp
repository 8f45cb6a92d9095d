/**
 * @file
 * Compiled-engine throughput: the tape kernel (DESIGN.md §3h) against
 * the interpreted reference on the exploration workload that dominates
 * semi-formal synthesis.
 *
 * The paper's flow leans on massive randomized simulation before any
 * formal query runs (§VII-B); our reproduction's equivalent is
 * exploreSim, which simulates thousands of random constrained programs
 * per instruction. This bench sweeps lane width (P ∈ {4, 8, 16}) ×
 * worker threads on tiny3 and mcva, reports simulated cycles/second and
 * speedup over the interpreted engine for every cell, and records the
 * matrix in BENCH_sim_throughput.json (plus the best configuration per
 * design).
 *
 * Equivalence is the exit code, not the timing: exploration facts —
 * witnesses included — must be bit-identical across every lane width
 * and thread count (factsEqual), and a full semi-formal synthesis run
 * on the compiled engine must render byte-identical μPATHs to one on
 * the interpreted engine. A configuration that is fast but wrong fails
 * the bench.
 */

#include <chrono>

#include "bench/bench_util.hh"
#include "designs/mcva.hh"
#include "designs/tiny3.hh"
#include "rtl2mupath/sim_explore.hh"
#include "sim/simd.hh"

using namespace rmp;
using namespace rmp::bench;
using namespace rmp::designs;

namespace
{

struct EngineRun
{
    double wall = 0;
    uint64_t cycles = 0;
    double cyclesPerSec = 0;
};

/** Explore every instruction on one configuration, discarding the
 *  facts: the timed passes measure exploration alone, without hundreds
 *  of MB of accumulated witnesses distorting the allocator and caches.
 *  The engines are deterministic, so the untimed verification pass
 *  below re-derives and compares the exact same facts. */
void
exploreAll(const Harness &hx, const r2m::SimExploreConfig &cfg,
           unsigned threads, EngineRun &er)
{
    auto t0 = std::chrono::steady_clock::now();
    for (uhb::InstrId i = 0; i < hx.duv().instrs.size(); i++)
        r2m::exploreSim(hx, i, cfg, threads);
    er.wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    er.cycles = uint64_t(cfg.runs) * hx.duv().completenessBound *
                hx.duv().instrs.size();
    er.cyclesPerSec = er.wall > 0 ? double(er.cycles) / er.wall : 0;
}

/** Untimed equivalence pass at reduced run count: per instruction,
 *  compare the cell's facts (witnesses included) against the
 *  interpreted reference, freeing as it goes. */
bool
factsAgree(const Harness &hx, const r2m::SimExploreConfig &icfg,
           const r2m::SimExploreConfig &ccfg, unsigned threads)
{
    for (uhb::InstrId i = 0; i < hx.duv().instrs.size(); i++)
        if (!r2m::factsEqual(r2m::exploreSim(hx, i, icfg, 1),
                             r2m::exploreSim(hx, i, ccfg, threads)))
            return false;
    return true;
}

/** Full semi-formal synthesis with the given engine; rendered μPATHs. */
std::string
synthRender(Harness &hx, r2m::SimEngine eng)
{
    r2m::SynthesisConfig scfg = benchSynthConfig();
    scfg.explore.engine = eng;
    r2m::MuPathSynthesizer synth(hx, scfg);
    std::vector<uhb::InstrId> ids;
    for (uhb::InstrId i = 0; i < hx.duv().instrs.size(); i++)
        ids.push_back(i);
    auto all = synth.synthesizeAll(ids);
    std::string out;
    for (uhb::InstrId i : ids) {
        out += report::renderInstrPaths(hx, all.at(i));
        out += report::renderDecisions(hx, all.at(i));
    }
    return out;
}

std::string
engineJson(const EngineRun &er)
{
    JsonReport j;
    j.put("wall_seconds", er.wall);
    j.put("simulated_cycles", er.cycles);
    j.put("cycles_per_second", er.cyclesPerSec);
    return j.str();
}

constexpr unsigned kLaneWidths[] = {4, 8, 16};
constexpr unsigned kThreadCounts[] = {1, 4};

} // namespace

int
main()
{
    banner("compiled batched simulation — lanes x threads throughput");

    r2m::SimExploreConfig cfg;
    cfg.runs = fullMode() ? 6000 : 1500;
    const unsigned eqRuns = fullMode() ? 1200 : 300;

    bool factsMatch = true, pathsMatch = true;
    JsonReport out;
    out.put("bench", std::string("sim_throughput"));
    out.put("runs_per_instruction", uint64_t(cfg.runs));
    out.put("equivalence_runs", uint64_t(eqRuns));
    out.put("simd_isa", std::string(sim::simdIsa(8)));
    double mcvaBest = 0;
    std::string mcvaBestCfg;

    for (const char *name : {"tiny3", "mcva"}) {
        Harness hx(std::string(name) == "tiny3" ? buildTiny3()
                                                : buildMcva());
        std::printf("\nDUV %s: %zu cells, %zu instructions, bound %u\n",
                    name, hx.design().numCells(),
                    hx.duv().instrs.size(), hx.duv().completenessBound);

        r2m::SimExploreConfig icfg = cfg;
        icfg.engine = r2m::SimEngine::Interpreted;
        EngineRun interp;
        exploreAll(hx, icfg, 1, interp);
        std::printf("  interpreted: %10.0f cycles/s  (%.2fs)\n",
                    interp.cyclesPerSec, interp.wall);

        r2m::SimExploreConfig eqIcfg = icfg;
        eqIcfg.runs = eqRuns;

        double best = 0;
        std::string bestCfg;
        std::string cells; // JSON array of per-cell objects
        for (unsigned lanes : kLaneWidths) {
            for (unsigned threads : kThreadCounts) {
                r2m::SimExploreConfig ccfg = cfg;
                ccfg.engine = r2m::SimEngine::Compiled;
                ccfg.lanes = lanes;
                EngineRun er;
                exploreAll(hx, ccfg, threads, er);
                double speedup = interp.wall > 0 && er.wall > 0
                                     ? interp.wall / er.wall
                                     : 0;
                r2m::SimExploreConfig eqCcfg = ccfg;
                eqCcfg.runs = eqRuns;
                bool fm = factsAgree(hx, eqIcfg, eqCcfg, threads);
                factsMatch = factsMatch && fm;

                const std::string label = "P=" + std::to_string(lanes) +
                                          " T=" + std::to_string(threads);
                std::printf("  %-18s %10.0f cycles/s  %6.1fx  facts %s\n",
                            label.c_str(), er.cyclesPerSec, speedup,
                            fm ? "identical" : "MISMATCH");
                if (speedup > best) {
                    best = speedup;
                    bestCfg = label;
                }

                JsonReport c;
                c.put("lanes", uint64_t(lanes));
                c.put("threads", uint64_t(threads));
                c.putRaw("run", engineJson(er));
                c.put("speedup", speedup);
                c.putRaw("facts_match", fm ? "true" : "false");
                cells += (cells.empty() ? "" : ",\n  ") + c.str();
            }
        }
        std::printf("  best: %s at %.1fx over interpreted\n",
                    bestCfg.c_str(), best);
        if (std::string(name) == "mcva") {
            mcvaBest = best;
            mcvaBestCfg = bestCfg;
        }

        // Engine-invariant μPATHs: interpreted vs compiled.
        bool pm = synthRender(hx, r2m::SimEngine::Interpreted) ==
                  synthRender(hx, r2m::SimEngine::Compiled);
        pathsMatch = pathsMatch && pm;
        std::printf("  synthesized uPATHs across engines: %s\n",
                    pm ? "byte-identical" : "MISMATCH");

        JsonReport d;
        d.putRaw("interpreted", engineJson(interp));
        d.putRaw("configs", "[" + cells + "]");
        d.put("best_speedup", best);
        d.put("best_config", bestCfg);
        d.putRaw("paths_match", pm ? "true" : "false");
        out.putRaw(name, d.str());
    }

    paperNote("the flow front-loads randomized simulation before formal "
              "queries (§VII-B); throughput bounds how much reachability "
              "evidence the semi-formal mode can gather",
              strfmt("best lanes x threads configuration reaches %.1fx "
                     "interpreted throughput on mcva (%s)",
                     mcvaBest, mcvaBestCfg.c_str()));

    out.putRaw("facts_match", factsMatch ? "true" : "false");
    out.putRaw("paths_match", pathsMatch ? "true" : "false");
    const char *path = "BENCH_sim_throughput.json";
    if (out.writeFile(path))
        std::printf("\nwrote %s\n", path);
    else
        std::printf("\nFAILED to write %s\n", path);
    if (!factsMatch || !pathsMatch) {
        std::printf("FAIL: engines disagree (facts %s, paths %s)\n",
                    factsMatch ? "ok" : "mismatch",
                    pathsMatch ? "ok" : "mismatch");
        return 1;
    }
    std::printf("engines agree on every fact and every synthesized "
                "uPATH\n");
    return 0;
}
