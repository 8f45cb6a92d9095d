/**
 * @file
 * Daemon warm-state payoff: one-shot-cold vs cold-daemon vs warm-daemon
 * wall time for a full mcva synthesis (DESIGN.md §3j).
 *
 * The one-shot baseline performs exactly what `rmp synth mcva` pays on
 * every invocation — elaboration, harness construction, compiled-tape
 * and engine build, simulation exploration, and the solver queries
 * — in-process, with the same configuration the daemon's registry uses.
 * The cold-daemon pass pays the same once over the socket; the warm-
 * daemon pass repeats the identical request against the now-warm
 * registry, where the engine pool's query cache answers every verdict.
 *
 * Equivalence is the exit code, not the timing: all three passes must
 * render byte-identical μPATHs and agree on the uPATH/decision tallies.
 * A daemon that is fast but wrong fails the bench. Results land in
 * BENCH_serve_warm.json; the acceptance line is warm >= 3x over the
 * one-shot cold run.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "designs/catalog.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "store/verdict_store.hh"

using namespace rmp;
using namespace rmp::bench;

namespace
{

constexpr const char *kDuv = "mcva";

struct Pass
{
    double wall = 0;
    std::string render;
    uint64_t paths = 0;
    uint64_t decisions = 0;
    uint64_t storeHits = 0;
    uint64_t storeWrites = 0;
};

double
since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** The daemon's default synth-op configuration (serve::Server's
 *  warmEntry defaults), so the one-shot baseline is apples-to-apples. */
r2m::SynthesisConfig
daemonSynthConfig()
{
    r2m::SynthesisConfig c;
    c.budget.maxConflicts = 20'000;
    c.closureChecks = false;
    c.jobs = benchJobs();
    return c;
}

/** Everything `rmp synth mcva` pays per invocation, in-process. */
Pass
oneShotCold()
{
    Pass p;
    auto t0 = std::chrono::steady_clock::now();
    designs::Harness hx(*designs::buildDuv(kDuv));
    r2m::MuPathSynthesizer synth(hx, daemonSynthConfig());
    std::vector<uhb::InstrId> ids;
    for (size_t i = 0; i < hx.duv().instrs.size(); i++)
        ids.push_back(static_cast<uhb::InstrId>(i));
    auto all = synth.synthesizeAll(ids);
    p.wall = since(t0);
    p.render = report::renderSynthAll(hx, ids, all);
    for (const auto &[id, ip] : all) {
        p.paths += ip.paths.size();
        p.decisions += ip.decisions.size();
    }
    return p;
}

bool
daemonSynth(serve::Client &client, Pass *p)
{
    const std::string req =
        R"({"id":1,"op":"synth","duv":")" + std::string(kDuv) +
        R"(","opts":{"render":true}})";
    serve::JsonValue resp;
    std::string err;
    auto t0 = std::chrono::steady_clock::now();
    if (!client.requestJson(req, &resp, &err)) {
        std::printf("FAIL: daemon request: %s\n", err.c_str());
        return false;
    }
    p->wall = since(t0);
    if (!resp.boolean_("ok")) {
        std::printf("FAIL: daemon synth: %s\n", resp.str("error").c_str());
        return false;
    }
    p->render = resp.str("render");
    p->paths = resp.u64("paths");
    p->decisions = resp.u64("decisions");
    if (const serve::JsonValue *st = resp.find("store")) {
        p->storeHits = st->u64("hits");
        p->storeWrites = st->u64("writes");
    }
    return true;
}

} // anonymous namespace

int
main()
{
    banner("bench_serve_warm: one-shot vs cold daemon vs warm daemon (" +
           std::string(kDuv) + " synth)");

    char tmpl[] = "/tmp/rmp-bench-serve-XXXXXX";
    char *dir = mkdtemp(tmpl);
    if (!dir) {
        std::printf("FAIL: mkdtemp\n");
        return 1;
    }

    std::printf("  one-shot cold synthesis ...\n");
    std::fflush(stdout);
    Pass oneshot = oneShotCold();
    std::printf("  one-shot cold:  %.3f s  (%llu uPATHs, %llu decisions)\n",
                oneshot.wall, (unsigned long long)oneshot.paths,
                (unsigned long long)oneshot.decisions);
    std::fflush(stdout);

    serve::ServeConfig scfg;
    scfg.socketPath = std::string(dir) + "/rmp.sock";
    scfg.storeRoot = std::string(dir) + "/store";
    scfg.jobs = benchJobs();
    scfg.handleSignals = false;
    serve::Server server(scfg);
    std::string err;
    if (!server.start(&err)) {
        std::printf("FAIL: server start: %s\n", err.c_str());
        return 1;
    }
    std::thread runner([&] { server.run(); });

    serve::Client client;
    Pass cold, warm;
    bool ok = client.connect(scfg.socketPath, &err);
    if (!ok)
        std::printf("FAIL: connect: %s\n", err.c_str());
    ok = ok && daemonSynth(client, &cold);
    if (ok) {
        std::printf("  cold daemon:    %.3f s  (%llu store writes)\n",
                    cold.wall, (unsigned long long)cold.storeWrites);
        std::fflush(stdout);
    }
    ok = ok && daemonSynth(client, &warm);
    if (ok)
        std::printf("  warm daemon:    %.3f s\n", warm.wall);

    server.stop();
    runner.join();
    std::filesystem::remove_all(dir);
    if (!ok)
        return 1;

    bool identical =
        !oneshot.render.empty() && oneshot.render == cold.render &&
        cold.render == warm.render;
    bool talliesAgree = oneshot.paths == cold.paths &&
                        cold.paths == warm.paths &&
                        oneshot.decisions == cold.decisions &&
                        cold.decisions == warm.decisions;
    double speedupCold =
        cold.wall > 0 ? oneshot.wall / cold.wall : 0;
    double speedupWarm =
        warm.wall > 0 ? oneshot.wall / warm.wall : 0;

    std::printf("  renders byte-identical: %s\n", identical ? "yes" : "NO");
    std::printf("  tallies agree:          %s\n",
                talliesAgree ? "yes" : "NO");
    std::printf("  warm speedup over one-shot: %.1fx (target >= 3x)\n",
                speedupWarm);
    paperNote("a proof grid keeps design state warm across properties",
              strfmt("warm daemon answers the repeat synth %.1fx faster",
                     speedupWarm));

    JsonReport out;
    out.put("bench", std::string("serve_warm"));
    out.put("duv", std::string(kDuv));
    out.put("oneshot_cold_seconds", oneshot.wall);
    out.put("cold_daemon_seconds", cold.wall);
    out.put("warm_daemon_seconds", warm.wall);
    out.put("speedup_cold_daemon", speedupCold);
    out.put("speedup_warm_daemon", speedupWarm);
    out.put("upaths", oneshot.paths);
    out.put("decisions", oneshot.decisions);
    out.put("store_writes_cold", cold.storeWrites);
    out.put("store_hits_warm", warm.storeHits);
    out.put("renders_identical", static_cast<uint64_t>(identical));
    out.put("tallies_agree", static_cast<uint64_t>(talliesAgree));
    bool pass = identical && talliesAgree && speedupWarm >= 3.0;
    out.put("pass", static_cast<uint64_t>(pass));
    out.writeFile("BENCH_serve_warm.json");
    std::printf("wrote BENCH_serve_warm.json\n");

    if (!pass) {
        std::printf("FAIL: %s\n",
                    !identical        ? "renders differ"
                    : !talliesAgree   ? "verdict tallies differ"
                                      : "warm speedup below 3x");
        return 1;
    }
    std::printf("daemon agrees with the one-shot run on every uPATH\n");
    return 0;
}
