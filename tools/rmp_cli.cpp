/**
 * @file
 * rmp — the command-line front end to the RTL2MμPATH/SynthLC library.
 *
 * Run `rmp help` (or any malformed command line) for the full usage
 * text; the observability flags (--trace / --stats / --progress) are
 * documented in docs/TUTORIAL.md along with a Perfetto walkthrough.
 */

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "analysis/fsmreach.hh"
#include "analysis/lint.hh"
#include "common/interrupt.hh"
#include "common/version.hh"
#include "contracts/contracts.hh"
#include "designs/catalog.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"
#include "report/json.hh"
#include "report/report.hh"
#include "rtl2mupath/synth.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/vcd.hh"
#include "store/verdict_store.hh"
#include "synthlc/synthlc.hh"

using namespace rmp;
using namespace rmp::designs;

namespace
{

/** Upper bound of the thread-count flags --jobs and --workers. Each
 *  --workers value becomes that many OS threads, so a typo must fail at
 *  parse time instead of asking the OS for 100 000 threads; --jobs
 *  shares the bound. */
constexpr unsigned kMaxThreads = 1024;

/** Upper bound of --max-age-days: the largest D whose D * 86 400
 *  seconds still fits the store's uint64_t age limit. */
constexpr uint64_t kMaxAgeDays = std::numeric_limits<uint64_t>::max() /
                                 86'400;

void
usage(std::FILE *f)
{
    std::fprintf(
        f,
        "usage: rmp <command> [options]\n"
        "\n"
        "commands:\n"
        "  list                      list the built-in DUVs\n"
        "  synth     <duv>           synthesize uPATHs for every"
        " instruction\n"
        "  prove     <duv>           synth with the full BMC closure"
        " queries\n"
        "                            (equivalent to synth --closure)\n"
        "  upaths    <duv> <instr>   synthesize one instruction's uPATHs\n"
        "  leakage   <duv> <instr>   SynthLC leakage signatures\n"
        "  contracts <duv>           end-to-end contract synthesis\n"
        "  bugs      <duv>           DUV PL reachability summary\n"
        "  lint      <duv>|all       netlist + IFT soundness lint\n"
        "  analyze   <duv>|all       abstract interpretation report:\n"
        "                            known bits, FSM reachable states,\n"
        "                            and the full lint diagnostics\n"
        "  serve                     run the analysis daemon on a Unix\n"
        "                            socket (--socket PATH; NDJSON\n"
        "                            protocol, warm per-DUV state)\n"
        "  client    <op> [<duv>]    send one request to a daemon\n"
        "                            (op: ping synth prove lint analyze\n"
        "                            stats shutdown; needs --socket)\n"
        "  store     stats|verify|gc inspect / re-check / clean the\n"
        "                            persistent verdict store\n"
        "  version                   print the source revision\n"
        "  help                      print this message\n"
        "\n"
        "DUVs: tiny3 tiny3-zs mcva mcva-mul mcva-op mcva-fixed"
        " mcva-scbbug dcache\n"
        "\n"
        "options:\n"
        "  --budget N     per-query SAT conflict budget (default 20000)\n"
        "  --closure      run the full BMC closure queries (slow, formal)\n"
        "  --counts       enumerate revisit cycle counts (mode (i))\n"
        "  --jobs N       threads for every simulation fan-out\n"
        "                 (exploration, taint batches), up to the\n"
        "                 hardware threads; covers run on one engine in\n"
        "                 submission order (0 to %u; default 0:\n"
        "                 hardware concurrency; verdicts are identical\n"
        "                 for every value)\n"
        "  --sim-lanes N  SoA lanes per compiled-simulation batch\n"
        "                 (supported widths: 1-16, rounded up to a power\n"
        "                 of two; default 8; from 4 lanes up the kernel\n"
        "                 uses AVX2 when the CPU has it; results identical\n"
        "                 for every value)\n"
        "  --check-verdicts[=replay|proof|all]\n"
        "                 trust-but-verify every BMC verdict (default:"
        " all):\n"
        "                 'replay' re-simulates each reachable witness,\n"
        "                 'proof' DRAT-checks each unsat frame; prints an\n"
        "                 audit summary and exits non-zero on any"
        " mismatch\n"
        "  --store        persist verdicts (and their witnesses / DRAT\n"
        "                 proofs) in the content-addressed store under\n"
        "                 $RMP_CACHE_DIR; later runs hit it across\n"
        "                 processes\n"
        "  --store-root DIR\n"
        "                 verdict-store root (default: $RMP_CACHE_DIR/"
        "store)\n"
        "  --render-paths FILE\n"
        "                 write the deterministic uPATH render (synth,\n"
        "                 client synth); byte-identical across runs that\n"
        "                 agree on verdicts\n"
        "  --socket PATH  Unix socket path (serve, client)\n"
        "  --workers N    daemon job workers; requests are hashed to a\n"
        "                 worker by (DUV, config) so repeated keys stay\n"
        "                 byte-identical while distinct keys run\n"
        "                 concurrently (0 to %u; default 0: hardware\n"
        "                 concurrency)\n"
        "  --max-queue N  per-worker daemon queue bound before"
        " backpressure\n"
        "                 (N >= 1; default 64)\n"
        "  --no-store     daemon: do not attach the verdict store\n"
        "  --priority N   client: job priority (higher runs first)\n"
        "  --timeout MS   client: per-read response timeout (MS >= 0;\n"
        "                 default: wait forever)\n"
        "  --follow       client: request streaming progress events and\n"
        "                 print them to stderr as they arrive\n"
        "  --max-bytes N  store gc: evict oldest records until the live\n"
        "                 footprint fits in N bytes\n"
        "  --max-age-days D\n"
        "                 store gc: evict records older than D days\n"
        "                 (0 to %llu; default 0: no age limit)\n"
        "  --tx A,B,...   transmitter instructions (leakage)\n"
        "  --instrs A,... instruction subset (synth, contracts)\n"
        "  --dot DIR      write one Graphviz file per synthesized uPATH\n"
        "  --vcd FILE     write the first uPATH witness as a VCD waveform\n"
        "  --trace FILE   record a chrome://tracing / Perfetto trace of\n"
        "                 the whole run and write it to FILE\n"
        "  --stats        print run metrics after the command; with\n"
        "                 --json, emit the machine-readable run summary\n"
        "  --progress     live progress line on stderr\n"
        "  --json         machine-readable output (lint, --stats)\n",
        kMaxThreads, kMaxThreads,
        static_cast<unsigned long long>(kMaxAgeDays));
}

[[noreturn]] void
usageError(const char *fmt, const char *arg)
{
    std::fprintf(stderr, "rmp: ");
    std::fprintf(stderr, fmt, arg);
    std::fprintf(stderr, "\n\n");
    usage(stderr);
    std::exit(2);
}

/**
 * The argument @p v of numeric option @p flag as a T in [lo, hi]. Every
 * numeric option goes through here, so text that is not a whole decimal
 * number (empty, trailing junk, a sign on an unsigned option) or lies
 * outside the range is a usage error naming the flag.
 */
template <typename T>
T
parseNumber(const char *flag, const std::string &v,
            T lo = std::numeric_limits<T>::min(),
            T hi = std::numeric_limits<T>::max(),
            const char *what = "values")
{
    T n{};
    const char *end = v.data() + v.size();
    auto [ptr, ec] = std::from_chars(v.data(), end, n);
    if (ec != std::errc() || ptr != end || n < lo || n > hi) {
        std::string msg = "invalid " + std::string(flag) + " '" + v +
                          "' (supported " + what + ": " +
                          std::to_string(lo) + " to " +
                          std::to_string(hi) + ")";
        usageError("%s", msg.c_str());
    }
    return n;
}

DuvUnderConstruction
buildByName(const std::string &name)
{
    std::optional<DuvUnderConstruction> duc = buildDuv(name);
    if (!duc) {
        std::fprintf(stderr, "rmp: unknown DUV '%s' (try: rmp list)\n",
                     name.c_str());
        std::exit(2);
    }
    return std::move(*duc);
}

/** The instruction a user named on @p hx's DUV; an unknown name exits 2
 *  like an unknown DUV (uhb::DuvInfo::instrId would panic). */
uhb::InstrId
instrByName(const Harness &hx, const std::string &name)
{
    std::optional<uhb::InstrId> id = hx.duv().findInstr(name);
    if (!id) {
        std::fprintf(stderr, "rmp: unknown instruction '%s' on %s\n",
                     name.c_str(), hx.duv().name.c_str());
        std::exit(2);
    }
    return *id;
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

struct CliOptions
{
    uint64_t budget = 20'000;
    bool closure = false;
    bool counts = false;
    bool checkReplay = false;
    bool checkProof = false;
    bool json = false;
    bool stats = false;
    bool progress = false;
    unsigned jobs = 0; // 0 = hardware_concurrency()
    unsigned simLanes = sim::kDefaultLanes;
    std::string dotDir;
    std::string vcdFile;
    std::string traceFile;
    std::vector<std::string> tx;
    std::vector<std::string> instrs;
    bool store = false;
    std::string storeRoot;
    std::string renderPaths;
    std::string socket;
    unsigned workers = 0; // 0 = hardware_concurrency()
    unsigned maxQueue = 64;
    bool noStore = false;
    int64_t priority = 0;
    int timeoutMs = -1;
    bool follow = false;
    uint64_t gcMaxBytes = 0;   // 0 = unbounded
    uint64_t gcMaxAgeDays = 0; // 0 = no age limit
};

CliOptions
parseOptions(int argc, char **argv, int first)
{
    CliOptions o;
    for (int i = first; i < argc; i++) {
        std::string a = argv[i];
        auto need = [&](const char *flag) {
            if (i + 1 >= argc)
                usageError("option %s requires an argument", flag);
            return std::string(argv[++i]);
        };
        if (a == "--budget")
            o.budget = parseNumber<uint64_t>("--budget", need("--budget"));
        else if (a == "--closure")
            o.closure = true;
        else if (a == "--counts")
            o.counts = true;
        else if (a == "--check-verdicts" ||
                 a.rfind("--check-verdicts=", 0) == 0) {
            std::string mode =
                a == "--check-verdicts" ? "all" : a.substr(17);
            if (mode == "replay")
                o.checkReplay = true;
            else if (mode == "proof")
                o.checkProof = true;
            else if (mode == "all")
                o.checkReplay = o.checkProof = true;
            else
                usageError("unknown --check-verdicts mode '%s'",
                           mode.c_str());
        }
        else if (a == "--json")
            o.json = true;
        else if (a == "--stats")
            o.stats = true;
        else if (a == "--progress")
            o.progress = true;
        else if (a == "--jobs")
            o.jobs = parseNumber<unsigned>("--jobs", need("--jobs"), 0,
                                           kMaxThreads);
        else if (a == "--sim-lanes")
            // BatchSim asserts on bad lane counts, which is a crash, not
            // a diagnostic.
            o.simLanes = parseNumber<unsigned>(
                "--sim-lanes", need("--sim-lanes"), 1, sim::kMaxLanes,
                "widths");
        else if (a == "--store")
            o.store = true;
        else if (a == "--store-root")
            o.storeRoot = need("--store-root");
        else if (a == "--render-paths")
            o.renderPaths = need("--render-paths");
        else if (a == "--socket")
            o.socket = need("--socket");
        else if (a == "--workers")
            o.workers = parseNumber<unsigned>("--workers", need("--workers"),
                                              0, kMaxThreads);
        else if (a == "--max-queue")
            // A bound of 0 would reject every heavy request.
            o.maxQueue =
                parseNumber<unsigned>("--max-queue", need("--max-queue"), 1);
        else if (a == "--follow")
            o.follow = true;
        else if (a == "--max-bytes")
            o.gcMaxBytes =
                parseNumber<uint64_t>("--max-bytes", need("--max-bytes"));
        else if (a == "--max-age-days")
            o.gcMaxAgeDays = parseNumber<uint64_t>(
                "--max-age-days", need("--max-age-days"), 0, kMaxAgeDays);
        else if (a == "--no-store")
            o.noStore = true;
        else if (a == "--priority")
            o.priority =
                parseNumber<int64_t>("--priority", need("--priority"));
        else if (a == "--timeout")
            o.timeoutMs =
                parseNumber<int>("--timeout", need("--timeout"), 0);
        else if (a == "--dot")
            o.dotDir = need("--dot");
        else if (a == "--vcd")
            o.vcdFile = need("--vcd");
        else if (a == "--trace")
            o.traceFile = need("--trace");
        else if (a == "--tx")
            o.tx = splitCsv(need("--tx"));
        else if (a == "--instrs")
            o.instrs = splitCsv(need("--instrs"));
        else
            usageError("unknown option '%s'", a.c_str());
    }
    return o;
}

r2m::SynthesisConfig
synthConfig(const CliOptions &o)
{
    r2m::SynthesisConfig c;
    c.budget.maxConflicts = o.budget;
    c.closureChecks = o.closure;
    c.revisitCounts = o.counts;
    c.jobs = o.jobs;
    c.auditReplay = o.checkReplay;
    c.auditProof = o.checkProof;
    c.explore.lanes = o.simLanes;
    return c;
}

/**
 * The --store verdict store, or nullptr. Callers must declare the result
 * BEFORE the synthesizer so the pool flushes pending proofs into a
 * still-live store at destruction.
 */
std::unique_ptr<store::VerdictStore>
makeStore(const CliOptions &o)
{
    if (!o.store)
        return nullptr;
    auto st = std::make_unique<store::VerdictStore>(o.storeRoot);
    if (!st->enabled()) {
        std::fprintf(stderr, "rmp: warning: verdict store unavailable; "
                             "continuing without persistence\n");
        return nullptr;
    }
    return st;
}

/**
 * Run outcome captured for the --stats / --trace epilogue in main():
 * commands that drive an engine pool snapshot its statistics here
 * before their pool is destroyed.
 */
std::string g_design;
exec::PoolStats g_pool;
bool g_havePool = false;

/**
 * Verdict-audit tallies accumulated across every pool a command drives
 * (commands like leakage/contracts run two: the uPATH synthesizer's and
 * SynthLC's). The --check-verdicts epilogue prints these and fails the
 * run on any mismatch.
 */
struct AuditTotals
{
    uint64_t replayed = 0;
    uint64_t proofChecked = 0;
    uint64_t mismatches = 0;
} g_audit;

void
foldAudit(const exec::EnginePool &pool)
{
    exec::PoolStats s = pool.stats();
    g_audit.replayed += s.engine.auditReplayed;
    g_audit.proofChecked += s.engine.auditProofChecked;
    g_audit.mismatches += s.engine.auditMismatches;
}

void
snapshotPool(const designs::Harness &hx, const exec::EnginePool &pool)
{
    g_design = hx.design().name();
    g_pool = pool.stats();
    g_havePool = true;
    foldAudit(pool);
}

int
cmdSynth(const std::string &duv, const CliOptions &o)
{
    // SIGINT/SIGTERM unwind cooperatively: synthesizeAll stops at an
    // instruction boundary, the partial summary below still prints, and
    // main()'s --trace/--stats epilogues run before exit(128+sig).
    installInterruptHandlers();
    Harness hx(buildByName(duv));
    std::vector<uhb::InstrId> ids;
    for (const std::string &n : o.instrs)
        ids.push_back(instrByName(hx, n));
    if (ids.empty())
        for (size_t i = 0; i < hx.duv().instrs.size(); i++)
            ids.push_back(static_cast<uhb::InstrId>(i));
    std::unique_ptr<store::VerdictStore> store = makeStore(o);
    r2m::SynthesisConfig cfg = synthConfig(o);
    cfg.store = store.get();
    r2m::MuPathSynthesizer synth(hx, cfg);
    auto all = synth.synthesizeAll(ids);
    size_t paths = 0, decisions = 0, done = 0;
    for (uhb::InstrId i : ids) {
        auto it = all.find(i);
        if (it == all.end())
            continue; // interrupted before this IUV
        const uhb::InstrPaths &r = it->second;
        std::printf("%-10s %2zu uPATH(s)  %2zu decision(s)\n",
                    hx.duv().instrs[i].name.c_str(), r.paths.size(),
                    r.decisions.size());
        paths += r.paths.size();
        decisions += r.decisions.size();
        done++;
    }
    std::printf("%s: %zu instruction(s), %zu uPATH(s), %zu decision(s)\n",
                hx.duv().name.c_str(), done, paths, decisions);
    if (!o.renderPaths.empty()) {
        std::ofstream f(o.renderPaths);
        f << report::renderSynthAll(hx, ids, all);
        if (f)
            std::printf("wrote %s\n", o.renderPaths.c_str());
        else
            std::fprintf(stderr, "rmp: cannot write %s\n",
                         o.renderPaths.c_str());
    }
    std::printf("\n%s",
                report::renderStepStats(synth.stepStats()).c_str());
    snapshotPool(hx, synth.pool());
    if (interruptRequested()) {
        std::fprintf(stderr,
                     "rmp: interrupted; partial summary above "
                     "(%zu/%zu instruction(s) completed)\n",
                     done, ids.size());
        return interruptExitCode();
    }
    return 0;
}

int
cmdUpaths(const std::string &duv, const std::string &instr,
          const CliOptions &o)
{
    Harness hx(buildByName(duv));
    uhb::InstrId p = instrByName(hx, instr);
    std::unique_ptr<store::VerdictStore> store = makeStore(o);
    r2m::SynthesisConfig scfg = synthConfig(o);
    scfg.store = store.get();
    r2m::MuPathSynthesizer synth(hx, scfg);
    uhb::InstrPaths r = synth.synthesize(p);
    std::printf("%s\n", report::renderInstrPaths(hx, r).c_str());
    std::printf("%s", report::renderDecisions(hx, r).c_str());
    if (!o.dotDir.empty()) {
        for (size_t i = 0; i < r.paths.size(); i++) {
            std::string path = o.dotDir + "/" + instr + "_upath" +
                               std::to_string(i) + ".dot";
            std::ofstream f(path);
            f << uhb::renderUPathDot(r.paths[i], hx.plNames(),
                                     r.decisions);
            std::printf("wrote %s\n", path.c_str());
        }
    }
    if (!o.vcdFile.empty() && !r.paths.empty()) {
        // The synthesizer stores only the first path's schedule; export
        // the first witness of the IUV's exploration instead, which
        // synthesize() already ran and cached. Exploration traces are
        // sparse (watch-set only), so replay the witness inputs through
        // the full interpreted simulator to get every signal for the VCD.
        const r2m::SimFacts &f = synth.facts(p);
        if (!f.sets.empty()) {
            const bmc::Witness &w = f.sets.begin()->second.witness;
            Simulator replay(hx.design());
            replay.reserveTrace(w.inputs.size());
            for (const InputMap &in : w.inputs)
                replay.step(in);
            writeVcd(hx.design(), replay.trace(), o.vcdFile);
            std::printf("wrote %s\n", o.vcdFile.c_str());
        }
    }
    std::printf("\n%s",
                report::renderStepStats(synth.stepStats()).c_str());
    snapshotPool(hx, synth.pool());
    return 0;
}

int
cmdLeakage(const std::string &duv, const std::string &instr,
           const CliOptions &o)
{
    Harness hx(buildByName(duv));
    uhb::InstrId p = instrByName(hx, instr);
    std::vector<uhb::InstrId> tx;
    for (const std::string &t : o.tx)
        tx.push_back(instrByName(hx, t));
    if (tx.empty())
        tx.push_back(p);
    std::unique_ptr<store::VerdictStore> store = makeStore(o);
    r2m::SynthesisConfig scfg = synthConfig(o);
    scfg.store = store.get();
    r2m::MuPathSynthesizer synth(hx, scfg);
    slc::SynthLcConfig lc;
    lc.budget.maxConflicts = o.budget;
    lc.jobs = o.jobs;
    lc.auditReplay = o.checkReplay;
    lc.auditProof = o.checkProof;
    lc.store = store.get();
    slc::SynthLc slc(hx, lc);
    uhb::InstrPaths r = synth.synthesize(p);
    auto sigs = slc.analyze(p, r.decisions, tx);
    if (sigs.empty())
        std::printf("no leakage signatures for %s\n", instr.c_str());
    for (const auto &s : sigs)
        std::printf("%s\n", slc.render(s).c_str());
    std::printf("\n%s",
                report::renderStepStats(synth.stepStats(), &slc.stats())
                    .c_str());
    snapshotPool(hx, synth.pool());
    foldAudit(slc.pool());
    return 0;
}

int
cmdContracts(const std::string &duv, const CliOptions &o)
{
    Harness hx(buildByName(duv));
    std::vector<uhb::InstrId> ids;
    for (const std::string &n : o.instrs)
        ids.push_back(instrByName(hx, n));
    if (ids.empty())
        for (size_t i = 0; i < hx.duv().instrs.size() && i < 5; i++)
            ids.push_back(static_cast<uhb::InstrId>(i));
    std::unique_ptr<store::VerdictStore> store = makeStore(o);
    r2m::SynthesisConfig scfg = synthConfig(o);
    scfg.store = store.get();
    r2m::MuPathSynthesizer synth(hx, scfg);
    slc::SynthLcConfig lc;
    lc.budget.maxConflicts = o.budget;
    lc.jobs = o.jobs;
    lc.auditReplay = o.checkReplay;
    lc.auditProof = o.checkProof;
    lc.store = store.get();
    slc::SynthLc slc(hx, lc);
    ct::AnalysisDb db;
    db.hx = &hx;
    // One synthesizer for every instruction, so step 1 runs once.
    auto all = synth.synthesizeAll(ids);
    for (uhb::InstrId i : ids) {
        std::fprintf(stderr, "analyzing %s...\n",
                     hx.duv().instrs[i].name.c_str());
        auto paths = std::move(all.at(i));
        auto sigs = slc.analyze(i, paths.decisions, ids);
        for (auto &s : sigs)
            db.signatures.push_back(std::move(s));
        db.paths[i] = std::move(paths);
    }
    std::printf("%s\n", ct::renderContracts(db).c_str());
    std::printf("%s\n", report::renderFig8Matrix(db).c_str());
    snapshotPool(hx, synth.pool());
    foldAudit(slc.pool());
    return 0;
}

int
cmdBugs(const std::string &duv, const CliOptions &o)
{
    Harness hx(buildByName(duv));
    r2m::MuPathSynthesizer synth(hx, synthConfig(o));
    auto pls = synth.duvPls();
    std::printf("%s: %zu/%zu candidate PLs reachable\n",
                hx.duv().name.c_str(), pls.size(), hx.numPls());
    std::vector<bool> reach(hx.numPls(), false);
    for (uhb::PlId p : pls)
        reach[p] = true;
    for (uhb::PlId p = 0; p < hx.numPls(); p++)
        if (!reach[p])
            std::printf("  UNREACHABLE: %s\n", hx.plName(p).c_str());
    snapshotPool(hx, synth.pool());
    return 0;
}

std::vector<std::string>
duvNames(const std::string &duv)
{
    if (duv == "all")
        return {"tiny3",      "tiny3-zs",   "mcva",        "mcva-mul",
                "mcva-op",    "mcva-fixed", "mcva-scbbug", "dcache"};
    return {duv};
}

/** The μFSM state variables — the control registers every absint
 *  consumer (lint, analyze) sharpens with fsmReachability. */
std::vector<SigId>
controlRegsOf(const Harness &hx)
{
    std::vector<SigId> ctrl;
    for (const uhb::MicroFsm &fsm : hx.duv().fsms)
        for (SigId v : fsm.vars)
            ctrl.push_back(v);
    return ctrl;
}

/** Append the IFT soundness lint (over the same instrumentation SynthLC
 *  uses) to @p rep, when the DUV declares operand registers. */
void
appendIftLint(const Harness &hx, analysis::LintReport *rep)
{
    const uhb::DuvInfo &info = hx.duv();
    if (info.rs1Reg == kNoSig || info.rs2Reg == kNoSig)
        return;
    ift::IftConfig icfg;
    icfg.taintSources = {info.rs1Reg, info.rs2Reg};
    icfg.blockRegs = info.arfRegs;
    icfg.blockRegs.insert(icfg.blockRegs.end(), info.amemRegs.begin(),
                          info.amemRegs.end());
    icfg.persistentRegs = info.persistentRegs;
    icfg.txmGone = hx.txmGone;
    ift::Instrumented inst = ift::instrument(hx.design(), icfg);
    analysis::LintReport irep = analysis::lintIft(hx.design(), inst);
    rep->diags.insert(rep->diags.end(), irep.diags.begin(),
                      irep.diags.end());
}

int
cmdLint(const std::string &duv, const CliOptions &o)
{
    std::vector<std::string> names = duvNames(duv);
    size_t errors = 0;
    if (o.json)
        std::printf("[");
    for (size_t i = 0; i < names.size(); i++) {
        Harness hx(buildByName(names[i]));
        analysis::LintConfig lcfg;
        lcfg.controlRegs = controlRegsOf(hx);
        analysis::LintReport rep = analysis::lint(hx.design(), lcfg);
        appendIftLint(hx, &rep);
        errors += rep.errors();
        if (o.json)
            std::printf("%s%s", i ? ",\n " : "",
                        rep.json(hx.design()).c_str());
        else
            std::printf("%s%s", i ? "\n" : "",
                        rep.render(hx.design()).c_str());
    }
    if (o.json)
        std::printf("]\n");
    return errors ? 1 : 0;
}

int
cmdAnalyze(const std::string &duv, const CliOptions &o)
{
    std::vector<std::string> names = duvNames(duv);
    size_t errors = 0;
    if (o.json)
        std::printf("[");
    for (size_t i = 0; i < names.size(); i++) {
        Harness hx(buildByName(names[i]));
        const Design &d = hx.design();
        std::vector<SigId> ctrl = controlRegsOf(hx);

        // Global fixpoint sharpened by FSM successor enumeration on the
        // control regs, called in two steps to keep the per-register
        // results.
        analysis::AbsFacts facts = analysis::absInterpret(d);
        std::vector<analysis::FsmReachResult> reach =
            analysis::fsmReachability(d, ctrl, facts);

        // reg -> "fsm.var" label for the report.
        std::vector<std::string> regLabel(d.numCells());
        for (const uhb::MicroFsm &fsm : hx.duv().fsms)
            for (size_t v = 0; v < fsm.vars.size(); v++)
                regLabel[fsm.vars[v]] =
                    fsm.name +
                    (fsm.vars.size() > 1 ? "." + std::to_string(v) : "");

        analysis::LintConfig lcfg;
        lcfg.controlRegs = ctrl;
        analysis::LintReport rep = analysis::lint(d, lcfg);
        appendIftLint(hx, &rep);
        errors += rep.errors();

        if (o.json) {
            report::JsonReport j;
            j.put("design", d.name());
            j.put("cells", static_cast<uint64_t>(d.numCells()));
            j.put("bits_known", facts.bitsKnown);
            j.put("bits_total", facts.bitsTotal);
            j.put("fixpoint_iters",
                  static_cast<uint64_t>(facts.fixpointIters));
            report::JsonArray fsms;
            for (const analysis::FsmReachResult &r : reach) {
                report::JsonReport e;
                e.put("fsm", regLabel[r.reg]);
                e.put("reg", static_cast<uint64_t>(r.reg));
                e.putRaw("exact", r.exact ? "true" : "false");
                report::JsonArray states;
                for (uint64_t s : r.states)
                    states.add(s);
                e.putRaw("states", states.str());
                fsms.addRaw(e.str());
            }
            j.putRaw("fsm_regs", fsms.str());
            j.putRaw("lint", report::diagnosticsJson(d, rep));
            std::printf("%s%s", i ? ",\n " : "", j.str().c_str());
            continue;
        }

        double pct = facts.bitsTotal
                         ? 100.0 * static_cast<double>(facts.bitsKnown) /
                               static_cast<double>(facts.bitsTotal)
                         : 0.0;
        std::printf("%s%s: %zu cells, %llu/%llu bits known (%.1f%%), "
                    "%u fixpoint iteration(s)\n",
                    i ? "\n" : "", d.name().c_str(), d.numCells(),
                    static_cast<unsigned long long>(facts.bitsKnown),
                    static_cast<unsigned long long>(facts.bitsTotal), pct,
                    facts.fixpointIters);
        for (const analysis::FsmReachResult &r : reach) {
            std::string vals;
            for (size_t s = 0; s < r.states.size(); s++)
                vals += (s ? "," : "") + std::to_string(r.states[s]);
            std::printf("  %-12s cell %-4u %zu reachable state(s) {%s}%s\n",
                        regLabel[r.reg].c_str(), r.reg, r.states.size(),
                        vals.c_str(), r.exact ? "" : " [inexact]");
        }
        std::printf("%s", rep.render(d).c_str());
    }
    if (o.json)
        std::printf("]\n");
    return errors ? 1 : 0;
}

int
cmdStore(const std::string &sub, const CliOptions &o)
{
    store::VerdictStore st(o.storeRoot);
    if (!st.enabled()) {
        std::fprintf(stderr, "rmp: no usable verdict-store directory\n");
        return 1;
    }
    std::printf("store: %s\n", st.root().c_str());
    if (sub == "stats") {
        store::ScanSummary s = st.scan();
        std::printf("records:      %llu (%llu reachable, %llu unreachable,"
                    " %llu undetermined)\n",
                    static_cast<unsigned long long>(s.records),
                    static_cast<unsigned long long>(s.reachable),
                    static_cast<unsigned long long>(s.unreachable),
                    static_cast<unsigned long long>(s.undetermined));
        std::printf("with proof:   %llu\n",
                    static_cast<unsigned long long>(s.withProof));
        std::printf("proof blobs:  %llu\n",
                    static_cast<unsigned long long>(s.blobs));
        std::printf("corrupt:      %llu (quarantined)\n",
                    static_cast<unsigned long long>(s.corrupt));
        std::printf("bytes:        %llu record + %llu blob\n",
                    static_cast<unsigned long long>(s.recordBytes),
                    static_cast<unsigned long long>(s.blobBytes));
        return 0;
    }
    if (sub == "verify") {
        store::VerifySummary v = st.verify();
        std::printf("records:      %llu (%llu corrupt)\n",
                    static_cast<unsigned long long>(v.records),
                    static_cast<unsigned long long>(v.corrupt));
        std::printf("DRAT proofs:  %llu checked, %llu ok, %llu failed,"
                    " %llu missing blob(s)\n",
                    static_cast<unsigned long long>(v.proofs),
                    static_cast<unsigned long long>(v.proofsOk),
                    static_cast<unsigned long long>(v.proofsFailed),
                    static_cast<unsigned long long>(v.missingBlobs));
        if (!v.ok()) {
            std::fprintf(stderr, "rmp: store verify FAILED%s%s\n",
                         v.firstFailure.empty() ? "" : ": ",
                         v.firstFailure.c_str());
            return 1;
        }
        std::printf("store verify OK\n");
        return 0;
    }
    if (sub == "gc") {
        store::GcPolicy pol;
        pol.maxBytes = o.gcMaxBytes;
        pol.maxAgeSeconds = o.gcMaxAgeDays * 86'400;
        store::GcSummary g = st.gc(pol);
        std::printf("removed:      %llu corrupt, %llu tmp, %llu orphan"
                    " blob(s)\n",
                    static_cast<unsigned long long>(g.corruptRemoved),
                    static_cast<unsigned long long>(g.tmpRemoved),
                    static_cast<unsigned long long>(g.orphanBlobsRemoved));
        std::printf("evicted:      %llu record(s), %llu byte(s)\n",
                    static_cast<unsigned long long>(g.evictedRecords),
                    static_cast<unsigned long long>(g.evictedBytes));
        std::printf("live:         %llu record(s), %llu blob(s)\n",
                    static_cast<unsigned long long>(g.liveRecords),
                    static_cast<unsigned long long>(g.liveBlobs));
        return 0;
    }
    usageError("unknown store subcommand '%s'", sub.c_str());
}

int
cmdServe(const CliOptions &o)
{
    if (o.socket.empty())
        usageError("serve requires --socket PATH%s", "");
    serve::ServeConfig sc;
    sc.socketPath = o.socket;
    sc.workers = o.workers;
    sc.maxQueue = o.maxQueue;
    sc.useStore = !o.noStore;
    sc.storeRoot = o.storeRoot;
    sc.jobs = o.jobs;
    serve::Server srv(sc);
    std::string err;
    if (!srv.start(&err)) {
        std::fprintf(stderr, "rmp: %s\n", err.c_str());
        return 1;
    }
    std::fprintf(stderr, "rmp serve: listening on %s\n", o.socket.c_str());
    int rc = srv.run();
    serve::ServerStats s = srv.stats();
    std::fprintf(stderr,
                 "rmp serve: drained (%llu request(s), %llu job(s) "
                 "completed)\n",
                 static_cast<unsigned long long>(s.requests),
                 static_cast<unsigned long long>(s.completed));
    return rc; // a signal-triggered drain is a *successful* shutdown
}

int
cmdClient(const std::string &op, const std::string &duv,
          const CliOptions &o)
{
    if (o.socket.empty())
        usageError("client requires --socket PATH%s", "");
    bool heavy = op == "synth" || op == "prove" || op == "lint" ||
                 op == "analyze";
    bool known = heavy || op == "ping" || op == "stats" ||
                 op == "shutdown";
    if (!known)
        usageError("unknown client op '%s'", op.c_str());
    if (heavy && duv.empty())
        usageError("client op '%s' needs a DUV argument", op.c_str());

    report::JsonReport req;
    req.put("id", static_cast<uint64_t>(1));
    req.put("op", op);
    if (!duv.empty())
        req.put("duv", duv);
    if (o.priority)
        req.putRaw("priority", std::to_string(o.priority));
    if (o.follow && heavy)
        req.putRaw("progress", "true");
    if (op == "synth" || op == "prove") {
        report::JsonReport opts;
        if (o.closure)
            opts.putRaw("closure", "true");
        opts.put("budget", o.budget);
        if (o.counts)
            opts.putRaw("counts", "true");
        if (o.checkReplay)
            opts.putRaw("audit_replay", "true");
        if (o.checkProof)
            opts.putRaw("audit_proof", "true");
        if (!o.instrs.empty()) {
            report::JsonArray a;
            for (const std::string &n : o.instrs)
                a.add(n);
            opts.putRaw("instrs", a.str());
        }
        if (!o.renderPaths.empty())
            opts.putRaw("render", "true");
        req.putRaw("opts", opts.str());
    }

    serve::Client cl;
    std::string err, line;
    if (!cl.connect(o.socket, &err)) {
        std::fprintf(stderr, "rmp: %s\n", err.c_str());
        return 1;
    }
    bool sent;
    if (o.follow && heavy) {
        sent = cl.requestStream(
            req.str(),
            [](const serve::JsonValue &ev) {
                std::fprintf(stderr, "[%s] %s %llu/%llu %s\n",
                             ev.str("op").c_str(),
                             ev.str("phase").c_str(),
                             static_cast<unsigned long long>(
                                 ev.u64("done")),
                             static_cast<unsigned long long>(
                                 ev.u64("total")),
                             ev.str("detail").c_str());
            },
            &line, &err, o.timeoutMs);
    } else {
        sent = cl.request(req.str(), &line, &err, o.timeoutMs);
    }
    if (!sent) {
        std::fprintf(stderr, "rmp: %s\n", err.c_str());
        return 1;
    }
    serve::JsonValue resp;
    if (!serve::parseJson(line, &resp, &err)) {
        std::fprintf(stderr, "rmp: malformed response: %s\n", err.c_str());
        return 1;
    }
    if (!resp.boolean_("ok")) {
        std::fprintf(stderr, "rmp: daemon error: %s\n",
                     resp.str("error", "unknown error").c_str());
        return 1;
    }
    if (!o.renderPaths.empty()) {
        const serve::JsonValue *r = resp.find("render");
        if (r && r->isString()) {
            std::ofstream f(o.renderPaths);
            f << r->string;
            if (f)
                std::printf("wrote %s\n", o.renderPaths.c_str());
            else
                std::fprintf(stderr, "rmp: cannot write %s\n",
                             o.renderPaths.c_str());
        }
    }
    if (o.json) {
        std::printf("%s\n", line.c_str());
        return 0;
    }
    if (op == "ping") {
        std::printf("daemon ok (version %s)\n",
                    resp.str("version", "?").c_str());
        return 0;
    }
    if (op == "shutdown") {
        std::printf("daemon draining\n");
        return 0;
    }
    if (op == "synth" || op == "prove") {
        if (const serve::JsonValue *arr = resp.find("instrs");
            arr && arr->isArray())
            for (const serve::JsonValue &ins : arr->items)
                std::printf("%-10s %2llu uPATH(s)  %2llu decision(s)\n",
                            ins.str("name").c_str(),
                            static_cast<unsigned long long>(
                                ins.u64("upaths")),
                            static_cast<unsigned long long>(
                                ins.u64("decisions")));
        const serve::JsonValue *st = resp.find("store");
        std::printf("%s: %llu uPATH(s), %llu decision(s)%s  "
                    "[%s, store hits %llu]\n",
                    resp.str("duv").c_str(),
                    static_cast<unsigned long long>(resp.u64("paths")),
                    static_cast<unsigned long long>(resp.u64("decisions")),
                    resp.boolean_("partial") ? " (partial)" : "",
                    resp.boolean_("warm") ? "warm" : "cold",
                    static_cast<unsigned long long>(st ? st->u64("hits")
                                                       : 0));
        return resp.boolean_("partial") ? 1 : 0;
    }
    // lint / analyze / stats: the JSON body is the payload.
    std::printf("%s\n", line.c_str());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usageError("missing command%s", "");
    std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        usage(stdout);
        return 0;
    }
    if (cmd == "version" || cmd == "--version" || cmd == "-V") {
        std::printf("rmp %s\n", versionString());
        return 0;
    }
    if (cmd == "list") {
        const auto &names = duvCatalog();
        for (size_t i = 0; i < names.size(); i++)
            std::printf("%s%s", i ? " " : "", names[i].c_str());
        std::printf("\n");
        return 0;
    }

    // Positional-argument count per command; options follow.
    int npos;
    if (cmd == "upaths" || cmd == "leakage")
        npos = 2;
    else if (cmd == "synth" || cmd == "prove" || cmd == "contracts" ||
             cmd == "bugs" || cmd == "lint" || cmd == "analyze" ||
             cmd == "store")
        npos = 1;
    else if (cmd == "serve")
        npos = 0;
    else if (cmd == "client")
        // `client <op>` or `client <op> <duv>`: the DUV is positional
        // only for the ops that take one.
        npos = argc >= 4 && argv[3][0] != '-' ? 2 : 1;
    else
        usageError("unknown command '%s'", cmd.c_str());
    if (argc < 2 + npos)
        usageError("command '%s' is missing arguments", cmd.c_str());
    CliOptions o = parseOptions(argc, argv, 2 + npos);

    // Observability setup: --trace and --stats both record through the
    // global switch; --progress installs the stderr status line. The
    // sink lives to end of main — synthesis layers only touch it inside
    // progress() calls, which stop before the commands return.
    obs::StderrProgress progressSink;
    if (!o.traceFile.empty() || o.stats)
        obs::setEnabled(true);
    if (o.progress)
        obs::setProgressSink(&progressSink);

    auto t0 = std::chrono::steady_clock::now();
    int rc;
    if (cmd == "synth")
        rc = cmdSynth(argv[2], o);
    else if (cmd == "prove") {
        // prove = synth with every closure query run formally.
        o.closure = true;
        rc = cmdSynth(argv[2], o);
    } else if (cmd == "serve")
        rc = cmdServe(o);
    else if (cmd == "client") {
        o.closure = std::string(argv[2]) == "prove" || o.closure;
        rc = cmdClient(argv[2], npos == 2 ? argv[3] : "", o);
    } else if (cmd == "store")
        rc = cmdStore(argv[2], o);
    else if (cmd == "upaths")
        rc = cmdUpaths(argv[2], argv[3], o);
    else if (cmd == "leakage")
        rc = cmdLeakage(argv[2], argv[3], o);
    else if (cmd == "contracts")
        rc = cmdContracts(argv[2], o);
    else if (cmd == "bugs")
        rc = cmdBugs(argv[2], o);
    else if (cmd == "analyze")
        rc = cmdAnalyze(argv[2], o);
    else
        rc = cmdLint(argv[2], o);
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    obs::setProgressSink(nullptr);
    if (!o.traceFile.empty()) {
        if (obs::exportChromeTrace(o.traceFile))
            std::fprintf(stderr, "wrote %s (%zu events)\n",
                         o.traceFile.c_str(), obs::eventCount());
        else {
            std::fprintf(stderr, "rmp: cannot write trace to %s\n",
                         o.traceFile.c_str());
            rc = rc ? rc : 1;
        }
    }
    if (o.stats) {
        if (o.json)
            std::printf("%s\n",
                        report::runSummaryJson("rmp-" + cmd, g_design, wall,
                                               g_havePool ? &g_pool
                                                          : nullptr)
                            .c_str());
        else
            std::printf("\n%s", report::renderObsStats().c_str());
    }
    if (o.checkReplay || o.checkProof) {
        std::printf("\nverdict audit: %llu witness replay(s), "
                    "%llu DRAT-closed unsat frame(s), %llu mismatch(es)\n",
                    static_cast<unsigned long long>(g_audit.replayed),
                    static_cast<unsigned long long>(g_audit.proofChecked),
                    static_cast<unsigned long long>(g_audit.mismatches));
        if (g_audit.mismatches) {
            std::fprintf(
                stderr,
                "rmp: verdict audit FAILED: %llu verdict(s) were not "
                "supported by their own evidence\n",
                static_cast<unsigned long long>(g_audit.mismatches));
            rc = rc ? rc : 1;
        }
    }
    return rc;
}
