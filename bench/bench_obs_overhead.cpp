/**
 * @file
 * Disabled-mode overhead of the observability subsystem (DESIGN.md §3f).
 *
 * The obs instrumentation is compiled into every hot path — SAT solves,
 * BMC unrolling, the engine pool, synthesis steps — guarded by one
 * relaxed atomic load (obs::enabled()). This bench quantifies what that
 * guard costs when observability is off:
 *
 *  1. A macro run: the tiny3 full-ISA synthesis workload, repeated with
 *     observability disabled and enabled (min wall time of N repeats
 *     each, fresh synthesizer per repeat so no query cache carries
 *     over).
 *  2. A micro run: the per-call cost of a disabled Span (the only thing
 *     a disabled run pays at each instrumentation point), measured over
 *     many iterations.
 *  3. The derived disabled-mode overhead bound: the number of spans an
 *     enabled run records times the disabled per-span cost, as a
 *     fraction of the disabled run's wall time. This bounds the
 *     instrumentation tax of a production (disabled) run without
 *     needing an uninstrumented binary to diff against.
 *
 * Writes BENCH_obs_overhead.json and exits non-zero when the derived
 * overhead reaches 2%, so CI catches instrumentation creep.
 */

#include <chrono>
#include <cstdio>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "designs/tiny3.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"

using namespace rmp;
using namespace rmp::bench;

namespace
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One full tiny3 synthesis (all instructions), fresh state. */
double
synthOnce()
{
    designs::Harness hx(designs::buildTiny3());
    r2m::MuPathSynthesizer synth(hx, benchSynthConfig());
    std::vector<uhb::InstrId> ids;
    for (const auto &ins : hx.duv().instrs)
        ids.push_back(hx.duv().instrId(ins.name));
    double t0 = nowSeconds();
    auto all = synth.synthesizeAll(ids);
    double wall = nowSeconds() - t0;
    if (all.empty()) // keep the workload observable to the optimizer
        std::printf("impossible\n");
    return wall;
}

/** ns per disabled Span construction+destruction. */
double
disabledSpanNs(uint64_t iters)
{
    rmp_assert(!obs::enabled(), "micro-bench needs obs disabled");
    double t0 = nowSeconds();
    for (uint64_t i = 0; i < iters; i++) {
        obs::Span s("micro", "bench");
        s.arg("i", i);
    }
    double wall = nowSeconds() - t0;
    return wall * 1e9 / static_cast<double>(iters);
}

} // anonymous namespace

int
main()
{
    banner("bench_obs_overhead: observability disabled-mode tax");
    const unsigned repeats = fullMode() ? 5 : 3;

    obs::setEnabled(false);
    double disabled = 1e300;
    for (unsigned r = 0; r < repeats; r++)
        disabled = std::min(disabled, synthOnce());

    obs::setEnabled(true);
    obs::clearTrace();
    double enabled = 1e300;
    for (unsigned r = 0; r < repeats; r++)
        enabled = std::min(enabled, synthOnce());
    size_t spans = obs::eventCount() / repeats;
    obs::setEnabled(false);

    const uint64_t iters = 20'000'000;
    double ns_per_span = disabledSpanNs(iters);

    // Disabled-mode overhead bound: every span an enabled run records is
    // one enabled() check a disabled run still executes.
    double overhead_pct =
        disabled > 0 ? 100.0 * (static_cast<double>(spans) * ns_per_span) /
                           (disabled * 1e9)
                     : 0.0;
    double enabled_pct =
        disabled > 0 ? 100.0 * (enabled - disabled) / disabled : 0.0;

    std::printf("  disabled wall (min of %u): %.3f s\n", repeats, disabled);
    std::printf("  enabled  wall (min of %u): %.3f s  (%+.1f%%)\n", repeats,
                enabled, enabled_pct);
    std::printf("  spans per enabled run:     %zu\n", spans);
    std::printf("  disabled span cost:        %.2f ns\n", ns_per_span);
    std::printf("  derived disabled overhead: %.4f%%  (budget < 2%%)\n",
                overhead_pct);
    bool pass = overhead_pct < 2.0;
    paperNote("instrumentation must not perturb production runs",
              pass ? "disabled-mode overhead within budget"
                   : "disabled-mode overhead EXCEEDS budget");

    JsonReport out;
    out.put("bench", std::string("obs_overhead"));
    out.put("duv", std::string("tiny3"));
    out.put("repeats", static_cast<uint64_t>(repeats));
    out.put("disabled_wall_seconds", disabled);
    out.put("enabled_wall_seconds", enabled);
    out.put("enabled_overhead_pct", enabled_pct);
    out.put("spans_per_run", static_cast<uint64_t>(spans));
    out.put("ns_per_disabled_span", ns_per_span);
    out.put("overhead_disabled_pct", overhead_pct);
    out.put("pass", static_cast<uint64_t>(pass));
    out.writeFile("BENCH_obs_overhead.json");
    std::printf("wrote BENCH_obs_overhead.json\n");
    return pass ? 0 : 1;
}
