/**
 * @file
 * google-benchmark microbenchmarks for the substrate components: the
 * simulator's cycle throughput, the bit-blaster, SAT solving on the
 * unrolled MiniCVA, and IFT instrumentation — the per-property cost
 * drivers behind the §VII-B3 numbers.
 */

#include <benchmark/benchmark.h>

#include "bmc/engine.hh"
#include "designs/mcva.hh"
#include "designs/tiny3.hh"
#include "ift/instrument.hh"
#include "rtlir/builder.hh"
#include "sim/simulator.hh"

using namespace rmp;
using namespace rmp::designs;

namespace
{

const Harness &
mcvaHarness()
{
    static Harness hx(buildMcva());
    return hx;
}

void
BM_SimulatorCycle(benchmark::State &state)
{
    const Harness &hx = mcvaHarness();
    Simulator sim(hx.design());
    sim.setRecording(false);
    const auto &info = hx.duv();
    InputMap in{{info.fetchValid, 1},
                {info.ifr, info.encode("ADDI", 1, 0, 0, 3)}};
    for (auto _ : state)
        sim.step(in);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorCycle);

void
BM_UnrollFrame(benchmark::State &state)
{
    const Harness &hx = mcvaHarness();
    for (auto _ : state) {
        bmc::Unrolling u(hx.design(), static_cast<unsigned>(state.range(0)));
        benchmark::DoNotOptimize(u.aig().numAnds());
    }
}
BENCHMARK(BM_UnrollFrame)->Arg(4)->Arg(12)->Arg(24);

void
BM_CoverQueryReachable(benchmark::State &state)
{
    const Harness &hx = mcvaHarness();
    bmc::EngineConfig cfg;
    cfg.bound = 16;
    bmc::Engine eng(hx.design(), cfg);
    auto assumes = hx.baseAssumes();
    // Repeated incremental reachable cover (PL occupancy).
    for (auto _ : state) {
        auto r = eng.cover(prop::pBit(hx.plSig(0).occupied), assumes);
        benchmark::DoNotOptimize(r.outcome);
    }
}
BENCHMARK(BM_CoverQueryReachable)->Unit(benchmark::kMillisecond);

void
BM_IftInstrument(benchmark::State &state)
{
    const Harness &hx = mcvaHarness();
    // The instrumentation SynthLC runs (ARF, AMEM and persistent regs).
    const ift::IftConfig cfg = *hx.iftConfig();
    for (auto _ : state) {
        auto inst = ift::instrument(hx.design(), cfg);
        benchmark::DoNotOptimize(inst.design->numCells());
    }
    state.SetLabel("cells x" +
                   std::to_string(hx.design().stats().cells));
}
BENCHMARK(BM_IftInstrument)->Unit(benchmark::kMillisecond);

void
BM_HarnessConstruction(benchmark::State &state)
{
    for (auto _ : state) {
        Harness hx(buildTiny3());
        benchmark::DoNotOptimize(hx.numPls());
    }
}
BENCHMARK(BM_HarnessConstruction)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
