#include "designs/driver.hh"

#include "common/logging.hh"
#include "sim/batch.hh"

namespace rmp::designs
{

namespace
{

/** The compiled engine's watch set: everything run()'s own loop and the
 *  trace consumers (arfValue, observationTrace) read. fetchReady comes
 *  first so the driver can poll back-pressure from the recorded frame
 *  (it may be a register, whose raw slot latches ahead of the frame). */
std::vector<SigId>
observationWatch(const Harness &hx)
{
    std::vector<SigId> w;
    const uhb::DuvInfo &info = hx.duv();
    if (info.fetchReady != kNoSig)
        w.push_back(info.fetchReady);
    for (uhb::PlId p = 0; p < hx.numPls(); p++)
        w.push_back(hx.plSig(p).occupied);
    for (SigId r : info.arfRegs)
        w.push_back(r);
    return w;
}

} // anonymous namespace

ProgramDriver::ProgramDriver(const Harness &harness, bool compiled)
    : hx(harness)
{
    if (compiled)
        tape_ = std::make_unique<sim::Tape>(
            sim::compileTape(hx.design(), observationWatch(hx)));
}

SimTrace
ProgramDriver::run(const std::vector<ProgInstr> &prog, unsigned total_cycles,
                   const InputMap &init)
{
    const uhb::DuvInfo &info = hx.duv();
    SigId mark_iuv = hx.design().findByName("hx_mark_iuv");
    SigId mark_txm = hx.design().findByName("hx_mark_txm");
    size_t pos = 0;
    unsigned wait = prog.empty() ? 0 : prog[0].delayBefore;

    if (!tape_) {
        Simulator sim(hx.design());
        sim.reserveTrace(total_cycles);
        for (unsigned t = 0; t < total_cycles; t++) {
            InputMap in;
            if (t == 0)
                in = init;
            bool offering = pos < prog.size() && wait == 0;
            if (offering) {
                in[info.fetchValid] = 1;
                in[info.ifr] = prog[pos].word;
                in[mark_iuv] = prog[pos].markIuv;
                in[mark_txm] = prog[pos].markTxm;
            }
            sim.step(in);
            if (wait > 0) {
                wait--;
            } else if (offering) {
                bool ready = info.fetchReady == kNoSig ||
                             sim.value(info.fetchReady);
                if (ready) {
                    pos++;
                    if (pos < prog.size())
                        wait = prog[pos].delayBefore;
                }
            }
        }
        rmp_assert(pos == prog.size(),
                   "program did not fully issue in %u cycles (%zu/%zu)",
                   total_cycles, pos, prog.size());
        return sim.trace();
    }

    sim::BatchSim bs(*tape_, 1);
    bs.reserveTrace(total_cycles);
    for (unsigned t = 0; t < total_cycles; t++) {
        bs.clearInputs();
        if (t == 0)
            bs.stageInputs(0, init);
        bool offering = pos < prog.size() && wait == 0;
        if (offering) {
            bs.stageInput(0, info.fetchValid, 1);
            bs.stageInput(0, info.ifr, prog[pos].word);
            bs.stageInput(0, mark_iuv, prog[pos].markIuv);
            bs.stageInput(0, mark_txm, prog[pos].markTxm);
        }
        bs.step();
        if (wait > 0) {
            wait--;
        } else if (offering) {
            bool ready = info.fetchReady == kNoSig ||
                         bs.watched(t, 0, 0) != 0;
            if (ready) {
                pos++;
                if (pos < prog.size())
                    wait = prog[pos].delayBefore;
            }
        }
    }
    rmp_assert(pos == prog.size(),
               "program did not fully issue in %u cycles (%zu/%zu)",
               total_cycles, pos, prog.size());
    return bs.laneTrace(0, hx.design().numCells());
}

uint64_t
ProgramDriver::arfValue(const SimTrace &trace, unsigned reg) const
{
    const auto &arf = hx.duv().arfRegs;
    rmp_assert(reg < arf.size(), "ARF index out of range");
    return trace.value(trace.numCycles() - 1, arf[reg]);
}

std::vector<uint64_t>
ProgramDriver::observationTrace(const SimTrace &trace) const
{
    rmp_assert(hx.numPls() <= 64, "too many PLs for a 64-bit observation");
    std::vector<uint64_t> obs;
    obs.reserve(trace.numCycles());
    for (size_t t = 0; t < trace.numCycles(); t++) {
        uint64_t bits = 0;
        for (uhb::PlId p = 0; p < hx.numPls(); p++)
            if (trace.value(t, hx.plSig(p).occupied))
                bits |= 1ULL << p;
        obs.push_back(bits);
    }
    return obs;
}

} // namespace rmp::designs
