#include "designs/driver.hh"

#include "common/logging.hh"

namespace rmp::designs
{

SimTrace
ProgramDriver::run(const std::vector<ProgInstr> &prog, unsigned total_cycles,
                   const InputMap &init)
{
    const uhb::DuvInfo &info = hx.duv();
    SigId mark_iuv = hx.design().findByName("hx_mark_iuv");
    SigId mark_txm = hx.design().findByName("hx_mark_txm");
    size_t pos = 0;
    unsigned wait = prog.empty() ? 0 : prog[0].delayBefore;

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
            bool ready =
                info.fetchReady == kNoSig || sim.value(info.fetchReady);
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
