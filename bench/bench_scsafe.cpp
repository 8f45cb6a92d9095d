/**
 * @file
 * Definition V.1 (SC-Safe) experiment: run the same program under two
 * low-equivalent initial architectural states (they differ only in a
 * secret register) and compare the R_μPATH observation traces (per-cycle
 * PL occupancy, §V-C2).
 *
 * The transmitters flagged by SynthLC predict exactly which programs
 * violate SC-Safety: a DIV on a secret distinguishes the traces (its
 * latency is dividend-dependent), while an XOR on the same secret does
 * not. The exit code is 1 when any program's traces differ (or match)
 * against its expected classification.
 */

#include "bench/bench_util.hh"
#include "designs/driver.hh"
#include "designs/mcva.hh"

using namespace rmp;
using namespace rmp::bench;
using namespace rmp::designs;

namespace
{

/** Run @p prog with r1 seeded to @p secret via the symbolic-init input
 *  and return the observation trace. */
std::vector<uint64_t>
observe(const Harness &hx, ProgramDriver &drv,
        const std::vector<ProgInstr> &prog, uint64_t secret)
{
    SigId init_r1 = hx.design().findByName("arf_init1");
    InputMap init{{init_r1, secret}};
    return drv.observationTrace(drv.run(prog, 50, init));
}

} // namespace

int
main()
{
    banner("Definition V.1 — SC-Safe observation-trace experiment");
    Harness hx(buildMcva());
    const auto &info = hx.duv();

    struct Case
    {
        const char *name;
        std::vector<ProgInstr> prog;
        bool expect_violation;
        uint64_t s1 = 5, s2 = 128;
    };
    std::vector<Case> cases = {
        {"DIV r2, r1, r3 (secret dividend)",
         {{info.encode("ADDI", 3, 0, 0, 3)}, {info.encode("DIV", 2, 1, 3)}},
         true},
        {"XOR r2, r1, r1 (secret through a fixed-latency op)",
         {{info.encode("XOR", 2, 1, 1)}},
         false},
        {"SW to secret-independent address",
         {{info.encode("SW", 0, 0, 1, 2)}, {info.encode("LW", 2, 0, 0, 2)}},
         false},
        {"BEQ on secret (secret-dependent squash)",
         {{info.encode("BEQ", 0, 1, 0, 0)}, {info.encode("ADDI", 2, 0, 0, 1)}},
         true, 0, 5}, // taken iff the secret register equals r0 (= 0)
    };

    ProgramDriver drv(hx);
    int violations = 0;
    int mismatches = 0;
    for (const auto &c : cases) {
        auto o1 = observe(hx, drv, c.prog, c.s1);
        auto o2 = observe(hx, drv, c.prog, c.s2);
        bool differs = o1 != o2;
        violations += differs;
        mismatches += differs != c.expect_violation;
        std::printf("  %-48s low-equiv traces %s  (expected %s)%s\n",
                    c.name, differs ? "DIFFER " : "match  ",
                    c.expect_violation ? "violation" : "safe",
                    differs == c.expect_violation ? "" : "  <-- MISMATCH");
    }
    paperNote("Eq. V.1 violations are exactly the executions leakage "
              "signatures must account for (§V-C2)",
              std::to_string(violations) +
                  "/4 programs violate SC-Safety, matching the "
                  "transmitter classification (DIV and branches leak; "
                  "fixed-latency ALU ops and safe-address stores do not)");
    if (mismatches != 0) {
        std::printf("  FAIL: %d program(s) classified against their "
                    "expected SC-Safety\n",
                    mismatches);
        return 1;
    }
    return 0;
}
