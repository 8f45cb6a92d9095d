/**
 * @file
 * rmpbench — the benchmark harness run.py drives, one process per job:
 *
 *   rmpbench oneshot mcva-synth|contracts-tiny --seed N
 *            [--setup-only] [--obs] [--audit] [--spans F] [--trace-out F]
 *   rmpbench daemon --rmp PATH --dir DIR --seed N --seconds S
 *            [--min-passes N] [--obs] [--check-all] [--spans F]
 *
 * Each prints one JSON line of raw measurements; run.py turns them into
 * metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "daemon.hh"
#include "oneshot.hh"

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: rmpbench oneshot <workload> --seed N [--setup-only]"
                 " [--obs] [--audit] [--spans F] [--trace-out F]\n"
                 "       rmpbench daemon --rmp PATH --dir DIR --seed N"
                 " --seconds S [--min-passes N] [--obs] [--check-all]"
                 " [--spans F]\n");
    std::exit(2);
}

uint64_t
number(const char *s)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end)
        usage();
    return v;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string cmd = argv[1];
    if (cmd == "oneshot" && argc >= 3) {
        rmpbench::OneshotArgs a;
        a.workload = argv[2];
        for (int i = 3; i < argc; i++) {
            std::string f = argv[i];
            bool more = i + 1 < argc;
            if (f == "--seed" && more)
                a.seed = number(argv[++i]);
            else if (f == "--setup-only")
                a.setupOnly = true;
            else if (f == "--obs")
                a.obs = true;
            else if (f == "--audit")
                a.audit = true;
            else if (f == "--spans" && more)
                a.spansOut = argv[++i];
            else if (f == "--trace-out" && more)
                a.traceOut = argv[++i];
            else
                usage();
        }
        return rmpbench::runOneshot(a);
    }
    if (cmd == "daemon") {
        rmpbench::DaemonArgs a;
        for (int i = 2; i < argc; i++) {
            std::string f = argv[i];
            bool more = i + 1 < argc;
            if (f == "--rmp" && more)
                a.rmp = argv[++i];
            else if (f == "--dir" && more)
                a.dir = argv[++i];
            else if (f == "--seed" && more)
                a.seed = number(argv[++i]);
            else if (f == "--seconds" && more)
                a.seconds = static_cast<double>(number(argv[++i]));
            else if (f == "--min-passes" && more)
                a.minPasses = static_cast<unsigned>(number(argv[++i]));
            else if (f == "--obs")
                a.obs = true;
            else if (f == "--check-all")
                a.checkAll = true;
            else if (f == "--spans" && more)
                a.spansOut = argv[++i];
            else
                usage();
        }
        if (a.rmp.empty() || a.dir.empty() || a.minPasses == 0)
            usage();
        return rmpbench::runDaemon(a);
    }
    usage();
}
