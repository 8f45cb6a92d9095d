/**
 * @file
 * The daemon-mix workload: a closed-loop request stream against a fresh
 * `rmp serve` child over its NDJSON socket (see daemon.cc).
 */

#ifndef RMPBENCH_DAEMON_HH
#define RMPBENCH_DAEMON_HH

#include <cstdint>
#include <string>

namespace rmpbench
{

struct DaemonArgs
{
    std::string rmp;        ///< the rmp binary to start as `rmp serve`
    std::string dir;        ///< fresh work directory (socket, stores)
    uint64_t seed = 1;      ///< request-stream seed
    double seconds = 0;     ///< keep starting passes while they fit
    unsigned minPasses = 3; ///< passes run regardless of seconds
    bool obs = false;       ///< start the daemon with --trace
    bool checkAll = false;  ///< re-render every owned key in-process
    std::string spansOut;   ///< write the harness spans here
};

/** Run the workload; prints one JSON line. Returns the exit code. */
int runDaemon(const DaemonArgs &a);

} // namespace rmpbench

#endif // RMPBENCH_DAEMON_HH
