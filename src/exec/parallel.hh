/**
 * @file
 * The process's one worker pool, behind one call: parallelFor().
 *
 * Simulation is the only parallel work left (cover queries run on their
 * engine pool's one engine, on the calling thread; DESIGN.md §3d):
 * exploration's batches and SynthLC's taint-simulation batches fan out
 * here, at their config's `jobs` width. Every synthesizer, SynthLC
 * instance and daemon job shares the same threads, so the process runs
 * at most its callers (the CLI thread, or the daemon's job workers)
 * plus hardware_concurrency() - 1 compute threads, however many engine
 * pools or warm daemon entries exist.
 *
 * The pool holds max(1, hardware_concurrency()) - 1 threads. They start
 * on the first call that fans out, so a process that never does (a
 * `--jobs 1` run, or set-up alone) starts none, and the pool is never
 * resized. fork() joins them first and the next fan-out on either side
 * restarts them, so a child never inherits a pool whose threads it
 * does not have.
 *
 * The caller runs indices itself and borrows idle pool threads for the
 * rest; it never waits for a thread to come free. So a nested call, or
 * a call made while another job's batch holds every pool thread, still
 * completes — on the caller alone if need be.
 */

#ifndef EXEC_PARALLEL_HH
#define EXEC_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace rmp::exec
{

/** The threads a call at @p width may use, counting the caller: @p width
 *  (0 = hardware concurrency), at most the hardware's threads. */
unsigned fanOutWidth(unsigned width);

/**
 * Run fn(0..n-1), each index exactly once, on the calling thread and up
 * to min(fanOutWidth(width), n) - 1 pool threads; return once every
 * index has run. @p fn must write only index-distinct state. The pool
 * threads run with the caller's thread-local progress sink installed
 * (obs::threadProgressSink()), so a daemon job's streaming progress
 * reaches its client from every thread of its fan-out.
 */
void parallelFor(size_t n, unsigned width,
                 const std::function<void(size_t)> &fn);

} // namespace rmp::exec

#endif // EXEC_PARALLEL_HH
