/**
 * @file
 * Paper-style report rendering: the Fig. 8 leakage-signature matrix, the
 * Table II metadata summary, property-evaluation statistics (§VII-B3),
 * and μPATH figure rendering helpers used by the benches and examples.
 */

#ifndef REPORT_REPORT_HH
#define REPORT_REPORT_HH

#include <string>
#include <vector>

#include "contracts/contracts.hh"
#include "exec/engine_pool.hh"
#include "rtl2mupath/synth.hh"
#include "synthlc/synthlc.hh"

namespace rmp::report
{

/**
 * Render the Fig. 8-style matrix: transponder classes (columns) x typed
 * transmitter inputs (rows, with rs1/rs2 sub-rows), with each column's
 * leakage-signature output-range size.
 */
std::string renderFig8Matrix(const ct::AnalysisDb &db);

/**
 * Render the Table II metadata summary for a harnessed DUV, next to the
 * paper's CVA6 numbers for comparison.
 */
std::string renderTableII(const designs::Harness &hx);

/** Render §VII-B3-style property-evaluation statistics. */
std::string renderStepStats(const std::vector<r2m::StepStats> &steps,
                            const slc::SynthLcStats *synthlc = nullptr);

/**
 * Render the global obs::Registry as a text table: one row per
 * (metric, labels) pair, with count/sum/max/mean columns for histograms.
 * Empty string when the registry holds no samples.
 */
std::string renderObsStats();

/**
 * Build the `--stats --json` run summary: a flat JSON object in the
 * BENCH_*.json schema ("bench" key first, scalars after), nesting the
 * pool statistics under "pool" exactly as the bench reporters do and the
 * registry metrics under "metrics" (one key per metric/label pair;
 * histograms expand to .count/.sum/.max).
 *
 * @p bench  the run's identifier (e.g. "rmp-synth").
 * @p design the DUV name.
 * @p wall_seconds end-to-end wall-clock time of the run.
 * @p pool   the engine pool's aggregate statistics, or nullptr when the
 *           command ran no pool.
 */
std::string runSummaryJson(const std::string &bench,
                           const std::string &design, double wall_seconds,
                           const exec::PoolStats *pool);

/** Render all μPATHs of one instruction with figure-style headers. */
std::string renderInstrPaths(const designs::Harness &hx,
                             const uhb::InstrPaths &paths);

/**
 * Render a whole synthesizeAll result deterministically: per instruction
 * (in @p ids order) a `=== name ===` header, the μPATHs, and the decision
 * summary. No timings, no statistics — the output depends only on the
 * synthesized verdicts, so any two runs that agree (CLI vs daemon, cold
 * vs warm cache) produce bit-identical bytes. The serve CI job diffs
 * exactly this artifact.
 */
std::string renderSynthAll(const designs::Harness &hx,
                           const std::vector<uhb::InstrId> &ids,
                           const std::map<uhb::InstrId, uhb::InstrPaths>
                               &all);

/** Summarize a decision list in §IV-B notation. */
std::string renderDecisions(const designs::Harness &hx,
                            const uhb::InstrPaths &paths);

} // namespace rmp::report

#endif // REPORT_REPORT_HH
