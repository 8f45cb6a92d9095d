/**
 * @file
 * Cover-query evaluation: one BMC engine per pool behind a cross-query
 * memoization cache.
 *
 * The paper leans on JasperGold's proof-grid parallelism to evaluate the
 * thousands of template-instantiated cover properties RTL2MμPATH and
 * SynthLC issue per DUV (§V-B, §VII-B3); this is the reproduction's
 * equivalent. Every cache-missed query runs on the pool's one
 * bmc::Engine, on the calling thread, in submission order: one warm
 * solver learns once what several cold solvers would each re-derive
 * (DESIGN.md §3d). The pool owns no thread; simulation fans out over
 * the process's one worker pool instead (exec/parallel.hh).
 *
 * Determinism: a query's verdict can depend on its engine's history
 * (learned clauses shift which queries exhaust a SAT budget). The one
 * engine sees the queries in submission order whatever the thread
 * count, so verdicts, witnesses and Undetermined tallies are identical
 * for every --jobs value by construction.
 */

#ifndef EXEC_ENGINE_POOL_HH
#define EXEC_ENGINE_POOL_HH

#include <memory>
#include <vector>

#include "bmc/engine.hh"
#include "exec/query_cache.hh"

namespace rmp::exec
{

/** Aggregate pool statistics. */
struct PoolStats
{
    /** Engine stats (solver-evaluated queries only). */
    bmc::EngineStats engine;
    /** SAT solver stats of the engine. */
    sat::SatStats sat;
    /** Instance size of the engine: its unrolling plus its overlay.
     *  Named `coi` only because the benchmark harness reads it
     *  (rmpbench/src/oneshot.cc:68-69,162); rename it with those lines. */
    bmc::CoiStats coi;
    /** Query-cache counters (hits never touch the engine). */
    CacheStats cache;
    /** Verdict-store counters (zero when no store is attached). */
    store::StoreStats store;
    /** 1 once the engine is built, else 0. Named for the removed engine
     *  lanes only because the benchmark harness reads it
     *  (rmpbench/src/oneshot.cc:72,163); rename it with those lines. */
    unsigned lanesBuilt = 0;
};

/**
 * The engine pool. One instance per (design, engine config); both
 * synthesizers own one and submit every BMC query through it.
 *
 * Threading contract: a single orchestrator thread calls eval()/
 * flushStore(). Simulation tasks on other threads may read the design
 * meanwhile.
 */
class EnginePool
{
  public:
    /**
     * @p store is the persistent verdict store (not owned; nullptr =
     * none). When set (and enabled), the pool turns on bmc proof
     * capture, reads through the store on every query-cache miss,
     * writes Reachable/Undetermined verdicts through as they complete,
     * and defers Unreachable-with-proof records until flushStore()
     * serializes the engine's proof context they reference. Verdicts are
     * store-invariant: a store hit replays the identical compressed
     * record a memory hit would.
     */
    EnginePool(const Design &design, const bmc::EngineConfig &engine_cfg,
               store::VerdictStore *store = nullptr);
    ~EnginePool();

    EnginePool(const EnginePool &) = delete;
    EnginePool &operator=(const EnginePool &) = delete;

    /**
     * Evaluate one any-frame cover of @p seq under @p assumes: a cache
     * or store hit, else a solve on the pool's engine, on the calling
     * thread. A repeated query is a cache hit of its first occurrence.
     * The one place that consults the store: memory first, then the
     * store, then the solver; a solved verdict goes into memory and
     * through to the store.
     */
    bmc::CoverResult eval(const prop::ExprRef &seq,
                          const std::vector<prop::ExprRef> &assumes);

    /**
     * Publish all deferred Unreachable-with-proof records: serialize the
     * engine's proof context once (content-addressed, so repeat flushes
     * of a grown context write new bytes and of a stable one dedup),
     * then write the records pointing into it. Called automatically at
     * destruction; callable earlier (the serve daemon flushes on drain).
     */
    void flushStore();

    unsigned bound() const { return engCfg.bound; }
    const Design &design() const { return d; }
    const bmc::EngineConfig &engineConfig() const { return engCfg; }

    PoolStats stats() const;

  private:
    /** One deferred store write awaiting its proof-context blob. */
    struct PendingProof
    {
        QueryKey key;
        std::string keyBytes;
        store::VerdictRecord rec;
    };

    const Design &d;
    bmc::EngineConfig engCfg;
    uint64_t designFp;
    store::VerdictStore *store_ = nullptr;
    std::vector<PendingProof> pendingProofs_;
    /** Built on the first cache miss, never in the constructor, so
     *  set-up does not pay for the unrolling. */
    std::unique_ptr<bmc::Engine> engine_;
    QueryCache cache_;
};

} // namespace rmp::exec

#endif // EXEC_ENGINE_POOL_HH
