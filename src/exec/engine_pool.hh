/**
 * @file
 * Parallel cover-query evaluation: a pool of BMC engine lanes driven by
 * worker threads, with cross-query memoization.
 *
 * The paper leans on JasperGold's proof-grid parallelism to evaluate the
 * thousands of template-instantiated cover properties RTL2MμPATH and
 * SynthLC issue per DUV (§V-B, §VII-B3); this is the reproduction's
 * equivalent. The pool owns a fixed number of engine *lanes* and a
 * configurable number of worker threads that execute queued lane work.
 * Each lane is a private bmc::Engine over the pool's one frozen
 * unrolling of the design, which the lanes share read-only; a lane owns
 * only its solver, its Tseitin map and an overlay AIG for the property
 * logic its queries compile. Queries submitted in one batch
 * are independent by contract and run concurrently, one lane per thread
 * at a time; order-dependent loops (all-SAT blocking-clause enumeration)
 * use the sequential eval() path.
 *
 * Determinism: verdicts must not depend on --jobs. A query's verdict can
 * depend on its engine's history (learned clauses shift which queries
 * exhaust a SAT budget), so the pool fixes the lane count *independently
 * of the thread count* and assigns queries to lanes round-robin in
 * submission order, with all cache decisions made serially on the
 * submitting thread. Every lane therefore sees the same query sequence —
 * and returns the same verdicts, witnesses, and Undetermined tallies —
 * whether the lanes are drained by 1 thread or 16.
 */

#ifndef EXEC_ENGINE_POOL_HH
#define EXEC_ENGINE_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bmc/engine.hh"
#include "exec/query_cache.hh"

namespace rmp::exec
{

/** One cover query: the unit of work submitted to the pool. */
struct Query
{
    prop::ExprRef seq;
    std::vector<prop::ExprRef> assumes;
    /** Start frame; -1 = any frame (Engine::cover vs coverAt). */
    int fixedFrame = -1;
};

/** Pool sizing. */
struct ExecConfig
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;
    /**
     * Engine lanes; 0 = kDefaultLanes. Verdict determinism across --jobs
     * values requires the lane count to NOT depend on jobs — two runs
     * with different lane counts shard query history differently and may
     * disagree on budget-exhaustion (Undetermined) verdicts.
     */
    unsigned lanes = 0;
    /**
     * Persistent verdict store (not owned; nullptr = none). When set
     * (and enabled), the pool turns on bmc proof capture, attaches the
     * store to the query cache for read-through, write-throughs
     * Reachable/Undetermined verdicts as they complete, and defers
     * Unreachable-with-proof records until flushStore() serializes the
     * lane proof contexts they reference. Verdicts are store-invariant:
     * a store hit replays the identical compressed result a memory hit
     * would.
     */
    store::VerdictStore *store = nullptr;
};

/** Aggregate pool statistics. */
struct PoolStats
{
    /** Engine stats merged across lanes (solver-evaluated queries only). */
    bmc::EngineStats engine;
    /** SAT solver stats merged across lanes. */
    sat::SatStats sat;
    /** Instance sizes summed across lanes. Each lane's aigNodes counts
     *  the shared unrolling as well as its own overlay, so the sum counts
     *  the unrolling once per built lane: a size of the lanes' views, not
     *  of memory. Named `coi` only because the benchmark harness reads it
     *  (rmpbench/src/oneshot.cc:68-69,162); rename it with those lines. */
    bmc::CoiStats coi;
    /** Query-cache counters (hits never touch a lane). */
    CacheStats cache;
    /** Verdict-store counters (zero when no store is attached). */
    store::StoreStats store;
    /** Lanes whose engine was actually constructed. */
    unsigned lanesBuilt = 0;
};

/**
 * The engine pool. One instance per (design, engine config); both
 * synthesizers own one and submit every BMC query through it.
 *
 * Threading contract: a single orchestrator thread calls eval()/
 * evalBatch()/parallelFor(); the calls block until the submitted work is
 * complete. Worker threads never submit work themselves.
 */
class EnginePool
{
  public:
    static constexpr unsigned kDefaultLanes = 8;

    EnginePool(const Design &design, const bmc::EngineConfig &engine_cfg,
               const ExecConfig &exec_cfg = {});
    ~EnginePool();

    EnginePool(const EnginePool &) = delete;
    EnginePool &operator=(const EnginePool &) = delete;

    /** Evaluate one query (cache-checked) on the calling thread. */
    bmc::CoverResult eval(const Query &q);

    /**
     * Evaluate a batch of independent queries; results are returned in
     * submission order. Duplicate queries within the batch are solved
     * once (the rest are cache hits).
     */
    std::vector<bmc::CoverResult> evalBatch(const std::vector<Query> &qs);

    /**
     * Generic data parallelism on the same workers (no engines touched):
     * run fn(0..n-1) across the pool. Used for simulation batches. @p fn
     * must only write to index-distinct state.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /**
     * Publish all deferred Unreachable-with-proof records: serialize
     * each referenced lane proof context once (content-addressed, so
     * repeat flushes of a grown context dedup against nothing — a grown
     * context is new bytes, a stable one is a dedup hit), then write the
     * records pointing into it. Called automatically at destruction;
     * callable earlier (the serve daemon flushes on drain). Orchestrator
     * thread only, like eval().
     */
    void flushStore();

    unsigned jobs() const { return jobs_; }
    unsigned lanes() const { return static_cast<unsigned>(lanes_.size()); }
    unsigned bound() const { return engCfg.bound; }
    const Design &design() const { return d; }
    const bmc::EngineConfig &engineConfig() const { return engCfg; }

    PoolStats stats() const;

  private:
    struct Lane
    {
        std::unique_ptr<bmc::Engine> eng;
    };

    /** A deduplicated batch entry routed to one lane. */
    struct Unit
    {
        QueryKey key;
        std::string keyBytes;
        const Query *q = nullptr;
        size_t primary = 0;           ///< result slot filled by the solver
        std::vector<size_t> aliases;  ///< duplicate slots (served as hits)
        unsigned lane = 0;
    };

    bmc::Engine &laneEngine(unsigned lane);
    /** @p submit_ns: submission timestamp for queue-wait attribution
     *  (0 = not queued, e.g. the synchronous eval() path). */
    bmc::CoverResult runOnLane(unsigned lane, const Query &q,
                               const QueryKey &key,
                               const std::string &keyBytes,
                               uint64_t submit_ns = 0);
    void runTasks(std::vector<std::function<void()>> tasks);
    void workerLoop();

    /** One deferred store write awaiting its proof-context blob. */
    struct PendingProof
    {
        unsigned lane = 0;
        QueryKey key;
        std::string keyBytes;
        store::VerdictRecord rec;
    };

    const Design &d;
    bmc::EngineConfig engCfg;
    /** The design unrolled to engCfg.bound frames, shared by every lane.
     *  The first lane built builds it (lanes build concurrently on the
     *  workers); never in the constructor, so set-up stays cheap. */
    std::once_flag unrollOnce_;
    std::shared_ptr<const bmc::Unrolling> unrolling_;
    uint64_t designFp;
    unsigned jobs_ = 1;
    store::VerdictStore *store_ = nullptr;
    /** Guards pendingProofs_ (publish runs on worker threads). */
    std::mutex storeMu_;
    std::vector<PendingProof> pendingProofs_;
    std::vector<Lane> lanes_;
    /** Round-robin lane cursor; advanced once per cache-missed query. */
    uint64_t nextLane = 0;
    QueryCache cache_;

    /** @name Worker machinery (only active when jobs > 1) */
    /// @{
    std::mutex mu;
    std::condition_variable cvWork, cvDone;
    std::deque<std::function<void()>> tasks_;
    size_t pending = 0;
    bool stopping = false;
    std::vector<std::thread> workers;
    /// @}
};

} // namespace rmp::exec

#endif // EXEC_ENGINE_POOL_HH
