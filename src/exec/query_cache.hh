/**
 * @file
 * Cross-query memoization of BMC cover results.
 *
 * RTL2MμPATH and SynthLC instantiate the same property templates over and
 * over — across pipeline steps, across IUVs, and across candidate sets —
 * so the same (design, bound, budget, sequence, assumes, fixed-frame)
 * query recurs many times per run. The QueryCache memoizes each verdict
 * (outcome + replayable witness) under the query's canonical key bytes,
 * which cover the complete semantic input of a query, so a repeat is
 * answered without touching a solver.
 *
 * Soundness: the key covers every input that can influence the verdict —
 * the design fingerprint, the unrolling bound, the per-query SAT budget
 * (budgets decide Undetermined outcomes), the structure of the cover
 * sequence DAG, the multiset of assumes (conjunction is order-
 * insensitive, so the assume serializations are sorted), and the fixed
 * start frame. A cached Reachable witness was simulator-replayed when
 * first computed and stays valid because the design is immutable. The
 * 128-bit digest of the same inputs (makeQueryKey) only names the
 * persistent store's files (store::VerdictStore).
 */

#ifndef EXEC_QUERY_CACHE_HH
#define EXEC_QUERY_CACHE_HH

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bmc/engine.hh"
#include "obs/registry.hh"
#include "prop/property.hh"
#include "store/verdict_store.hh"

namespace rmp::exec
{

/** Canonical 128-bit digest of one cover query: the name of its
 *  verdict-store record. */
struct QueryKey
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool
    operator==(const QueryKey &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
};

/**
 * Build the canonical digest for one query.
 *
 * @p design_fp is the structural fingerprint of the design the engine
 * unrolls (designFingerprint()); @p fixed_frame is -1 for any-frame
 * covers (bmc::Engine::cover), the only kind EnginePool issues. The slot
 * stays in the key so stores written by earlier builds keep hitting.
 */
QueryKey makeQueryKey(uint64_t design_fp, const bmc::EngineConfig &cfg,
                      const prop::ExprRef &seq,
                      const std::vector<prop::ExprRef> &assumes,
                      int fixed_frame);

/**
 * Canonical byte serialization of the same semantic inputs makeQueryKey
 * digests. prop::serializeExpr is injective on structure, so equal bytes
 * mean an equal query: the in-memory cache is keyed by these bytes. The
 * 128-bit QueryKey is itself a hash, so two distinct queries CAN collide
 * on it; the store therefore keeps these bytes inside each record and
 * compares them on load, so a digest collision degrades to a counted
 * miss (`store.collisions`) instead of a wrong verdict. Assume
 * serializations are sorted before joining, mirroring the key's
 * order-insensitive conjunction hashing.
 */
std::string makeQueryKeyBytes(uint64_t design_fp,
                              const bmc::EngineConfig &cfg,
                              const prop::ExprRef &seq,
                              const std::vector<prop::ExprRef> &assumes,
                              int fixed_frame);

/** Structural fingerprint of a Design (cells, widths, connectivity). */
uint64_t designFingerprint(const Design &d);

/**
 * Cache counter snapshot (monotonic; read via EnginePool::stats). The
 * live counters are obs::Counter instances in the global metrics
 * registry, labeled `cache=<instance>` so concurrent pools (e.g. the
 * jobs=1 vs jobs=4 runs of bench_perf_properties) stay individually
 * exact; this struct is the point-in-time copy handed to reports.
 */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t entries = 0;
};

/**
 * Compress a completed CoverResult into its memoized form, in memory and
 * on disk alike: a Reachable witness keeps only its replayable per-cycle
 * inputs, canonicalized by sorting on signal id (InputMap iteration
 * order is not deterministic), not the full all-signals trace (a trace
 * is cells x bound x 8 bytes — megabytes on the core DUV — while the
 * inputs are a few KB). Proof prefix counts and assumptions are copied
 * from CoverResult::proof. The proof *blob address* is left unset — the
 * EnginePool fills it when it flushes its engine's proof context
 * (EnginePool::flushStore).
 */
store::VerdictRecord toStoreRecord(const bmc::CoverResult &r);

/**
 * Reconstruct the full CoverResult, re-deriving a Reachable witness's
 * trace by deterministic simulator replay on @p d — exactly how the
 * engine produced the original trace during witness validation
 * (VerdictStoreIntegration.WitnessTraceSameFromSolverCacheAndStore).
 */
bmc::CoverResult expandResult(const store::VerdictRecord &rec,
                              const Design &d);

/**
 * Thread-safe memoization table: canonical key bytes
 * (makeQueryKeyBytes) -> verdict record. get()/put() are individually
 * locked, so the cache is safe to share; the EnginePool makes every
 * get() and put() on its orchestrating thread, in submission order. The
 * hit/miss/entry counters are lock-free obs::Counter handles owned by
 * the global metrics registry (labeled per cache instance), updated
 * outside the map mutex.
 */
class QueryCache
{
  public:
    QueryCache();

    /** Look up @p keyBytes; returns true and fills @p out on a hit. */
    bool get(const std::string &keyBytes, store::VerdictRecord *out);

    /** Memoize @p rec under @p keyBytes; an existing entry stays. */
    void put(std::string keyBytes, store::VerdictRecord rec);

    CacheStats stats() const;

  private:
    explicit QueryCache(const obs::Labels &labels);

    mutable std::mutex mu;
    std::unordered_map<std::string, store::VerdictRecord> map;
    obs::Counter &hits_;
    obs::Counter &misses_;
    obs::Counter &entries_;
};

} // namespace rmp::exec

#endif // EXEC_QUERY_CACHE_HH
