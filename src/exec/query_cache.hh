/**
 * @file
 * Cross-query memoization of BMC cover results.
 *
 * RTL2MμPATH and SynthLC instantiate the same property templates over and
 * over — across pipeline steps, across IUVs, and across candidate sets —
 * so the same (design, bound, budget, sequence, assumes, fixed-frame)
 * query recurs many times per run. The QueryCache memoizes the full
 * CoverResult (verdict + replay-validated witness) under a canonical
 * 128-bit key covering the complete semantic input of a query, so a
 * repeat is answered without touching a solver.
 *
 * Soundness: the key includes every input that can influence the verdict —
 * the design fingerprint, the unrolling bound, the per-query SAT budget
 * (budgets decide Undetermined outcomes), the structural hash of the
 * cover sequence DAG, the multiset of assume hashes (conjunction is
 * order-insensitive, so the per-assume hashes are sorted before mixing),
 * and the fixed start frame. A cached Reachable witness was
 * simulator-replayed when first computed and stays valid because the
 * design is immutable.
 */

#ifndef EXEC_QUERY_CACHE_HH
#define EXEC_QUERY_CACHE_HH

#include <mutex>
#include <unordered_map>
#include <vector>

#include "bmc/engine.hh"
#include "obs/registry.hh"
#include "prop/property.hh"
#include "store/verdict_store.hh"

namespace rmp::exec
{

/** Canonical 128-bit key of one cover query. */
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

struct QueryKeyHash
{
    size_t operator()(const QueryKey &k) const { return k.lo; }
};

/**
 * Build the canonical key for one query.
 *
 * @p design_fp is the structural fingerprint of the design the engine
 * unrolls (designFingerprint()); @p fixed_frame is -1 for any-frame
 * covers, matching bmc::Engine::cover vs coverAt.
 */
QueryKey makeQueryKey(uint64_t design_fp, const bmc::EngineConfig &cfg,
                      const prop::ExprRef &seq,
                      const std::vector<prop::ExprRef> &assumes,
                      int fixed_frame);

/**
 * Canonical byte serialization of the same semantic inputs makeQueryKey
 * digests. The 128-bit QueryKey is itself a hash, so two distinct
 * queries CAN collide on it — astronomically unlikely, but a silent
 * collision would alias one query's verdict to another, the worst
 * possible cache failure. The cache therefore stores these bytes
 * alongside each entry and compares them on lookup: a digest collision
 * degrades to a counted miss (`exec.cache.collisions`) instead of a
 * wrong verdict. Assume serializations are sorted before joining,
 * mirroring the key's order-insensitive conjunction hashing.
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
    /** Digest collisions caught by the canonical-bytes comparison. */
    uint64_t collisions = 0;
};

/**
 * A CoverResult in its stored form: a Reachable witness keeps only its
 * replayable per-cycle inputs, not the full all-signals trace (a trace is
 * cells x bound x 8 bytes — megabytes on the core DUV — while the inputs
 * are a few KB). expandResult() re-derives the identical trace by
 * deterministic simulator replay, which is exactly how the engine
 * produced the original trace during witness validation
 * (VerdictStoreIntegration.WitnessTraceSameFromSolverCacheAndStore).
 */
struct CachedResult
{
    bmc::Outcome outcome = bmc::Outcome::Undetermined;
    std::vector<InputMap> inputs;
    unsigned matchFrame = 0;
    bool hasTrace = false;
};

/** Compress a CoverResult for storage. */
CachedResult compressResult(const bmc::CoverResult &r);

/** Reconstruct the full CoverResult (replaying the witness on @p d). */
bmc::CoverResult expandResult(const CachedResult &c, const Design &d);

/**
 * Convert a completed CoverResult into its persistent form: witness
 * cycles canonicalized by sorting on signal id (InputMap iteration order
 * is not deterministic), proof prefix counts and assumptions copied from
 * CoverResult::proof. The proof *blob address* is left unset — the
 * EnginePool fills it when it flushes its engine's proof context
 * (EnginePool::flushStore).
 */
store::VerdictRecord toStoreRecord(const bmc::CoverResult &r);

/** Rebuild the in-memory cached form from a stored record. */
CachedResult fromStoreRecord(const store::VerdictRecord &rec);

/**
 * Thread-safe memoization table: QueryKey -> CachedResult, with the
 * query's canonical bytes (makeQueryKeyBytes) stored per entry and
 * compared on every lookup, so a 128-bit digest collision is detected
 * (and counted) rather than silently aliasing one query's verdict to
 * another. Colliding queries coexist in one digest bucket.
 *
 * get()/put() are individually locked, so the cache is safe to share;
 * the EnginePool makes every get() and put() on its orchestrating
 * thread, in submission order. The hit/miss/entry/collision counters
 * are lock-free obs::Counter handles owned by the global metrics
 * registry (labeled per cache instance), updated outside the map
 * mutex.
 */
class QueryCache
{
  public:
    QueryCache();

    /**
     * Look up @p key; returns true and fills @p out on a hit. A hit
     * additionally requires @p keyBytes to match the stored entry's
     * canonical bytes.
     */
    bool get(const QueryKey &key, const std::string &keyBytes,
             CachedResult *out);

    /** Publish the result of a completed query. */
    void put(const QueryKey &key, const std::string &keyBytes,
             const bmc::CoverResult &result);

    /**
     * Attach a persistent verdict store (nullptr to detach): get()
     * misses fall through to a store lookup, and a store hit is promoted
     * into the in-memory map so later repeats never touch disk. Write-
     * through is the EnginePool's job (it owns the proof contexts the
     * records reference). The cache never owns the store.
     */
    void attachStore(store::VerdictStore *s) { store_ = s; }
    store::VerdictStore *attachedStore() const { return store_; }

    CacheStats stats() const;

  private:
    explicit QueryCache(const obs::Labels &labels);

    /** Entries sharing one 128-bit digest (almost always exactly one). */
    struct Entry
    {
        std::string keyBytes;
        CachedResult res;
    };

    /** Insert an already-compressed result (store promotion path). */
    void insert(const QueryKey &key, const std::string &keyBytes,
                CachedResult res);

    mutable std::mutex mu;
    std::unordered_map<QueryKey, std::vector<Entry>, QueryKeyHash> map;
    store::VerdictStore *store_ = nullptr;
    obs::Counter &hits_;
    obs::Counter &misses_;
    obs::Counter &entries_;
    obs::Counter &collisions_;
};

} // namespace rmp::exec

#endif // EXEC_QUERY_CACHE_HH
