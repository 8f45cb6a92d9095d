/**
 * @file
 * Persistent content-addressed verdict store (DESIGN.md §3j).
 *
 * The in-memory exec::QueryCache answers repeats within one process; this
 * store extends the same memoization across processes and runs. Keys are
 * the canonical 128-bit query digests the cache already computes
 * (exec::makeQueryKey), with the canonical key bytes stored inside every
 * record and compared on load — a digest collision degrades to a counted
 * miss, never an aliased verdict, exactly mirroring the in-memory cache.
 *
 * A record carries the verdict plus its evidence:
 *  - Reachable: the replayable per-cycle input witness (the same
 *    compressed form exec::CachedResult persists in memory; the full
 *    trace is re-derived by deterministic simulator replay on load);
 *  - Unreachable: a reference into a content-addressed DRAT proof-context
 *    blob — the solver instance's recorded (input CNF, proof log) — plus
 *    the prefix counts and assumption literals that close exactly this
 *    verdict. `rmp store verify` replays every such proof through a
 *    fresh sat::DratChecker, so the store's unsat verdicts remain
 *    independently re-checkable forever;
 *  - Undetermined: the verdict alone (budget exhaustion carries no
 *    evidence), still keyed by the budget via the canonical bytes.
 *
 * Durability and corruption handling are paranoid (common/cachedir
 * provides the atomic publish): records are
 * published by write-to-tmp + fsync + rename, every load re-checks magic,
 * version, length, and checksum, and anything that fails is quarantined
 * (renamed *.corrupt) and counted rather than trusted. Two processes
 * racing on one key both publish valid records; last rename wins.
 */

#ifndef STORE_VERDICT_STORE_HH
#define STORE_VERDICT_STORE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cachedir.hh"
#include "obs/registry.hh"
#include "sat/dimacs.hh"
#include "sat/drat.hh"

namespace rmp::store
{

/** Record format version; bumped on any wire-format change. Records of
 *  other versions are rejected (and quarantined) on load — the store's
 *  stale-fingerprint discipline. */
constexpr uint32_t kStoreVersion = 1;

/**
 * One stored verdict. Mirrors exec::CachedResult (outcome + compressed
 * witness) plus instance-size stats and the proof reference; kept free
 * of bmc types so the store layer sits below exec in the dependency
 * order (outcome values match bmc::Outcome: 0 Reachable, 1 Unreachable,
 * 2 Undetermined).
 */
struct VerdictRecord
{
    uint8_t outcome = 2;
    /** Witness: per-cycle (signal, value) pairs, sorted by signal id
     *  within each cycle (canonical — InputMap iteration order is not). */
    std::vector<std::vector<std::pair<uint32_t, uint64_t>>> inputs;
    uint32_t matchFrame = 0;
    bool hasTrace = false;

    /** @name Solve-time statistics */
    /// @{
    double seconds = 0.0;
    /** Retired: written as 0 and never read. Kept so the record layout
     *  of kStoreVersion 1 stays readable by and from earlier builds. */
    uint32_t coiCells = 0;
    uint64_t aigNodes = 0;
    uint64_t satVars = 0;
    /// @}

    /** @name DRAT proof reference (Unreachable only, when captured) */
    /// @{
    bool hasProof = false;
    /** Content address of the proof-context blob (getBlob). */
    Hash128 proofBlob{};
    /** Input clauses of the context live when the verdict was issued. */
    uint64_t proofInputCount = 0;
    /** Proof steps of the context live when the verdict was issued. */
    uint64_t proofStepCount = 0;
    /** Assumption literals (sat::Lit::x) closing this query's frame. */
    std::vector<int32_t> assumptions;
    /// @}
};

/** Store counter snapshot (monotonic; live counters are obs handles). */
struct StoreStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    /** Digest collisions caught by the canonical-bytes comparison. */
    uint64_t collisions = 0;
    /** Records rejected (bad magic/version/length/checksum) and
     *  quarantined. */
    uint64_t corrupt = 0;
    uint64_t writes = 0;
    uint64_t blobWrites = 0;
    /** putBlob calls satisfied by an already-present blob. */
    uint64_t blobDedups = 0;
};

/** What `rmp store stats` prints. */
struct ScanSummary
{
    uint64_t records = 0;
    uint64_t reachable = 0;
    uint64_t unreachable = 0;
    uint64_t undetermined = 0;
    uint64_t withProof = 0;
    uint64_t corrupt = 0;
    uint64_t blobs = 0;
    uint64_t recordBytes = 0;
    uint64_t blobBytes = 0;
};

/** What `rmp store verify` reports. */
struct VerifySummary
{
    uint64_t records = 0;
    uint64_t corrupt = 0;
    uint64_t proofs = 0;
    uint64_t proofsOk = 0;
    uint64_t proofsFailed = 0;
    uint64_t missingBlobs = 0;
    std::string firstFailure;

    bool ok() const
    {
        return corrupt == 0 && proofsFailed == 0 && missingBlobs == 0;
    }
};

/**
 * Eviction policy for `rmp store gc`. Zero fields are "unbounded"; the
 * default policy only sweeps quarantined/tmp/orphan files, exactly the
 * pre-eviction behavior.
 */
struct GcPolicy
{
    /** Evict oldest-written records until the store's live footprint
     *  (records plus the blobs they reference) fits this budget. */
    uint64_t maxBytes = 0;
    /** Evict records whose file is older than this many seconds. */
    uint64_t maxAgeSeconds = 0;
};

/** What `rmp store gc` removes. */
struct GcSummary
{
    uint64_t corruptRemoved = 0;
    uint64_t tmpRemoved = 0;
    uint64_t orphanBlobsRemoved = 0;
    uint64_t liveRecords = 0;
    uint64_t liveBlobs = 0;
    /** Records evicted by the size/age policy (and their bytes,
     *  including blobs that became orphaned and were swept). */
    uint64_t evictedRecords = 0;
    uint64_t evictedBytes = 0;
};

/**
 * The store. Thread-safe for get/put/putBlob (per-call locking of the
 * counters; file operations are individually atomic). One instance per
 * process is typical (exec::QueryCache holds a pointer), but nothing
 * prevents several — the on-disk format is the coordination point.
 *
 * Concurrency + layout: the on-disk namespace is sharded by the first
 * two hex digits of the digest (records/ab/<hex>.vr, blobs/cd/<hex>.pb)
 * so concurrent writers — multiple daemon workers, or two daemons
 * sharing one root — fan their creates/renames across 256 directories
 * instead of contending on one. Legacy flat files are still read,
 * scanned, verified, and collected.
 *
 * Writes are asynchronous: put()/putBlob() seal the envelope on the
 * calling thread, then hand the publish (fsync + rename) to a single
 * background flusher thread, keeping durability off the solver workers'
 * critical path. Pending writes are visible to same-process get()s
 * immediately; FIFO order guarantees a blob reaches disk before any
 * record that references it. flush() is the drain barrier (the
 * destructor implies it); a process that exits without running
 * destructors (fork + _exit) must flush() explicitly.
 */
class VerdictStore
{
  public:
    /**
     * @p root "" resolves to defaultRoot(). A store whose root cannot be
     * created is disabled: every get misses, every put is a no-op.
     * Every record and blob is fsynced before its rename
     * (fsync-on-commit), so a record may reference its blob immediately
     * after a crash.
     */
    explicit VerdictStore(std::string root = "");
    ~VerdictStore();

    VerdictStore(const VerdictStore &) = delete;
    VerdictStore &operator=(const VerdictStore &) = delete;

    /** $RMP_CACHE_DIR (etc., common/cachedir) + "/store". */
    static std::string defaultRoot();

    bool enabled() const { return !root_.empty(); }
    const std::string &root() const { return root_; }

    /**
     * Look up the record for digest (@p keyLo, @p keyHi); a hit requires
     * the stored canonical bytes to equal @p keyBytes. Corrupt files are
     * quarantined on the spot.
     */
    bool get(uint64_t keyLo, uint64_t keyHi, const std::string &keyBytes,
             VerdictRecord *out);

    /**
     * Publish @p rec under digest (@p keyLo, @p keyHi). If a valid record
     * with different canonical bytes already occupies the digest, the
     * existing record wins (counted collision, returns false) — the disk
     * cannot chain colliding entries the way the in-memory bucket does.
     * Re-putting an identical key is a cheap no-op.
     */
    bool put(uint64_t keyLo, uint64_t keyHi, const std::string &keyBytes,
             const VerdictRecord &rec);

    /**
     * Publish @p bytes as a content-addressed blob; fills @p addr with
     * its address. Dedups: an already-present blob is not rewritten.
     */
    bool putBlob(const std::string &bytes, Hash128 *addr);

    /** Fetch a blob by address, re-checking its envelope. */
    bool getBlob(const Hash128 &addr, std::string *out) const;

    StoreStats stats() const;

    /**
     * Block until every write handed to the background flusher has been
     * published (fsync + rename complete). Idempotent; cheap when the
     * queue is empty.
     */
    void flush();

    /** Walk every record/blob and tally (quarantines corrupt records). */
    ScanSummary scan();

    /**
     * Re-check the store: every record must parse, and every proof-
     * carrying record's DRAT prefix must close its verdict through a
     * checker of its own context (checkProofs: each blob is parsed once
     * and its records share replays). This is the external auditor's
     * entry point — it shares no state with the solver that produced
     * the proofs.
     */
    VerifySummary verify();

    /**
     * Remove quarantined records, stray tmp files, and orphan blobs;
     * then apply @p policy: age eviction first, then oldest-first size
     * eviction until the live footprint fits the byte budget. Evicted
     * records orphan their blobs, which the same pass sweeps.
     */
    GcSummary gc(const GcPolicy &policy = {});

    /** @name Proof-context blob codec
     * A context is one solver instance's cumulative (input CNF, DRAT
     * log) as recorded by sat::DratLogRecorder; records reference a
     * prefix of it. The envelope carries magic/version/length/checksum
     * like records. */
    /// @{
    static std::string serializeProofContext(const sat::Cnf &inputs,
                                             const sat::DratLog &log);
    static bool parseProofContext(const std::string &bytes,
                                  sat::Cnf *inputs, sat::DratLog *log);
    /// @}

    /**
     * Replay @p rec's proof prefix over context (@p inputs, @p log)
     * through a fresh sat::DratChecker: feed the first proofInputCount
     * input clauses and first proofStepCount steps, require every
     * addition RUP (ok()) and the assumptions to close the refutation
     * (checkUnsat). @p why receives the first failure when non-null.
     * The one-record case of checkProofs().
     */
    static bool checkProof(const sat::Cnf &inputs, const sat::DratLog &log,
                           const VerdictRecord &rec,
                           std::string *why = nullptr);

    /**
     * checkProof() for every record of @p recs, all referencing context
     * (@p inputs, @p log), with nested prefixes sharing one replay.
     * Returns one failure message per record ("" = proof OK).
     */
    static std::vector<std::string>
    checkProofs(const sat::Cnf &inputs, const sat::DratLog &log,
                const std::vector<const VerdictRecord *> &recs);

    /** @name On-disk paths (exposed for tests) */
    /// @{
    std::string recordPath(uint64_t keyLo, uint64_t keyHi) const;
    std::string blobPath(const Hash128 &addr) const;
    /// @}

    /** Serialize / parse one record (exposed for tests; parse re-checks
     *  the envelope and returns false on any mismatch). */
    static std::string serializeRecord(const std::string &keyBytes,
                                       const VerdictRecord &rec);
    static bool parseRecord(const std::string &bytes, std::string *keyBytes,
                            VerdictRecord *rec);

  private:
    VerdictStore(std::string root, const obs::Labels &labels);

    /** Load + envelope-check the record file at @p path; quarantines and
     *  counts on corruption. Returns false if absent or rejected. */
    bool loadRecord(const std::string &path, std::string *keyBytes,
                    VerdictRecord *rec, uint64_t *bytes = nullptr);
    void quarantine(const std::string &path);

    /** Hand a sealed file to the background flusher (FIFO). Blocks when
     *  the queue is at capacity (bounded backpressure). */
    void enqueueWrite(std::string path, std::string bytes);
    /** The pending (not yet published) bytes for @p path, if any. */
    std::shared_ptr<const std::string> pendingBytes(
        const std::string &path) const;
    void flusherMain();

    std::string root_;    ///< "" = disabled
    std::string records_; ///< root_/records
    std::string blobs_;   ///< root_/blobs

    /** @name Background flusher (started when the store is enabled) */
    /// @{
    static constexpr size_t kMaxQueuedWrites = 4096;
    struct WriteOp
    {
        std::string path;
        std::shared_ptr<const std::string> bytes;
    };
    mutable std::mutex qmu_;
    std::condition_variable qcv_;     ///< flusher: work available / stop
    std::condition_variable qspace_;  ///< producers: space / drained
    std::deque<WriteOp> queue_;
    /** path -> sealed bytes for every write not yet published; read by
     *  get()/getBlob()/put() so queued writes are immediately visible. */
    std::unordered_map<std::string, std::shared_ptr<const std::string>>
        pending_;
    bool qstop_ = false;
    std::thread flusher_;
    /// @}
    obs::Counter &hits_;
    obs::Counter &misses_;
    obs::Counter &collisions_;
    obs::Counter &corrupt_;
    obs::Counter &writes_;
    obs::Counter &blobWrites_;
    obs::Counter &blobDedups_;
};

} // namespace rmp::store

#endif // STORE_VERDICT_STORE_HH
