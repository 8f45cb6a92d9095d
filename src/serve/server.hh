/**
 * @file
 * The rmp daemon: a long-lived analysis server over a Unix socket.
 *
 * One-shot CLI runs pay elaboration, harness construction, compiled-tape
 * building, and solver warm-up on every invocation; the daemon pays them
 * once and keeps the results warm. Clients speak newline-delimited JSON
 * (one request object per line, one response object per line):
 *
 *   {"id":1,"op":"synth","duv":"mcva","opts":{"closure":true},"priority":2}
 *   {"id":1,"ok":true,"op":"synth","duv":"mcva", ...}
 *
 * Ops: ping, synth, prove (= synth with the closure queries), lint,
 * analyze, stats, cancel, shutdown. Heavy ops (synth/prove/lint/analyze)
 * are routed to a pool of worker threads (--workers, default
 * hardware_concurrency) by hashing the job's (DUV, config-fingerprint)
 * key: the same key always lands on the same worker, so each key's
 * request stream is drained serially in priority/FIFO order — exactly
 * the single-worker daemon's schedule restricted to that key — and its
 * verdicts and renders stay byte-identical at any worker count, while
 * distinct keys run truly concurrently. Each worker holds its own
 * bounded priority queue (maxQueue is per worker; a full queue rejects
 * with "queue full", the backpressure signal) and its own warm-registry
 * shard; queued (not yet running) jobs can be cancelled by the
 * connection that submitted them. A job's cover queries run on its
 * pool's one engine, on the job's worker thread; its simulation fans
 * out over the process's one worker pool (exec::parallelFor) at
 * --jobs width, so N concurrent jobs share hardware_concurrency() - 1
 * pool threads and a warm entry holds no thread of its own. A heavy
 * request is checked before it is queued: a
 * non-integral or out-of-range priority, or a synth/prove option that
 * is unknown or of the wrong type, gets an error reply naming the key.
 *
 * Warm state is a registry keyed by (duv, synthesis-config fingerprint):
 * the harnessed design plus its MuPathSynthesizer, whose engine pool —
 * its one warm BMC engine and its query cache — carries across
 * requests.
 * Because routing hashes the same key, a registry entry lives on
 * exactly one worker and is touched by no other thread. A repeated
 * synth therefore answers from the in-memory query cache; across daemon
 * restarts the persistent verdict store (store::VerdictStore, when
 * enabled) provides the same continuity on disk.
 *
 * A request carrying "progress":true receives streaming NDJSON progress
 * events — {"event":"progress","id":...,"op":...,"phase":...,
 * "done":...,"total":...,"detail":...} — interleaved on its connection
 * before the final reply (which has no "event" field). Events are
 * rate-limited per job; lock-step clients that never ask for progress
 * see the protocol unchanged.
 *
 * SIGTERM/SIGINT (and the shutdown op) drain gracefully: stop accepting,
 * let every worker's running job finish, answer still-queued jobs with
 * an error, then tear down each worker's registry shard on the run()
 * thread — which flushes every pool's pending unsat proofs to the
 * store exactly once — before run() returns.
 */

#ifndef SERVE_SERVER_HH
#define SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "designs/harness.hh"
#include "obs/registry.hh"
#include "rtl2mupath/synth.hh"
#include "serve/json.hh"
#include "store/verdict_store.hh"

namespace rmp::serve
{

/** Daemon configuration. */
struct ServeConfig
{
    /** Path to bind the Unix socket at (replaced if it exists). */
    std::string socketPath;
    /** Job worker threads; jobs are hashed to a worker by their
     *  (DUV, config-fingerprint) key (0 = hardware_concurrency). */
    unsigned workers = 0;
    /** Per-worker queue bound: further heavy requests hashed to a full
     *  worker are rejected ("queue full"). `rmp serve --max-queue`
     *  accepts 1 and up; 0 rejects every heavy request, which only the
     *  backpressure test wants. */
    unsigned maxQueue = 64;
    /** Attach the persistent verdict store. */
    bool useStore = true;
    /** Store root ("" = store::VerdictStore::defaultRoot()). */
    std::string storeRoot;
    /** Width of every simulation fan-out a job makes, counting its
     *  worker (0 = hardware_concurrency; see exec::parallelFor). */
    unsigned jobs = 0;
    /** Install SIGINT/SIGTERM handlers (off for in-process tests). */
    bool handleSignals = true;
};

/** Point-in-time server statistics (the `stats` op payload). */
struct ServerStats
{
    uint64_t requests = 0;  ///< lines parsed into requests
    uint64_t completed = 0; ///< heavy jobs run to completion
    uint64_t rejected = 0;  ///< backpressure + draining rejections
    uint64_t cancelled = 0; ///< queued jobs cancelled
    uint64_t errors = 0;    ///< malformed / failed requests
    size_t queueDepth = 0;  ///< summed across worker queues
    size_t warmEntries = 0; ///< summed across worker registry shards
    unsigned workers = 0;
    store::StoreStats store;
};

/** The daemon. Construct, start(), then run() until drained. */
class Server
{
  public:
    explicit Server(ServeConfig cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen on cfg.socketPath. False (with @p err) on failure. */
    bool start(std::string *err);

    /**
     * Serve until a shutdown request, SIGTERM/SIGINT, or stop().
     * Returns 0 after a graceful drain, non-zero on socket failure.
     */
    int run();

    /** Ask a run() in progress (from any thread) to drain and return. */
    void stop();

    ServerStats stats() const;

    const ServeConfig &config() const { return cfg_; }

    /**
     * The (DUV, config-fingerprint) warm/routing key a synth/prove
     * request resolves to. Public so benches and tools can predict
     * worker placement (worker = fnv1a64(key) % workers).
     */
    static std::string synthKey(const std::string &duv,
                                const r2m::SynthesisConfig &sc);

  private:
    /** One client connection. Lifetime is shared with queued jobs so a
     *  worker can answer a job whose connection already dropped. */
    struct Conn
    {
        int fd = -1;
        std::string inbuf;
        std::mutex wmu; ///< serializes writes; guards fd teardown
    };

    /** One queued heavy request. */
    struct Job
    {
        uint64_t seq = 0;      ///< global FIFO order within a priority
        int64_t priority = 0;  ///< higher first
        uint64_t reqId = 0;    ///< client-chosen "id", echoed back
        size_t workerIdx = 0;  ///< hash of the (DUV, config) routing key
        bool progress = false; ///< stream progress events to the client
        std::string op;
        std::shared_ptr<Conn> conn;
        JsonValue req;
    };

    /** Warm per-(duv, config) analysis state. */
    struct WarmEntry
    {
        std::unique_ptr<designs::Harness> hx;
        std::unique_ptr<r2m::MuPathSynthesizer> synth;
        uint64_t uses = 0;
    };

    /**
     * One job worker: a queue shard plus the warm-registry shard for
     * every (DUV, config) key that hashes here. The queue is guarded by
     * the server-wide qmu_ (cancel and stats scan all shards); the warm
     * map is touched only by this worker's thread while it runs, and by
     * the run() thread after the join (teardown flush).
     */
    struct Worker
    {
        std::deque<Job> queue;
        std::map<std::string, WarmEntry> warm;
        std::thread thread;
    };

    int runLoop();
    void acceptClients();
    bool readConn(const std::shared_ptr<Conn> &conn);
    void handleLine(const std::shared_ptr<Conn> &conn,
                    const std::string &line);
    void enqueue(Job job);
    bool cancelJob(const std::shared_ptr<Conn> &conn, uint64_t target);
    void beginDrain();
    void drainQueue(const char *why);
    /** Join every worker, then tear down each registry shard on the
     *  calling thread (pool destructors flush pending proofs — each
     *  shard exactly once) and drain the store's flusher. Idempotent. */
    void joinWorkersAndFlush();

    void workerMain(size_t idx);
    std::string runJob(Worker &w, const Job &job);
    std::string runSynth(Worker &w, const Job &job, bool closure);
    std::string runLint(const Job &job);
    std::string runAnalyze(const Job &job);
    WarmEntry *warmEntry(Worker &w, const std::string &duv,
                         const JsonValue &opts, bool closure,
                         std::string *err, std::string *fingerprint);
    /** The synthesis config a request's opts resolve to (routing and
     *  warm keys both derive from it). */
    r2m::SynthesisConfig makeSynthConfig(const JsonValue &opts,
                                         bool closure) const;
    /** Worker index a routing key hashes to. */
    size_t workerFor(const std::string &key) const;

    static void writeLine(const std::shared_ptr<Conn> &conn,
                          const std::string &json);
    static void closeConn(const std::shared_ptr<Conn> &conn);
    std::string errorResponse(uint64_t req_id, const std::string &op,
                              const std::string &message);

    ServeConfig cfg_;
    int listenFd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> draining_{false};

    std::map<int, std::shared_ptr<Conn>> conns_;

    /** Guards every worker's queue (+ queueClosed_, nextSeq_). */
    mutable std::mutex qmu_;
    std::condition_variable qcv_;
    bool queueClosed_ = false;
    uint64_t nextSeq_ = 0;
    std::vector<std::unique_ptr<Worker>> workers_;

    /** Poll-thread mirror of the summed warm-shard sizes (stats op). */
    std::atomic<size_t> warmCount_{0};
    std::unique_ptr<store::VerdictStore> store_;

    obs::Counter &requests_;
    obs::Counter &completed_;
    obs::Counter &rejected_;
    obs::Counter &cancelled_;
    obs::Counter &errors_;
    obs::Gauge &queueDepth_;

    Server(ServeConfig cfg, const obs::Labels &labels);
};

} // namespace rmp::serve

#endif // SERVE_SERVER_HH
