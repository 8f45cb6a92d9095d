#include "exec/engine_pool.hh"

#include <algorithm>
#include <atomic>

#include "common/interrupt.hh"
#include "common/logging.hh"
#include "exec/admission.hh"
#include "obs/progress.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace rmp::exec
{

EnginePool::EnginePool(const Design &design,
                       const bmc::EngineConfig &engine_cfg,
                       const ExecConfig &exec_cfg)
    : d(design), engCfg(engine_cfg), designFp(designFingerprint(design))
{
    // Persistent store: read-through via the cache, proof capture on the
    // engine so Unreachable verdicts come with storable evidence.
    if (exec_cfg.store && exec_cfg.store->enabled()) {
        store_ = exec_cfg.store;
        engCfg.captureProof = true;
        cache_.attachStore(store_);
    }
    unsigned hw = std::thread::hardware_concurrency();
    jobs_ = exec_cfg.jobs ? exec_cfg.jobs : std::max(1u, hw);
    // Warm the design's lazy topo-order cache before any worker can race
    // on it; every later const access is then read-only.
    d.topoOrder();
    if (jobs_ > 1) {
        workers.reserve(jobs_);
        for (unsigned i = 0; i < jobs_; i++)
            workers.emplace_back([this] { workerLoop(); });
    }
}

EnginePool::~EnginePool()
{
    flushStore();
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    cvWork.notify_all();
    for (auto &w : workers)
        w.join();
}

void
EnginePool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu);
            cvWork.wait(lock, [this] { return stopping || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stopping, queue drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mu);
            pending--;
        }
        cvDone.notify_all();
    }
}

bmc::CoverResult
EnginePool::eval(const Query &q)
{
    QueryKey key =
        makeQueryKey(designFp, engCfg, q.seq, q.assumes, q.fixedFrame);
    std::string bytes = makeQueryKeyBytes(designFp, engCfg, q.seq, q.assumes,
                                          q.fixedFrame);
    CachedResult hit;
    if (cache_.get(key, bytes, &hit))
        return expandResult(hit, d);
    // Cooperative interruption: once SIGINT/SIGTERM is flagged, skip
    // every query not yet started. The Undetermined result is returned
    // but never published — an interruption artifact in the in-memory
    // cache or the persistent store would masquerade as a genuine
    // budget-exhaustion verdict under the same canonical key.
    if (interruptRequested())
        return bmc::CoverResult{};
    // The span and busy counter keep their lane-era names because the
    // benchmark harness reads them (rmpbench/run.py SPAN_LAYER,
    // rmpbench/src/oneshot.cc:130), as do the CI trace step and
    // Cli.SynthWithTraceAndStats.
    obs::Span span("pool-lane", "exec");
    uint64_t start = span.active() ? obs::nowNs() : 0;
    if (!engine_)
        engine_ = std::make_unique<bmc::Engine>(d, engCfg);
    bmc::CoverResult r =
        q.fixedFrame >= 0
            ? engine_->coverAt(q.seq, q.assumes,
                               static_cast<unsigned>(q.fixedFrame))
            : engine_->cover(q.seq, q.assumes);
    if (span.active()) {
        span.arg("outcome", static_cast<uint64_t>(r.outcome));
        obs::Registry::global()
            .counter("exec.lane_busy_ns")
            .add(obs::nowNs() - start);
    }
    // A verdict that failed its audit (witness replay or DRAT closure
    // contradicted the solver) is quarantined: returned to the caller
    // with audit.mismatch set, loudly flagged, and kept OUT of the query
    // cache and the store so a poisoned verdict can never be served as a
    // future hit, in this run or a later one.
    if (r.audit.mismatch) {
        warn(strfmt("audited verdict quarantined (not cached): %s",
                    r.audit.detail.c_str()));
        return r;
    }
    cache_.put(key, bytes, r);
    if (store_) {
        store::VerdictRecord rec = toStoreRecord(r);
        if (rec.hasProof) {
            // The blob address is unknown until the engine's proof
            // context is serialized; defer the record until flushStore().
            pendingProofs_.push_back(
                PendingProof{key, std::move(bytes), std::move(rec)});
        } else {
            store_->put(key.lo, key.hi, bytes, rec);
        }
    }
    return r;
}

std::vector<bmc::CoverResult>
EnginePool::evalBatch(const std::vector<Query> &qs)
{
    obs::Span span("pool-batch", "exec");
    span.arg("queries", qs.size());
    std::vector<bmc::CoverResult> results;
    results.reserve(qs.size());
    for (const Query &q : qs)
        results.push_back(eval(q));
    return results;
}

void
EnginePool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    obs::Span span("parallel-for", "exec");
    span.arg("n", n);
    if (workers.empty() || n <= 1) {
        for (size_t i = 0; i < n; i++)
            fn(i);
        return;
    }
    const size_t width = std::min<size_t>(jobs_, n);
    // Pool worker threads inherit the submitting thread's progress sink
    // for the duration of this call — daemon workers install a per-job
    // sink thread-locally, and the layers that report from inside
    // parallelFor (sim exploration, sim-filter) must reach the same
    // client. The call blocks until every task is done, so the tasks
    // may reference this frame.
    obs::ProgressSink *sink = obs::threadProgressSink();
    std::atomic<size_t> next{0};
    auto task = [&next, n, &fn, sink] {
        obs::ScopedProgressSink scoped(sink);
        for (size_t i = next++; i < n; i = next++)
            fn(i);
    };
    // Admission: concurrent pools (one per daemon worker) each size
    // themselves for the whole machine; the global gate caps the summed
    // parallelism so N heavy jobs don't oversubscribe the cores.
    // Scheduling only — fn writes index-distinct state, so results are
    // identical whether the call admits immediately or waits.
    uint64_t admit0 = obs::enabled() ? obs::nowNs() : 0;
    AdmissionTicket ticket(static_cast<unsigned>(width));
    if (admit0) {
        obs::Registry &reg = obs::Registry::global();
        reg.counter("exec.admission_acquires").add(1);
        reg.histogram("exec.admission_wait_ns")
            .record(obs::nowNs() - admit0);
        reg.gauge("exec.admission_inflight")
            .set(AdmissionGate::global().stats().inflight);
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        pending += width;
        for (size_t t = 0; t < width; t++)
            tasks_.emplace_back(task);
    }
    cvWork.notify_all();
    std::unique_lock<std::mutex> lock(mu);
    cvDone.wait(lock, [this] { return pending == 0; });
}

void
EnginePool::flushStore()
{
    std::vector<PendingProof> pending_proofs;
    pending_proofs.swap(pendingProofs_);
    if (!store_ || pending_proofs.empty())
        return;
    obs::Span span("store-flush", "exec");
    span.arg("records", pending_proofs.size());
    // One blob: the engine's proof context is cumulative, so its
    // serialization covers every pending record's prefix.
    const sat::DratLogRecorder *rc = engine_->proofContext();
    Hash128 addr;
    if (!rc || !store_->putBlob(store::VerdictStore::serializeProofContext(
                                    rc->inputs(), rc->log()),
                                &addr))
        return;
    for (PendingProof &p : pending_proofs) {
        p.rec.proofBlob = addr;
        store_->put(p.key.lo, p.key.hi, p.keyBytes, p.rec);
    }
}

PoolStats
EnginePool::stats() const
{
    PoolStats s;
    if (engine_) {
        s.lanesBuilt = 1;
        s.engine = engine_->stats();
        s.sat = engine_->satStats();
        s.coi = engine_->coiStats();
    }
    s.cache = cache_.stats();
    if (store_)
        s.store = store_->stats();
    return s;
}

} // namespace rmp::exec
