#include "exec/engine_pool.hh"

#include <algorithm>
#include <atomic>
#include <map>

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
    // lane engines so Unreachable verdicts come with storable evidence.
    if (exec_cfg.store && exec_cfg.store->enabled()) {
        store_ = exec_cfg.store;
        engCfg.captureProof = true;
        cache_.attachStore(store_);
    }
    unsigned lanes = exec_cfg.lanes ? exec_cfg.lanes : kDefaultLanes;
    lanes_.resize(lanes);
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

bmc::Engine &
EnginePool::laneEngine(unsigned lane)
{
    Lane &l = lanes_[lane];
    if (!l.eng)
        l.eng = std::make_unique<bmc::Engine>(d, engCfg);
    return *l.eng;
}

bmc::CoverResult
EnginePool::runOnLane(unsigned lane, const Query &q, const QueryKey &key,
                      const std::string &keyBytes, uint64_t submit_ns)
{
    // A verdict that failed its audit (witness replay or DRAT closure
    // contradicted the solver) is quarantined: returned to the caller
    // with audit.mismatch set, loudly flagged, and kept OUT of the query
    // cache so a poisoned verdict can never be served as a future hit.
    auto publish = [&](const bmc::CoverResult &r) {
        if (r.audit.mismatch) {
            // Quarantine covers the store too: a poisoned verdict must
            // not outlive the process any more than the run.
            warn(strfmt("lane %u: audited verdict quarantined (not "
                        "cached): %s",
                        lane, r.audit.detail.c_str()));
            return;
        }
        cache_.put(key, keyBytes, r);
        if (!store_)
            return;
        store::VerdictRecord rec = toStoreRecord(r);
        if (rec.hasProof) {
            // The blob address is unknown until the lane's proof context
            // is serialized; defer the record until flushStore().
            std::lock_guard<std::mutex> lock(storeMu_);
            pendingProofs_.push_back(
                PendingProof{lane, key, keyBytes, std::move(rec)});
        } else {
            store_->put(key.lo, key.hi, keyBytes, rec);
        }
    };
    // Cooperative interruption: once SIGINT/SIGTERM is flagged, skip
    // every query not yet started. The Undetermined result is returned
    // but never published — an interruption artifact in the in-memory
    // cache or the persistent store would masquerade as a genuine
    // budget-exhaustion verdict under the same canonical key.
    if (interruptRequested())
        return bmc::CoverResult{};
    if (!obs::enabled()) {
        bmc::Engine &eng = laneEngine(lane);
        bmc::CoverResult r =
            q.fixedFrame >= 0
                ? eng.coverAt(q.seq, q.assumes,
                              static_cast<unsigned>(q.fixedFrame))
                : eng.cover(q.seq, q.assumes);
        publish(r);
        return r;
    }
    // Route everything this query records — the lane span and the nested
    // bmc/sat spans — onto the lane's own track, so the exported trace
    // shows one swim-lane per engine lane irrespective of which worker
    // thread drained it (the paper's proof-grid picture).
    obs::ScopedTrack track(static_cast<int32_t>(lane));
    obs::setTrackName(static_cast<int32_t>(lane),
                      "lane-" + std::to_string(lane));
    obs::Span span("pool-lane", "exec");
    span.arg("lane", lane);
    uint64_t start = obs::nowNs();
    obs::Registry &reg = obs::Registry::global();
    if (submit_ns) {
        span.arg("queue_wait_ns", start - submit_ns);
        reg.histogram("exec.queue_wait_ns").record(start - submit_ns);
    }
    bmc::Engine &eng = laneEngine(lane);
    bmc::CoverResult r =
        q.fixedFrame >= 0
            ? eng.coverAt(q.seq, q.assumes,
                          static_cast<unsigned>(q.fixedFrame))
            : eng.cover(q.seq, q.assumes);
    publish(r);
    span.arg("outcome", static_cast<uint64_t>(r.outcome));
    obs::Labels lane_label{{"lane", std::to_string(lane)}};
    reg.counter("exec.lane_tasks", lane_label).add(1);
    reg.counter("exec.lane_busy_ns", lane_label)
        .add(obs::nowNs() - start);
    return r;
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

void
EnginePool::runTasks(std::vector<std::function<void()>> tasks)
{
    if (workers.empty() || tasks.size() <= 1) {
        for (auto &t : tasks)
            t();
        return;
    }
    // Pool worker threads inherit the submitting thread's progress sink
    // for the duration of this batch — daemon workers install a per-job
    // sink thread-locally, and the layers that report from inside pool
    // tasks (sim exploration, sim-filter) must reach the same client.
    obs::ProgressSink *sink = obs::threadProgressSink();
    if (sink) {
        for (auto &t : tasks) {
            t = [sink, inner = std::move(t)] {
                obs::ScopedProgressSink scoped(sink);
                inner();
            };
        }
    }
    // Admission: concurrent pools (one per daemon worker) each size
    // themselves for the whole machine; the global gate caps the summed
    // parallelism so N heavy jobs don't oversubscribe the cores.
    // Scheduling only — lane assignment already happened, so verdicts
    // are identical whether the batch admits immediately or waits.
    uint64_t admit0 = obs::enabled() ? obs::nowNs() : 0;
    AdmissionTicket ticket(
        static_cast<unsigned>(std::min<size_t>(tasks.size(), jobs_)));
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
        pending += tasks.size();
        for (auto &t : tasks)
            tasks_.push_back(std::move(t));
    }
    cvWork.notify_all();
    std::unique_lock<std::mutex> lock(mu);
    cvDone.wait(lock, [this] { return pending == 0; });
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
    unsigned lane = static_cast<unsigned>(nextLane++ % lanes_.size());
    return runOnLane(lane, q, key, bytes);
}

std::vector<bmc::CoverResult>
EnginePool::evalBatch(const std::vector<Query> &qs)
{
    obs::Span span("pool-batch", "exec");
    span.arg("queries", qs.size());
    std::vector<bmc::CoverResult> results(qs.size());
    // Serial pass on the submitting thread: cache decisions and lane
    // assignment happen in deterministic submission order.
    std::vector<Unit> units;
    std::map<std::string, size_t> firstUnit;
    for (size_t i = 0; i < qs.size(); i++) {
        QueryKey key = makeQueryKey(designFp, engCfg, qs[i].seq,
                                    qs[i].assumes, qs[i].fixedFrame);
        std::string bytes =
            makeQueryKeyBytes(designFp, engCfg, qs[i].seq, qs[i].assumes,
                              qs[i].fixedFrame);
        CachedResult hit;
        if (cache_.get(key, bytes, &hit)) {
            results[i] = expandResult(hit, d);
            continue;
        }
        // In-batch dedup keys on the canonical bytes, not the digest, so
        // a digest collision within one batch cannot alias two queries.
        auto [it, fresh] = firstUnit.try_emplace(bytes, units.size());
        if (!fresh) {
            units[it->second].aliases.push_back(i);
            continue;
        }
        Unit u;
        u.key = key;
        u.keyBytes = std::move(bytes);
        u.q = &qs[i];
        u.primary = i;
        u.lane = static_cast<unsigned>(nextLane++ % lanes_.size());
        units.push_back(std::move(u));
    }

    span.arg("solver_units", units.size());

    // Group units by lane, preserving submission order within a lane.
    std::vector<std::vector<Unit *>> perLane(lanes_.size());
    for (Unit &u : units)
        perLane[u.lane].push_back(&u);
    std::vector<std::function<void()>> tasks;
    uint64_t submit_ns = span.active() ? obs::nowNs() : 0;
    for (auto &lane_units : perLane) {
        if (lane_units.empty())
            continue;
        tasks.push_back([this, &results, lane_units, submit_ns] {
            for (Unit *u : lane_units)
                results[u->primary] = runOnLane(u->lane, *u->q, u->key,
                                                u->keyBytes, submit_ns);
        });
    }
    runTasks(std::move(tasks));

    // Serve in-batch duplicates from the now-published entries (counted
    // as cache hits: they never touched a solver). A quarantined result
    // (audit mismatch) was deliberately never published — duplicates of
    // it copy the primary's flagged result instead.
    for (const Unit &u : units) {
        for (size_t i : u.aliases) {
            CachedResult hit;
            if (cache_.get(u.key, u.keyBytes, &hit)) {
                results[i] = expandResult(hit, d);
            } else {
                // Unpublished primaries: quarantined audit mismatches,
                // or queries skipped by an interruption.
                rmp_assert(results[u.primary].audit.mismatch ||
                               interruptRequested(),
                           "batch duplicate missing from cache");
                results[i] = results[u.primary];
            }
        }
    }
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
    auto next = std::make_shared<std::atomic<size_t>>(0);
    size_t width = std::min<size_t>(jobs_, n);
    std::vector<std::function<void()>> tasks;
    for (size_t t = 0; t < width; t++) {
        tasks.push_back([next, n, &fn] {
            for (size_t i = (*next)++; i < n; i = (*next)++)
                fn(i);
        });
    }
    runTasks(std::move(tasks));
}

void
EnginePool::flushStore()
{
    std::vector<PendingProof> pending;
    {
        std::lock_guard<std::mutex> lock(storeMu_);
        pending.swap(pendingProofs_);
    }
    if (!store_ || pending.empty())
        return;
    obs::Span span("store-flush", "exec");
    span.arg("records", pending.size());
    // One blob per referenced lane: a lane's proof context is
    // cumulative, so its serialization covers every pending record's
    // prefix.
    std::map<unsigned, Hash128> blobs;
    for (PendingProof &p : pending) {
        auto it = blobs.find(p.lane);
        if (it == blobs.end()) {
            const sat::DratLogRecorder *rc =
                lanes_[p.lane].eng ? lanes_[p.lane].eng->proofContext()
                                   : nullptr;
            if (!rc)
                continue; // capture raced off (shouldn't happen); drop
            Hash128 addr;
            if (!store_->putBlob(store::VerdictStore::serializeProofContext(
                                     rc->inputs(), rc->log()),
                                 &addr))
                continue;
            it = blobs.emplace(p.lane, addr).first;
        }
        p.rec.proofBlob = it->second;
        store_->put(p.key.lo, p.key.hi, p.keyBytes, p.rec);
    }
}

PoolStats
EnginePool::stats() const
{
    PoolStats s;
    for (const Lane &l : lanes_) {
        if (!l.eng)
            continue;
        s.lanesBuilt++;
        const bmc::EngineStats &e = l.eng->stats();
        s.engine.queries += e.queries;
        s.engine.reachable += e.reachable;
        s.engine.unreachable += e.unreachable;
        s.engine.undetermined += e.undetermined;
        s.engine.assumptionCoreHits += e.assumptionCoreHits;
        s.engine.totalSeconds += e.totalSeconds;
        s.engine.auditReplayed += e.auditReplayed;
        s.engine.auditProofChecked += e.auditProofChecked;
        s.engine.auditMismatches += e.auditMismatches;
        const sat::SatStats &st = l.eng->satStats();
        s.sat.conflicts += st.conflicts;
        s.sat.decisions += st.decisions;
        s.sat.propagations += st.propagations;
        s.sat.restarts += st.restarts;
        s.sat.learnedClauses += st.learnedClauses;
        s.sat.removedClauses += st.removedClauses;
        s.sat.dbReductions += st.dbReductions;
        s.sat.gcPasses += st.gcPasses;
        s.sat.assumptionConflicts += st.assumptionConflicts;
        s.sat.savedTrailLits += st.savedTrailLits;
        s.sat.lbdSum += st.lbdSum;
        s.sat.glueClauses += st.glueClauses;
        const bmc::CoiStats ci = l.eng->coiStats();
        s.coi.aigNodes += ci.aigNodes;
        s.coi.satVars += ci.satVars;
    }
    s.cache = cache_.stats();
    if (store_)
        s.store = store_->stats();
    return s;
}

} // namespace rmp::exec
