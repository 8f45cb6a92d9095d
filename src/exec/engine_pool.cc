#include "exec/engine_pool.hh"

#include "common/interrupt.hh"
#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace rmp::exec
{

EnginePool::EnginePool(const Design &design,
                       const bmc::EngineConfig &engine_cfg,
                       store::VerdictStore *store)
    : d(design), engCfg(engine_cfg), designFp(designFingerprint(design))
{
    // Persistent store: eval() reads and writes through it; proof
    // capture on the engine gives Unreachable verdicts storable evidence.
    if (store && store->enabled()) {
        store_ = store;
        engCfg.captureProof = true;
    }
    // Warm the design's lazy topo-order cache before the owner fans
    // simulation out over it (exploration, SynthLC's taint batches):
    // every later const access from those threads is then read-only.
    d.topoOrder();
}

EnginePool::~EnginePool() { flushStore(); }

bmc::CoverResult
EnginePool::eval(const prop::ExprRef &seq,
                 const std::vector<prop::ExprRef> &assumes)
{
    // Frame -1 (any frame): the key keeps its fixed-frame slot so
    // stores written by earlier builds keep hitting.
    std::string bytes = makeQueryKeyBytes(designFp, engCfg, seq, assumes, -1);
    store::VerdictRecord hit;
    if (cache_.get(bytes, &hit))
        return expandResult(hit, d);
    // Read-through: a memory miss falls through to the persistent store,
    // whose files the 128-bit digest names; a store hit (bytes-verified
    // there, outcome range-checked here) is promoted so later repeats
    // stay in memory.
    QueryKey key;
    if (store_) {
        key = makeQueryKey(designFp, engCfg, seq, assumes, -1);
        if (store_->get(key.lo, key.hi, bytes, &hit) && hit.outcome <= 2) {
            bmc::CoverResult r = expandResult(hit, d);
            cache_.put(std::move(bytes), std::move(hit));
            return r;
        }
    }
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
    bmc::CoverResult r = engine_->cover(seq, assumes);
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
    store::VerdictRecord rec = toStoreRecord(r);
    if (store_) {
        if (rec.hasProof) {
            // The blob address is unknown until the engine's proof
            // context is serialized; defer the record until flushStore().
            pendingProofs_.push_back(PendingProof{key, bytes, rec});
        } else {
            store_->put(key.lo, key.hi, bytes, rec);
        }
    }
    cache_.put(std::move(bytes), std::move(rec));
    return r;
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
