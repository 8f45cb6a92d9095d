#include "exec/query_cache.hh"

#include <algorithm>

namespace rmp::exec
{

namespace
{

/** splitmix64 finalizer (same combiner family as prop::exprHash). */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
keyWord(uint64_t seed, uint64_t design_fp, const bmc::EngineConfig &cfg,
        const prop::ExprRef &seq, const std::vector<prop::ExprRef> &assumes,
        int fixed_frame)
{
    uint64_t h = mix64(seed ^ design_fp);
    h = mix64(h ^ cfg.bound);
    h = mix64(h ^ cfg.budget.maxConflicts);
    h = mix64(h ^ cfg.budget.maxPropagations);
    // Retired slot: the removed EngineConfig::validateWitnesses flag,
    // which every caller set (every witness is replayed now). Mixing in
    // that constant 1 keeps every key exactly as earlier builds wrote
    // it, so their verdict stores keep hitting.
    h = mix64(h ^ 1);
    h = mix64(h ^ static_cast<uint64_t>(static_cast<int64_t>(fixed_frame)));
    // Retired slot: the removed cone-of-influence mode mixed its cone
    // fingerprint here, 0 when it was off. Mixing in that constant 0
    // (h ^ 0 == h) keeps every key exactly as earlier builds wrote it,
    // so their verdict stores keep hitting.
    h = mix64(h);
    // Retired slots: the removed static cover prune mixed its on/off
    // flag and its absint facts fingerprint here, both 0 when it was
    // off. Mixing in those constant 0s keeps every key exactly as
    // prune-off builds wrote it, so their verdict stores keep hitting.
    h = mix64(h);
    h = mix64(h);
    h = mix64(h ^ prop::exprHash(seq, seed));
    // Assumes form a conjunction: order must not change the key.
    std::vector<uint64_t> ah;
    ah.reserve(assumes.size());
    for (const auto &a : assumes)
        ah.push_back(prop::exprHash(a, seed + 1));
    std::sort(ah.begin(), ah.end());
    for (uint64_t x : ah)
        h = mix64(h ^ x);
    return h;
}

} // anonymous namespace

QueryKey
makeQueryKey(uint64_t design_fp, const bmc::EngineConfig &cfg,
             const prop::ExprRef &seq,
             const std::vector<prop::ExprRef> &assumes, int fixed_frame)
{
    QueryKey k;
    k.lo = keyWord(0x517cc1b727220a95ULL, design_fp, cfg, seq, assumes,
                   fixed_frame);
    k.hi = keyWord(0x2545f4914f6cdd1dULL, design_fp, cfg, seq, assumes,
                   fixed_frame);
    return k;
}

std::string
makeQueryKeyBytes(uint64_t design_fp, const bmc::EngineConfig &cfg,
                  const prop::ExprRef &seq,
                  const std::vector<prop::ExprRef> &assumes, int fixed_frame)
{
    // Scalar fields in decimal, '|'-separated; expression serializations
    // use only "(),A-G" and digits, so '|' is an unambiguous delimiter.
    std::string s;
    s += std::to_string(design_fp);
    s.push_back('|');
    s += std::to_string(cfg.bound);
    s.push_back('|');
    s += std::to_string(cfg.budget.maxConflicts);
    s.push_back('|');
    s += std::to_string(cfg.budget.maxPropagations);
    // Retired slot, always "1": see keyWord().
    s += "|1|";
    s += std::to_string(fixed_frame);
    // Retired slots, always "0": see keyWord().
    s += "|0|0|0|";
    prop::serializeExpr(seq, &s);
    // Sorted, like the key's assume-hash multiset: conjunction order
    // must not change the bytes either.
    std::vector<std::string> ab(assumes.size());
    for (size_t i = 0; i < assumes.size(); i++)
        prop::serializeExpr(assumes[i], &ab[i]);
    std::sort(ab.begin(), ab.end());
    for (const std::string &a : ab) {
        s.push_back('|');
        s += a;
    }
    return s;
}

uint64_t
designFingerprint(const Design &d)
{
    uint64_t h = mix64(0x9ae16a3b2f90404fULL ^ d.numCells());
    for (SigId id = 0; id < d.numCells(); id++) {
        const Cell &c = d.cell(id);
        h = mix64(h ^ static_cast<uint64_t>(c.op));
        h = mix64(h ^ c.width);
        for (unsigned i = 0; i < 3; i++)
            h = mix64(h ^ static_cast<uint64_t>(c.args[i]));
        h = mix64(h ^ c.cval.value());
        h = mix64(h ^ c.aux0);
    }
    return h;
}

store::VerdictRecord
toStoreRecord(const bmc::CoverResult &r)
{
    store::VerdictRecord rec;
    rec.outcome = static_cast<uint8_t>(r.outcome);
    rec.seconds = r.seconds;
    rec.aigNodes = r.aigNodes;
    rec.satVars = r.satVars;
    if (r.outcome == bmc::Outcome::Reachable) {
        rec.matchFrame = r.witness.matchFrame;
        rec.hasTrace = r.witness.trace.numCycles() > 0;
        rec.inputs.reserve(r.witness.inputs.size());
        for (const InputMap &m : r.witness.inputs) {
            std::vector<std::pair<uint32_t, uint64_t>> cycle(m.begin(),
                                                             m.end());
            std::sort(cycle.begin(), cycle.end());
            rec.inputs.push_back(std::move(cycle));
        }
    }
    if (r.proof.valid) {
        rec.hasProof = true;
        rec.proofInputCount = r.proof.inputCount;
        rec.proofStepCount = r.proof.stepCount;
        rec.assumptions.reserve(r.proof.assumptions.size());
        for (sat::Lit l : r.proof.assumptions)
            rec.assumptions.push_back(l.x);
    }
    return rec;
}

bmc::CoverResult
expandResult(const store::VerdictRecord &rec, const Design &d)
{
    bmc::CoverResult r;
    r.outcome = static_cast<bmc::Outcome>(rec.outcome);
    r.seconds = 0.0; // a hit costs (essentially) nothing
    if (r.outcome == bmc::Outcome::Reachable) {
        r.witness.matchFrame = rec.matchFrame;
        r.witness.inputs.reserve(rec.inputs.size());
        for (const auto &cycle : rec.inputs) {
            InputMap m;
            m.reserve(cycle.size());
            for (const auto &[sig, val] : cycle)
                m.emplace(sig, val);
            r.witness.inputs.push_back(std::move(m));
        }
        if (rec.hasTrace) {
            Simulator sim(d);
            for (const auto &in : r.witness.inputs)
                sim.step(in);
            r.witness.trace = sim.trace();
        }
    }
    return r;
}

QueryCache::QueryCache()
    // Per-instance registry counters: concurrent caches (one per pool)
    // must tally independently for the benches' per-run accounting, so
    // each instance gets a distinct `cache=<n>` label.
    : QueryCache([] {
          static std::atomic<uint64_t> next{0};
          return obs::Labels{{"cache", std::to_string(next.fetch_add(1))}};
      }())
{
}

QueryCache::QueryCache(const obs::Labels &labels)
    : hits_(obs::Registry::global().counter("exec.cache.hits", labels)),
      misses_(obs::Registry::global().counter("exec.cache.misses", labels)),
      entries_(obs::Registry::global().counter("exec.cache.entries", labels))
{
}

bool
QueryCache::get(const std::string &keyBytes, store::VerdictRecord *out)
{
    bool hit = false;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = map.find(keyBytes);
        if (it != map.end()) {
            *out = it->second;
            hit = true;
        }
    }
    (hit ? hits_ : misses_).add(1);
    return hit;
}

void
QueryCache::put(std::string keyBytes, store::VerdictRecord rec)
{
    bool inserted;
    {
        std::lock_guard<std::mutex> lock(mu);
        inserted = map.try_emplace(std::move(keyBytes), std::move(rec)).second;
    }
    if (inserted)
        entries_.add(1);
}

CacheStats
QueryCache::stats() const
{
    CacheStats s;
    s.hits = hits_.value();
    s.misses = misses_.value();
    s.entries = entries_.value();
    return s;
}

} // namespace rmp::exec
