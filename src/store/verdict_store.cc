#include "store/verdict_store.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "common/logging.hh"

namespace rmp::store
{

namespace
{

namespace fs = std::filesystem;

constexpr char kRecMagic[4] = {'R', 'M', 'P', 'S'};
constexpr char kBlobMagic[4] = {'R', 'M', 'P', 'B'};

/** Append-only byte writer (host endianness: the store is a local cache,
 *  never shipped between machines; the version field still gates any
 *  format change). */
struct Wr
{
    std::string out;

    void raw(const void *p, size_t n)
    {
        out.append(static_cast<const char *>(p), n);
    }
    void u8(uint8_t v) { raw(&v, 1); }
    void u32(uint32_t v) { raw(&v, sizeof v); }
    void u64(uint64_t v) { raw(&v, sizeof v); }
    void i32(int32_t v) { raw(&v, sizeof v); }
    void d64(double v) { raw(&v, sizeof v); }
    void bytes(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        raw(s.data(), s.size());
    }
};

/** Bounds-checked reader; any overrun latches !ok and zero-fills. */
struct Rd
{
    const char *p;
    const char *end;
    bool ok = true;

    Rd(const char *data, size_t n) : p(data), end(data + n) {}

    bool raw(void *dst, size_t n)
    {
        if (!ok || static_cast<size_t>(end - p) < n) {
            ok = false;
            std::memset(dst, 0, n);
            return false;
        }
        std::memcpy(dst, p, n);
        p += n;
        return true;
    }
    uint8_t u8()
    {
        uint8_t v;
        raw(&v, 1);
        return v;
    }
    uint32_t u32()
    {
        uint32_t v;
        raw(&v, sizeof v);
        return v;
    }
    uint64_t u64()
    {
        uint64_t v;
        raw(&v, sizeof v);
        return v;
    }
    int32_t i32()
    {
        int32_t v;
        raw(&v, sizeof v);
        return v;
    }
    double d64()
    {
        double v;
        raw(&v, sizeof v);
        return v;
    }
    bool bytes(std::string *s)
    {
        uint32_t n = u32();
        if (!ok || static_cast<size_t>(end - p) < n) {
            ok = false;
            return false;
        }
        s->assign(p, n);
        p += n;
        return true;
    }
    bool atEnd() const { return ok && p == end; }
};

/** Wrap @p payload in magic | version | length | checksum. */
std::string
sealEnvelope(const char magic[4], const std::string &payload)
{
    Wr w;
    w.raw(magic, 4);
    w.u32(kStoreVersion);
    w.u64(payload.size());
    w.u64(fnv1a64(payload.data(), payload.size()));
    w.raw(payload.data(), payload.size());
    return std::move(w.out);
}

/** Verify the envelope; on success @p payload points into @p bytes. */
bool
openEnvelope(const std::string &bytes, const char magic[4],
             const char **payload, size_t *payloadLen)
{
    // 4 magic + 4 version + 8 length + 8 checksum
    constexpr size_t kHeader = 24;
    if (bytes.size() < kHeader)
        return false;
    if (std::memcmp(bytes.data(), magic, 4) != 0)
        return false;
    Rd r(bytes.data() + 4, kHeader - 4);
    uint32_t version = r.u32();
    uint64_t len = r.u64();
    uint64_t sum = r.u64();
    if (version != kStoreVersion)
        return false;
    if (bytes.size() != kHeader + len)
        return false;
    if (fnv1a64(bytes.data() + kHeader, len) != sum)
        return false;
    *payload = bytes.data() + kHeader;
    *payloadLen = len;
    return true;
}

void
writeLits(Wr &w, const std::vector<sat::Lit> &lits)
{
    w.u32(static_cast<uint32_t>(lits.size()));
    for (sat::Lit l : lits)
        w.i32(l.x);
}

bool
readLits(Rd &r, std::vector<sat::Lit> *lits)
{
    uint32_t n = r.u32();
    // Cheap sanity bound: a clause cannot have more literals than bytes
    // remain, which stops a corrupt count from ballooning the resize.
    if (!r.ok || n > static_cast<size_t>(r.end - r.p) / sizeof(int32_t)) {
        r.ok = false;
        return false;
    }
    lits->resize(n);
    for (uint32_t i = 0; i < n; i++)
        (*lits)[i].x = r.i32();
    return r.ok;
}

/** Create @p path's shard directory, then publish @p bytes there on the
 *  calling thread (write to a tmp file, fsync, rename). Returns false
 *  if the file could not be written. */
bool
publish(const std::string &path, const std::string &bytes)
{
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    return atomicWriteFile(path, bytes);
}

} // anonymous namespace

std::string
VerdictStore::defaultRoot()
{
    return cacheDir("store");
}

VerdictStore::VerdictStore(std::string root)
    // Per-instance labels, same scheme as exec::QueryCache: concurrent
    // stores (tests) keep individually exact counters.
    : VerdictStore(std::move(root), [] {
          static std::atomic<uint64_t> next{0};
          return obs::Labels{{"store", std::to_string(next.fetch_add(1))}};
      }())
{
}

VerdictStore::VerdictStore(std::string root, const obs::Labels &labels)
    : root_(root.empty() ? defaultRoot() : std::move(root)),
      hits_(obs::Registry::global().counter("store.hits", labels)),
      misses_(obs::Registry::global().counter("store.misses", labels)),
      collisions_(
          obs::Registry::global().counter("store.collisions", labels)),
      corrupt_(obs::Registry::global().counter("store.corrupt", labels)),
      writes_(obs::Registry::global().counter("store.writes", labels)),
      blobWrites_(
          obs::Registry::global().counter("store.blob_writes", labels)),
      blobDedups_(
          obs::Registry::global().counter("store.blob_dedups", labels))
{
    if (root_.empty())
        return; // cache root creation already warned
    std::error_code ec;
    records_ = root_ + "/records";
    blobs_ = root_ + "/blobs";
    fs::create_directories(records_, ec);
    if (!ec)
        fs::create_directories(blobs_, ec);
    if (ec) {
        warn("verdict store disabled: cannot create " + root_ + ": " +
             ec.message());
        root_.clear();
    }
}

std::string
VerdictStore::recordPath(uint64_t keyLo, uint64_t keyHi) const
{
    // Digest-prefix shard: concurrent writers (several daemon workers,
    // or two daemons on one root) spread their creates/renames across
    // 256 directories instead of serializing on one inode.
    std::string hex = hashHex(Hash128{keyLo, keyHi});
    return records_ + "/" + hex.substr(0, 2) + "/" + hex + ".vr";
}

std::string
VerdictStore::blobPath(const Hash128 &addr) const
{
    std::string hex = hashHex(addr);
    return blobs_ + "/" + hex.substr(0, 2) + "/" + hex + ".pb";
}

std::string
VerdictStore::serializeRecord(const std::string &keyBytes,
                              const VerdictRecord &rec)
{
    Wr w;
    w.bytes(keyBytes);
    w.u8(rec.outcome);
    w.u32(rec.matchFrame);
    w.u8(rec.hasTrace ? 1 : 0);
    w.u32(static_cast<uint32_t>(rec.inputs.size()));
    for (const auto &cycle : rec.inputs) {
        w.u32(static_cast<uint32_t>(cycle.size()));
        for (const auto &[sig, val] : cycle) {
            w.u32(sig);
            w.u64(val);
        }
    }
    w.d64(rec.seconds);
    w.u32(rec.coiCells);
    w.u64(rec.aigNodes);
    w.u64(rec.satVars);
    w.u8(rec.hasProof ? 1 : 0);
    if (rec.hasProof) {
        w.u64(rec.proofBlob.lo);
        w.u64(rec.proofBlob.hi);
        w.u64(rec.proofInputCount);
        w.u64(rec.proofStepCount);
        w.u32(static_cast<uint32_t>(rec.assumptions.size()));
        for (int32_t a : rec.assumptions)
            w.i32(a);
    }
    return sealEnvelope(kRecMagic, w.out);
}

bool
VerdictStore::parseRecord(const std::string &bytes, std::string *keyBytes,
                          VerdictRecord *rec)
{
    const char *payload = nullptr;
    size_t len = 0;
    if (!openEnvelope(bytes, kRecMagic, &payload, &len))
        return false;
    Rd r(payload, len);
    if (!r.bytes(keyBytes))
        return false;
    rec->outcome = r.u8();
    rec->matchFrame = r.u32();
    rec->hasTrace = r.u8() != 0;
    uint32_t cycles = r.u32();
    if (!r.ok || cycles > len)
        return false;
    rec->inputs.assign(cycles, {});
    for (uint32_t t = 0; t < cycles; t++) {
        uint32_t n = r.u32();
        if (!r.ok || n > len)
            return false;
        rec->inputs[t].resize(n);
        for (uint32_t i = 0; i < n; i++) {
            rec->inputs[t][i].first = r.u32();
            rec->inputs[t][i].second = r.u64();
        }
    }
    rec->seconds = r.d64();
    rec->coiCells = r.u32();
    rec->aigNodes = r.u64();
    rec->satVars = r.u64();
    rec->hasProof = r.u8() != 0;
    if (rec->hasProof) {
        rec->proofBlob.lo = r.u64();
        rec->proofBlob.hi = r.u64();
        rec->proofInputCount = r.u64();
        rec->proofStepCount = r.u64();
        uint32_t n = r.u32();
        if (!r.ok || n > len)
            return false;
        rec->assumptions.resize(n);
        for (uint32_t i = 0; i < n; i++)
            rec->assumptions[i] = r.i32();
    }
    return r.atEnd();
}

void
VerdictStore::quarantine(const std::string &path)
{
    std::error_code ec;
    fs::rename(path, path + ".corrupt", ec);
    if (ec)
        fs::remove(path, ec);
    corrupt_.add(1);
}

bool
VerdictStore::loadRecord(const std::string &path, std::string *keyBytes,
                         VerdictRecord *rec, uint64_t *bytesOut)
{
    std::string bytes;
    if (!readFile(path, &bytes))
        return false;
    if (!parseRecord(bytes, keyBytes, rec)) {
        quarantine(path);
        return false;
    }
    if (bytesOut)
        *bytesOut = bytes.size();
    return true;
}

bool
VerdictStore::get(uint64_t keyLo, uint64_t keyHi,
                  const std::string &keyBytes, VerdictRecord *out)
{
    if (!enabled()) {
        misses_.add(1);
        return false;
    }
    std::string storedKey;
    if (!loadRecord(recordPath(keyLo, keyHi), &storedKey, out)) {
        misses_.add(1);
        return false;
    }
    if (storedKey != keyBytes) {
        // 128-bit digest collision: two distinct queries, one path. The
        // resident record is NOT this query's verdict.
        collisions_.add(1);
        misses_.add(1);
        return false;
    }
    hits_.add(1);
    return true;
}

bool
VerdictStore::put(uint64_t keyLo, uint64_t keyHi,
                  const std::string &keyBytes, const VerdictRecord &rec)
{
    if (!enabled())
        return false;
    const std::string path = recordPath(keyLo, keyHi);
    // First-wins on collision: a resident valid record for different
    // canonical bytes stays (its readers still hit); overwriting would
    // flip-flop the file between the colliding queries.
    std::string resident;
    VerdictRecord tmp;
    std::string bytes;
    if (readFile(path, &bytes) && parseRecord(bytes, &resident, &tmp)) {
        if (resident != keyBytes) {
            collisions_.add(1);
            return false;
        }
        return true; // identical key already stored
    }
    if (!publish(path, serializeRecord(keyBytes, rec)))
        return false;
    writes_.add(1);
    return true;
}

bool
VerdictStore::putBlob(const std::string &bytes, Hash128 *addr)
{
    *addr = contentHash128(bytes.data(), bytes.size());
    if (!enabled())
        return false;
    const std::string path = blobPath(*addr);
    std::error_code ec;
    if (fs::exists(path, ec)) {
        blobDedups_.add(1);
        return true;
    }
    // Published (and fsynced) before this returns, so before any record
    // put after it: a record must not reference a hole after a crash.
    if (!publish(path, sealEnvelope(kBlobMagic, bytes)))
        return false;
    blobWrites_.add(1);
    return true;
}

bool
VerdictStore::getBlob(const Hash128 &addr, std::string *out) const
{
    if (!enabled())
        return false;
    std::string bytes;
    if (!readFile(blobPath(addr), &bytes))
        return false;
    const char *payload = nullptr;
    size_t len = 0;
    if (!openEnvelope(bytes, kBlobMagic, &payload, &len))
        return false;
    out->assign(payload, len);
    return true;
}

StoreStats
VerdictStore::stats() const
{
    StoreStats s;
    s.hits = hits_.value();
    s.misses = misses_.value();
    s.collisions = collisions_.value();
    s.corrupt = corrupt_.value();
    s.writes = writes_.value();
    s.blobWrites = blobWrites_.value();
    s.blobDedups = blobDedups_.value();
    return s;
}

std::string
VerdictStore::serializeProofContext(const sat::Cnf &inputs,
                                    const sat::DratLog &log)
{
    Wr w;
    w.u32(static_cast<uint32_t>(inputs.numVars));
    w.u64(inputs.clauses.size());
    for (const auto &c : inputs.clauses)
        writeLits(w, c);
    w.u64(log.size());
    for (const auto &s : log) {
        w.u8(static_cast<uint8_t>(s.kind));
        writeLits(w, s.lits);
    }
    return w.out; // enveloped by putBlob
}

bool
VerdictStore::parseProofContext(const std::string &bytes, sat::Cnf *inputs,
                                sat::DratLog *log)
{
    Rd r(bytes.data(), bytes.size());
    inputs->numVars = static_cast<int>(r.u32());
    uint64_t nc = r.u64();
    if (!r.ok || nc > bytes.size())
        return false;
    inputs->clauses.assign(nc, {});
    for (uint64_t i = 0; i < nc; i++)
        if (!readLits(r, &inputs->clauses[i]))
            return false;
    uint64_t ns = r.u64();
    if (!r.ok || ns > bytes.size())
        return false;
    log->assign(ns, {});
    for (uint64_t i = 0; i < ns; i++) {
        uint8_t kind = r.u8();
        if (kind > 1)
            return false;
        (*log)[i].kind = static_cast<sat::DratStep::Kind>(kind);
        if (!readLits(r, &(*log)[i].lits))
            return false;
    }
    return r.atEnd();
}

bool
VerdictStore::checkProof(const sat::Cnf &inputs, const sat::DratLog &log,
                         const VerdictRecord &rec, std::string *why)
{
    std::string fail = checkProofs(inputs, log, {&rec}).front();
    if (why)
        *why = fail;
    return fail.empty();
}

std::vector<std::string>
VerdictStore::checkProofs(const sat::Cnf &inputs, const sat::DratLog &log,
                          const std::vector<const VerdictRecord *> &recs)
{
    // Prefix replay: inputs first, then the derivation prefix. The live
    // checker saw the two interleaved; feeding all prefix inputs up
    // front only grows the clause set available to each RUP check, and
    // RUP is monotone in that set, so the replay accepts every trace the
    // live checker accepted and its conclusion remains a genuine
    // refutation of inputs + assumptions (bmc::ProofRef doc).
    //
    // Shared replay: records are visited by (steps, inputs) prefix, and
    // each one feeds the checker only the inputs and steps its prefix
    // adds to the previous record's. So every step is RUP-checked
    // against the inputs of the first record whose prefix includes it
    // plus the steps before it: exactly what that record's own replay
    // holds (a recorded context deletes only clauses already fed). RUP
    // is monotone, so a step accepted there is accepted in the longer
    // prefixes too, and every clause the checker holds follows from the
    // inputs fed, so an accepted record refutes its own input prefix
    // under its assumptions. ok() latches, so after a failed step the
    // next record starts a fresh replay; so does a record whose inputs
    // fall below those already fed, which cannot extend that prefix.
    std::vector<size_t> order(recs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return std::pair(recs[a]->proofStepCount, recs[a]->proofInputCount) <
               std::pair(recs[b]->proofStepCount, recs[b]->proofInputCount);
    });
    std::vector<std::string> why(recs.size());
    std::unique_ptr<sat::DratChecker> chk;
    uint64_t fed_inputs = 0, fed_steps = 0;
    for (size_t i : order) {
        const VerdictRecord &rec = *recs[i];
        if (!rec.hasProof) {
            why[i] = "record carries no proof";
            continue;
        }
        if (rec.proofInputCount > inputs.clauses.size()) {
            why[i] = strfmt("proof references %llu input clauses, context "
                            "has %zu",
                            static_cast<unsigned long long>(
                                rec.proofInputCount),
                            inputs.clauses.size());
            continue;
        }
        if (rec.proofStepCount > log.size()) {
            why[i] = strfmt("proof references %llu steps, context has %zu",
                            static_cast<unsigned long long>(
                                rec.proofStepCount),
                            log.size());
            continue;
        }
        if (!chk || rec.proofInputCount < fed_inputs) {
            chk = std::make_unique<sat::DratChecker>();
            fed_inputs = fed_steps = 0;
        }
        for (; fed_inputs < rec.proofInputCount; fed_inputs++)
            chk->addInput(inputs.clauses[fed_inputs]);
        for (; fed_steps < rec.proofStepCount; fed_steps++)
            chk->step(log[fed_steps]);
        if (!chk->ok()) {
            why[i] = "proof replay: " + chk->firstFailure();
            chk.reset();
            continue;
        }
        std::vector<sat::Lit> assumptions(rec.assumptions.size());
        for (size_t k = 0; k < rec.assumptions.size(); k++)
            assumptions[k].x = rec.assumptions[k];
        if (!chk->checkUnsat(assumptions))
            why[i] = "proof replay: assumptions not refuted by unit "
                     "propagation over the replayed clause set";
    }
    return why;
}

ScanSummary
VerdictStore::scan()
{
    ScanSummary s;
    if (!enabled())
        return s;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(records_, ec)) {
        const std::string path = e.path().string();
        if (!e.is_regular_file() || e.path().extension() != ".vr")
            continue;
        std::string key;
        VerdictRecord rec;
        uint64_t bytes = 0;
        if (!loadRecord(path, &key, &rec, &bytes)) {
            s.corrupt++;
            continue;
        }
        s.records++;
        s.recordBytes += bytes;
        switch (rec.outcome) {
          case 0: s.reachable++; break;
          case 1: s.unreachable++; break;
          default: s.undetermined++; break;
        }
        if (rec.hasProof)
            s.withProof++;
    }
    for (const auto &e : fs::recursive_directory_iterator(blobs_, ec)) {
        if (!e.is_regular_file() || e.path().extension() != ".pb")
            continue;
        s.blobs++;
        std::error_code sec;
        s.blobBytes += fs::file_size(e.path(), sec);
    }
    return s;
}

VerifySummary
VerdictStore::verify()
{
    VerifySummary s;
    if (!enabled())
        return s;
    auto note = [&](const std::string &path, const std::string &msg) {
        if (s.firstFailure.empty())
            s.firstFailure = path + ": " + msg;
    };
    // Proof-carrying records grouped by the context blob they reference,
    // so each blob is read and parsed once and its records share replays.
    struct Proof
    {
        std::string path;
        VerdictRecord rec;
    };
    std::map<std::string, std::vector<Proof>> by_blob;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(records_, ec)) {
        if (!e.is_regular_file() || e.path().extension() != ".vr")
            continue;
        const std::string path = e.path().string();
        std::string key;
        VerdictRecord rec;
        if (!loadRecord(path, &key, &rec)) {
            s.corrupt++;
            note(path, "corrupt record (quarantined)");
            continue;
        }
        s.records++;
        if (!rec.hasProof)
            continue;
        s.proofs++;
        by_blob[hashHex(rec.proofBlob)].push_back(Proof{path, std::move(rec)});
    }
    for (const auto &[hex, group] : by_blob) {
        std::string blob;
        sat::Cnf inputs;
        sat::DratLog log;
        const char *bad = nullptr;
        if (!getBlob(group.front().rec.proofBlob, &blob))
            bad = "proof blob missing or corrupt";
        else if (!parseProofContext(blob, &inputs, &log))
            bad = "proof context failed to parse";
        if (bad) {
            s.missingBlobs += group.size();
            note(group.front().path, bad);
            continue;
        }
        std::vector<const VerdictRecord *> recs;
        recs.reserve(group.size());
        for (const Proof &p : group)
            recs.push_back(&p.rec);
        std::vector<std::string> why = checkProofs(inputs, log, recs);
        for (size_t i = 0; i < group.size(); i++) {
            if (why[i].empty()) {
                s.proofsOk++;
            } else {
                s.proofsFailed++;
                note(group[i].path, why[i]);
            }
        }
    }
    return s;
}

GcSummary
VerdictStore::gc(const GcPolicy &policy)
{
    GcSummary g;
    if (!enabled())
        return g;
    std::error_code ec;
    // Pass 1: drop quarantined/tmp leftovers, inventory live records.
    struct LiveRec
    {
        std::string path;
        uint64_t bytes = 0;
        fs::file_time_type mtime;
        bool hasBlob = false;
        std::string blobHex;
    };
    std::vector<LiveRec> live;
    for (const auto &e : fs::recursive_directory_iterator(records_, ec)) {
        if (!e.is_regular_file())
            continue;
        const std::string path = e.path().string();
        const std::string name = e.path().filename().string();
        if (name.find(".tmp.") != std::string::npos ||
            e.path().extension() == ".corrupt") {
            std::error_code rec_ec;
            fs::remove(e.path(), rec_ec);
            (name.find(".tmp.") != std::string::npos ? g.tmpRemoved
                                                     : g.corruptRemoved)++;
            continue;
        }
        if (e.path().extension() != ".vr")
            continue;
        std::string key;
        VerdictRecord rec;
        uint64_t bytes = 0;
        if (!loadRecord(path, &key, &rec, &bytes)) {
            // loadRecord quarantined it; a second gc pass removes it.
            continue;
        }
        LiveRec lr;
        lr.path = path;
        lr.bytes = bytes;
        std::error_code mec;
        lr.mtime = fs::last_write_time(e.path(), mec);
        lr.hasBlob = rec.hasProof;
        if (rec.hasProof)
            lr.blobHex = hashHex(rec.proofBlob);
        live.push_back(std::move(lr));
    }
    // Pass 2: blob inventory (hex stem -> path + size); sweep tmp files.
    std::unordered_map<std::string, std::pair<std::string, uint64_t>>
        blobInv;
    for (const auto &e : fs::recursive_directory_iterator(blobs_, ec)) {
        if (!e.is_regular_file())
            continue;
        const std::string name = e.path().filename().string();
        if (name.find(".tmp.") != std::string::npos) {
            std::error_code rec_ec;
            fs::remove(e.path(), rec_ec);
            g.tmpRemoved++;
            continue;
        }
        if (e.path().extension() != ".pb")
            continue;
        std::error_code sec;
        blobInv[e.path().stem().string()] = {
            e.path().string(),
            static_cast<uint64_t>(fs::file_size(e.path(), sec))};
    }
    // Eviction: footprint = live records + the blobs they reference.
    std::unordered_map<std::string, uint64_t> refs;
    for (const LiveRec &lr : live)
        if (lr.hasBlob)
            refs[lr.blobHex]++;
    uint64_t footprint = 0;
    for (const LiveRec &lr : live)
        footprint += lr.bytes;
    for (const auto &[hex, n] : refs) {
        auto it = blobInv.find(hex);
        if (n && it != blobInv.end())
            footprint += it->second.second;
    }
    auto evict = [&](const LiveRec &lr) {
        std::error_code rec_ec;
        fs::remove(lr.path, rec_ec);
        g.evictedRecords++;
        g.evictedBytes += lr.bytes;
        footprint -= lr.bytes;
        if (lr.hasBlob && --refs[lr.blobHex] == 0) {
            auto it = blobInv.find(lr.blobHex);
            if (it != blobInv.end()) {
                // Newly orphaned: pass 3 removes the file; account the
                // bytes to this eviction.
                g.evictedBytes += it->second.second;
                footprint -= it->second.second;
            }
        }
    };
    std::sort(live.begin(), live.end(),
              [](const LiveRec &a, const LiveRec &b) {
                  return a.mtime < b.mtime;
              });
    std::vector<char> gone(live.size(), 0);
    if (policy.maxAgeSeconds) {
        // Compare ages, not times: a cutoff of now - maxAge overflows
        // the nanosecond file clock for limits of ~145 years and up,
        // and the wrapped cutoff would age out every record.
        auto now = fs::file_time_type::clock::now();
        for (size_t i = 0; i < live.size(); i++) {
            auto age = std::chrono::duration_cast<std::chrono::seconds>(
                           now - live[i].mtime)
                           .count();
            if (age > 0 &&
                static_cast<uint64_t>(age) > policy.maxAgeSeconds) {
                evict(live[i]);
                gone[i] = 1;
            }
        }
    }
    if (policy.maxBytes) {
        // Oldest-first until the budget holds; newest survivors keep
        // the store warm for the traffic most likely to repeat.
        for (size_t i = 0;
             i < live.size() && footprint > policy.maxBytes; i++) {
            if (gone[i])
                continue;
            evict(live[i]);
            gone[i] = 1;
        }
    }
    for (size_t i = 0; i < live.size(); i++)
        if (!gone[i])
            g.liveRecords++;
    // Pass 3: blobs referenced by no surviving record are orphans.
    for (const auto &[hex, pb] : blobInv) {
        auto it = refs.find(hex);
        if (it != refs.end() && it->second > 0) {
            g.liveBlobs++;
            continue;
        }
        std::error_code rec_ec;
        fs::remove(pb.first, rec_ec);
        g.orphanBlobsRemoved++;
    }
    return g;
}

} // namespace rmp::store
