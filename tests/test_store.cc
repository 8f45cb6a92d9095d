/**
 * @file
 * Persistent verdict store tests: record codec roundtrips, the paranoid
 * load path (truncation, corruption, quarantine), on-disk digest-
 * collision detection, cross-process and cross-thread writer races, and
 * the end-to-end synthesis integration — a second run answered from the
 * store must reproduce the first run's μPATHs byte for byte, skip
 * re-auditing, and leave a store that `verify` re-checks clean.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/interrupt.hh"
#include "designs/catalog.hh"
#include "exec/engine_pool.hh"
#include "prop/property.hh"
#include "sat/drat.hh"
#include "sat/solver.hh"
#include "report/report.hh"
#include "rtl2mupath/synth.hh"
#include "store/verdict_store.hh"

using namespace rmp;
using namespace rmp::store;
namespace fs = std::filesystem;

namespace
{

std::string
makeTempRoot()
{
    char tmpl[] = "/tmp/rmp-store-test-XXXXXX";
    char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "";
}

VerdictRecord
sampleRecord()
{
    VerdictRecord rec;
    rec.outcome = 0; // Reachable
    rec.inputs = {{{3, 1}, {7, 0xdeadbeef}}, {{1, 42}}};
    rec.matchFrame = 5;
    rec.hasTrace = true;
    rec.seconds = 0.25;
    rec.coiCells = 99;
    rec.aigNodes = 1234;
    rec.satVars = 567;
    return rec;
}

} // anonymous namespace

TEST(VerdictStore, RecordRoundtrip)
{
    VerdictRecord rec = sampleRecord();
    rec.outcome = 1;
    rec.hasProof = true;
    rec.proofBlob = Hash128{0x1111, 0x2222};
    rec.proofInputCount = 10;
    rec.proofStepCount = 20;
    rec.assumptions = {2, 5, -1};

    std::string bytes = VerdictStore::serializeRecord("key-bytes", rec);
    std::string kb;
    VerdictRecord back;
    ASSERT_TRUE(VerdictStore::parseRecord(bytes, &kb, &back));
    EXPECT_EQ(kb, "key-bytes");
    EXPECT_EQ(back.outcome, rec.outcome);
    EXPECT_EQ(back.inputs, rec.inputs);
    EXPECT_EQ(back.matchFrame, rec.matchFrame);
    EXPECT_EQ(back.hasTrace, rec.hasTrace);
    EXPECT_DOUBLE_EQ(back.seconds, rec.seconds);
    EXPECT_EQ(back.coiCells, rec.coiCells);
    EXPECT_EQ(back.aigNodes, rec.aigNodes);
    EXPECT_EQ(back.satVars, rec.satVars);
    EXPECT_TRUE(back.hasProof);
    EXPECT_EQ(back.proofBlob.lo, rec.proofBlob.lo);
    EXPECT_EQ(back.proofBlob.hi, rec.proofBlob.hi);
    EXPECT_EQ(back.proofInputCount, rec.proofInputCount);
    EXPECT_EQ(back.proofStepCount, rec.proofStepCount);
    EXPECT_EQ(back.assumptions, rec.assumptions);
}

TEST(VerdictStore, TruncatedAndBitflippedRecordsRejected)
{
    std::string bytes =
        VerdictStore::serializeRecord("kb", sampleRecord());
    std::string kb;
    VerdictRecord rec;
    // Every truncation point must be rejected, not crash.
    for (size_t cut : {size_t{0}, size_t{3}, size_t{11}, size_t{23},
                       bytes.size() - 1})
        EXPECT_FALSE(VerdictStore::parseRecord(bytes.substr(0, cut), &kb,
                                               &rec))
            << "cut=" << cut;
    // A flipped payload byte must fail the checksum.
    std::string flipped = bytes;
    flipped[bytes.size() - 1] =
        static_cast<char>(flipped[bytes.size() - 1] ^ 0x40);
    EXPECT_FALSE(VerdictStore::parseRecord(flipped, &kb, &rec));
    // Unchanged bytes still parse (the harness above isn't vacuous).
    EXPECT_TRUE(VerdictStore::parseRecord(bytes, &kb, &rec));
}

TEST(VerdictStore, DisabledStoreNoops)
{
    // A root that cannot be created (file in the way) disables the store.
    std::string root = makeTempRoot();
    std::string blocker = root + "/blocked";
    std::ofstream(blocker) << "x";
    VerdictStore st(blocker + "/store");
    EXPECT_FALSE(st.enabled());
    VerdictRecord rec;
    EXPECT_FALSE(st.put(1, 2, "kb", sampleRecord()));
    EXPECT_FALSE(st.get(1, 2, "kb", &rec));
    fs::remove_all(root);
}

TEST(VerdictStore, PutGetAndCorruptQuarantine)
{
    std::string root = makeTempRoot();
    {
        VerdictStore st(root);
        ASSERT_TRUE(st.enabled());
        ASSERT_TRUE(st.put(0xabc, 0xdef, "key1", sampleRecord()));
        VerdictRecord rec;
        ASSERT_TRUE(st.get(0xabc, 0xdef, "key1", &rec));
        EXPECT_EQ(rec.outcome, 0);
        EXPECT_EQ(st.stats().hits, 1u);

        // Corrupt the record on disk: the next load must quarantine it
        // (renamed *.corrupt), count it, and miss.
        std::string path = st.recordPath(0xabc, 0xdef);
        {
            std::fstream f(path, std::ios::in | std::ios::out |
                                     std::ios::binary);
            f.seekp(30);
            f.put('\x7f');
        }
        EXPECT_FALSE(st.get(0xabc, 0xdef, "key1", &rec));
        EXPECT_EQ(st.stats().corrupt, 1u);
        EXPECT_FALSE(fs::exists(path));
        EXPECT_TRUE(fs::exists(path + ".corrupt"));

        // gc removes the quarantined file.
        GcSummary g = st.gc();
        EXPECT_EQ(g.corruptRemoved, 1u);
        EXPECT_FALSE(fs::exists(path + ".corrupt"));
    }
    fs::remove_all(root);
}

TEST(VerdictStore, DigestCollisionDetectedOnDisk)
{
    std::string root = makeTempRoot();
    {
        VerdictStore st(root);
        ASSERT_TRUE(st.enabled());
        VerdictRecord a = sampleRecord();
        ASSERT_TRUE(st.put(7, 9, "canonical-bytes-A", a));

        // Same digest, different canonical bytes: the lookup must miss
        // (counted collision), never alias.
        VerdictRecord rec;
        EXPECT_FALSE(st.get(7, 9, "canonical-bytes-B", &rec));
        EXPECT_EQ(st.stats().collisions, 1u);

        // And the colliding put must not displace the resident record.
        VerdictRecord b = sampleRecord();
        b.outcome = 2;
        EXPECT_FALSE(st.put(7, 9, "canonical-bytes-B", b));
        ASSERT_TRUE(st.get(7, 9, "canonical-bytes-A", &rec));
        EXPECT_EQ(rec.outcome, 0);

        // Re-putting the identical key is a no-op success.
        EXPECT_TRUE(st.put(7, 9, "canonical-bytes-A", a));
    }
    fs::remove_all(root);
}

TEST(VerdictStore, ConcurrentWritersRaceOneKey)
{
    std::string root = makeTempRoot();
    // Two processes hammer the same keys; both must survive and the
    // store must end up with valid, verifiable records (last rename
    // wins; both writers publish identical canonical content).
    constexpr int kKeys = 16, kRounds = 20;
    auto writer = [&]() {
        VerdictStore st(root);
        for (int r = 0; r < kRounds; r++)
            for (int k = 0; k < kKeys; k++) {
                VerdictRecord rec = sampleRecord();
                rec.matchFrame = static_cast<uint32_t>(k);
                st.put(static_cast<uint64_t>(k), 77,
                       "key-" + std::to_string(k), rec);
            }
        _exit(0); // every put() has published before it returned
    };
    pid_t a = fork();
    ASSERT_GE(a, 0);
    if (a == 0)
        writer();
    pid_t b = fork();
    ASSERT_GE(b, 0);
    if (b == 0)
        writer();
    int sa = -1, sb = -1;
    ASSERT_EQ(waitpid(a, &sa, 0), a);
    ASSERT_EQ(waitpid(b, &sb, 0), b);
    EXPECT_TRUE(WIFEXITED(sa) && WEXITSTATUS(sa) == 0);
    EXPECT_TRUE(WIFEXITED(sb) && WEXITSTATUS(sb) == 0);

    VerdictStore st(root);
    for (int k = 0; k < kKeys; k++) {
        VerdictRecord rec;
        ASSERT_TRUE(st.get(static_cast<uint64_t>(k), 77,
                           "key-" + std::to_string(k), &rec))
            << "key " << k;
        EXPECT_EQ(rec.matchFrame, static_cast<uint32_t>(k));
    }
    VerifySummary v = st.verify();
    EXPECT_TRUE(v.ok()) << v.firstFailure;
    EXPECT_EQ(v.records, static_cast<uint64_t>(kKeys));
    fs::remove_all(root);
}

TEST(VerdictStore, ShardedLayout)
{
    std::string root = makeTempRoot();
    {
        VerdictStore st(root);
        ASSERT_TRUE(st.enabled());
        ASSERT_TRUE(st.put(0x1234, 0x5678, "sharded-key", sampleRecord()));
        Hash128 addr;
        ASSERT_TRUE(st.putBlob("blob-bytes", &addr));

        // Records and blobs live under a 2-hex-digit digest-prefix
        // shard directory, so concurrent writers spread their renames
        // across 256 directories instead of contending on one.
        std::string rp = st.recordPath(0x1234, 0x5678);
        ASSERT_TRUE(fs::exists(rp)) << rp;
        fs::path rel = fs::relative(rp, fs::path(root) / "records");
        ASSERT_EQ(std::distance(rel.begin(), rel.end()), 2) << rel;
        EXPECT_EQ(rel.begin()->string().size(), 2u) << rel;
        EXPECT_EQ(rel.begin()->string(),
                  rel.filename().string().substr(0, 2));
        std::string bp = st.blobPath(addr);
        ASSERT_TRUE(fs::exists(bp)) << bp;
        EXPECT_NE(bp.find("/blobs/"), std::string::npos);
    }
    fs::remove_all(root);
}

TEST(VerdictStore, WritesVisibleToTheWritingProcess)
{
    std::string root = makeTempRoot();
    {
        VerdictStore st(root);
        ASSERT_TRUE(st.enabled());
        // Read-your-writes without a barrier: put() and putBlob()
        // publish before they return.
        ASSERT_TRUE(st.put(1, 2, "early-key", sampleRecord()));
        VerdictRecord rec;
        EXPECT_TRUE(st.get(1, 2, "early-key", &rec));
        Hash128 addr;
        ASSERT_TRUE(st.putBlob("early-blob", &addr));
        std::string back;
        EXPECT_TRUE(st.getBlob(addr, &back));
        EXPECT_EQ(back, "early-blob");
        // Re-putting the same blob dedups against the published one.
        Hash128 addr2;
        ASSERT_TRUE(st.putBlob("early-blob", &addr2));
        EXPECT_EQ(addr2.lo, addr.lo);
        EXPECT_EQ(addr2.hi, addr.hi);
        EXPECT_GE(st.stats().blobDedups, 1u);
    }
    fs::remove_all(root);
}

TEST(VerdictStore, ThreadsRacingOneKeyKeepTheStoreValid)
{
    // Daemon workers of one process share query keys across warm
    // entries, so two threads can publish one record at once. Each
    // publish needs a tmp file of its own: with one per process, a
    // writer truncates the other's half-written bytes or renames them
    // into place, and a reader quarantines the torn record.
    std::string root = makeTempRoot();
    constexpr int kKeys = 512;
    auto keyOf = [](int k) { return "race-key-" + std::to_string(k); };
    {
        VerdictStore st(root);
        ASSERT_TRUE(st.enabled());
        std::barrier meet(2);
        auto writer = [&] {
            for (int k = 0; k < kKeys; k++) {
                meet.arrive_and_wait(); // both publish key k together
                Hash128 addr;
                st.putBlob("race-blob", &addr);
                VerdictRecord rec = sampleRecord();
                rec.matchFrame = static_cast<uint32_t>(k);
                st.put(static_cast<uint64_t>(k), 0x7ace, keyOf(k), rec);
            }
        };
        std::atomic<bool> written{false};
        auto reader = [&] {
            VerdictRecord rec;
            while (!written.load())
                for (int k = 0; k < kKeys; k++)
                    st.get(static_cast<uint64_t>(k), 0x7ace, keyOf(k),
                           &rec);
        };
        std::thread r(reader);
        std::thread a(writer), b(writer);
        a.join();
        b.join();
        written = true;
        r.join();

        EXPECT_EQ(st.stats().corrupt, 0u);
        for (int k = 0; k < kKeys; k++) {
            VerdictRecord rec;
            ASSERT_TRUE(st.get(static_cast<uint64_t>(k), 0x7ace, keyOf(k),
                               &rec))
                << "key " << k;
            EXPECT_EQ(rec.matchFrame, static_cast<uint32_t>(k));
        }
        VerifySummary v = st.verify();
        EXPECT_TRUE(v.ok()) << v.firstFailure;
        EXPECT_EQ(v.records, static_cast<uint64_t>(kKeys));
    }
    for (const auto &e : fs::recursive_directory_iterator(root))
        EXPECT_EQ(e.path().filename().string().find(".tmp."),
                  std::string::npos)
            << e.path();
    fs::remove_all(root);
}

TEST(VerdictStore, GcPolicyEvictsByAgeAndSize)
{
    std::string root = makeTempRoot();
    {
        VerdictStore st(root);
        ASSERT_TRUE(st.enabled());
        for (int k = 0; k < 8; k++)
            ASSERT_TRUE(st.put(static_cast<uint64_t>(k), 99,
                               "gc-key-" + std::to_string(k),
                               sampleRecord()));

        // Age out half the records by backdating their mtimes.
        for (int k = 0; k < 4; k++)
            fs::last_write_time(
                st.recordPath(static_cast<uint64_t>(k), 99),
                fs::file_time_type::clock::now() -
                    std::chrono::hours(24 * 30));
        // Limits past the file clock's range keep everything: a limit
        // is compared with each record's age, never turned into a
        // cutoff time that could wrap into the future.
        for (uint64_t huge : {uint64_t{54'000} * 86'400, UINT64_MAX}) {
            GcPolicy keepAll;
            keepAll.maxAgeSeconds = huge;
            GcSummary g0 = st.gc(keepAll);
            EXPECT_EQ(g0.evictedRecords, 0u) << huge;
            EXPECT_EQ(g0.liveRecords, 8u) << huge;
        }
        GcPolicy oldOnly;
        oldOnly.maxAgeSeconds = 7 * 86'400;
        GcSummary g1 = st.gc(oldOnly);
        EXPECT_EQ(g1.evictedRecords, 4u);
        EXPECT_GT(g1.evictedBytes, 0u);
        EXPECT_EQ(g1.liveRecords, 4u);

        // Size cap: shrink until at most one record's bytes remain.
        uint64_t oneRecord =
            fs::file_size(st.recordPath(7, 99));
        GcPolicy cap;
        cap.maxBytes = oneRecord;
        GcSummary g2 = st.gc(cap);
        EXPECT_EQ(g2.liveRecords, 1u);
        EXPECT_EQ(g2.evictedRecords, 3u);

        // The survivor still answers; evicted keys miss cleanly.
        VerdictRecord rec;
        int live = 0;
        for (int k = 4; k < 8; k++)
            live += st.get(static_cast<uint64_t>(k), 99,
                           "gc-key-" + std::to_string(k), &rec)
                        ? 1
                        : 0;
        EXPECT_EQ(live, 1);
        VerifySummary v = st.verify();
        EXPECT_TRUE(v.ok()) << v.firstFailure;
    }
    fs::remove_all(root);
}

TEST(VerdictStore, ProofContextRoundtrip)
{
    auto lit = [](int32_t x) {
        sat::Lit l;
        l.x = x;
        return l;
    };
    sat::Cnf cnf;
    cnf.numVars = 3;
    cnf.clauses = {{lit(2), lit(5)}, {lit(3)}};
    sat::DratLog log;
    sat::DratStep add;
    add.kind = sat::DratStep::Kind::Add;
    add.lits = {lit(4)};
    sat::DratStep del;
    del.kind = sat::DratStep::Kind::Delete;
    del.lits = {lit(2), lit(5)};
    log = {add, del};

    std::string bytes = VerdictStore::serializeProofContext(cnf, log);
    sat::Cnf cnf2;
    sat::DratLog log2;
    ASSERT_TRUE(VerdictStore::parseProofContext(bytes, &cnf2, &log2));
    EXPECT_EQ(cnf2.numVars, cnf.numVars);
    ASSERT_EQ(cnf2.clauses.size(), 2u);
    EXPECT_EQ(cnf2.clauses[0][0].x, 2);
    ASSERT_EQ(log2.size(), 2u);
    EXPECT_EQ(log2[0].kind, sat::DratStep::Kind::Add);
    EXPECT_EQ(log2[1].kind, sat::DratStep::Kind::Delete);
    ASSERT_EQ(log2[1].lits.size(), 2u);
    EXPECT_EQ(log2[1].lits[1].x, 5);

    // The checksum envelope is putBlob's job; the payload codec itself
    // must still reject truncation.
    EXPECT_FALSE(VerdictStore::parseProofContext(
        bytes.substr(0, bytes.size() - 1), &cnf2, &log2));
}

/**
 * Regression: a verdict produced by the solver's conflicting-assumption
 * path (assumption already false under propagation) used to log nothing
 * to the ProofSink, so the stored proof context could not re-refute the
 * assumptions and `rmp store verify` flagged the record. With
 * analyzeFinal the core clause is derived into the trace and the stored
 * proof closes.
 */
TEST(VerdictStore, AssumptionUnsatVerdictReproves)
{
    auto lit = [](sat::Var v, bool s) { return sat::Lit(v, s); };
    sat::Solver solver;
    sat::DratLogRecorder rec_sink;
    solver.setProofSink(&rec_sink);
    sat::Var a = solver.newVar(), b = solver.newVar(),
             x = solver.newVar(), y = solver.newVar();
    solver.addClause({lit(a, true), lit(x, false)});  // a -> x
    solver.addClause({lit(b, true), lit(y, false)});  // b -> y
    solver.addClause({lit(x, true), lit(y, true)});   // not both
    std::vector<sat::Lit> assumes = {lit(a, false), lit(b, false)};
    ASSERT_EQ(solver.solve(assumes), sat::SatResult::Unsat);
    // The second Unsat must take the conflicting-assumption path: after
    // the first solve's learned clauses, assuming a propagates ~b before
    // the assumption b is even applied.
    ASSERT_EQ(solver.solve(assumes), sat::SatResult::Unsat);
    ASSERT_GT(solver.stats().assumptionConflicts, 0u);

    // Store the verdict exactly the way bmc::Engine does: the live
    // (inputs, trace) context as a blob, counts + assumptions in the
    // record.
    std::string root = makeTempRoot();
    {
        VerdictStore st(root);
        ASSERT_TRUE(st.enabled());
        VerdictRecord rec;
        rec.outcome = 1; // Unreachable
        rec.hasProof = true;
        rec.proofInputCount = rec_sink.inputs().clauses.size();
        rec.proofStepCount = rec_sink.log().size();
        for (sat::Lit l : assumes)
            rec.assumptions.push_back(l.x);
        ASSERT_TRUE(st.putBlob(VerdictStore::serializeProofContext(
                                   rec_sink.inputs(), rec_sink.log()),
                               &rec.proofBlob));
        ASSERT_TRUE(st.put(0xabcd, 0x1234, "assumption-unsat-key", rec));

        // Direct re-proof of the record we just built...
        std::string why;
        EXPECT_TRUE(VerdictStore::checkProof(rec_sink.inputs(),
                                             rec_sink.log(), rec, &why))
            << why;
    }
    // ...and the store-wide audit agrees.
    VerdictStore st(root);
    VerifySummary v = st.verify();
    EXPECT_TRUE(v.ok()) << v.firstFailure;
    EXPECT_EQ(v.proofs, 1u);
    EXPECT_EQ(v.proofsOk, 1u);
    fs::remove_all(root);
}

TEST(VerdictStore, SharedReplayFailsOnlyRecordsPastABadStep)
{
    // Three records over one context, as one engine writes them: the
    // first record's prefix is a genuine refutation, and the context
    // then gains a step that is not RUP. verify() replays the three
    // prefixes on one checker; only the two records whose prefix
    // includes the bad step may fail.
    auto lit = [](sat::Var v, bool s) { return sat::Lit(v, s); };
    sat::Solver solver;
    sat::DratLogRecorder rec_sink;
    solver.setProofSink(&rec_sink);
    sat::Var a = solver.newVar(), b = solver.newVar(),
             x = solver.newVar(), y = solver.newVar();
    solver.addClause({lit(a, true), lit(x, false)});  // a -> x
    solver.addClause({lit(b, true), lit(y, false)});  // b -> y
    solver.addClause({lit(x, true), lit(y, true)});   // not both
    std::vector<sat::Lit> assumes = {lit(a, false), lit(b, false)};
    ASSERT_EQ(solver.solve(assumes), sat::SatResult::Unsat);
    const uint64_t good_steps = rec_sink.log().size();
    // "x" alone does not follow from the clauses by unit propagation.
    rec_sink.onDerive({lit(x, false)});
    rec_sink.onDelete({lit(x, false)});
    const sat::DratLog &log = rec_sink.log();
    ASSERT_EQ(log.size(), good_steps + 2);

    std::string root = makeTempRoot();
    std::string late_paths;
    {
        VerdictStore st(root);
        ASSERT_TRUE(st.enabled());
        Hash128 blob;
        ASSERT_TRUE(st.putBlob(VerdictStore::serializeProofContext(
                                   rec_sink.inputs(), log),
                               &blob));
        for (uint64_t steps : {good_steps + 2, good_steps, good_steps + 1}) {
            VerdictRecord rec;
            rec.outcome = 1; // Unreachable
            rec.hasProof = true;
            rec.proofBlob = blob;
            rec.proofInputCount = rec_sink.inputs().clauses.size();
            rec.proofStepCount = steps;
            for (sat::Lit l : assumes)
                rec.assumptions.push_back(l.x);
            ASSERT_TRUE(st.put(steps, 0x5eed, "shared-replay-key", rec));
            if (steps > good_steps)
                late_paths += st.recordPath(steps, 0x5eed) + "\n";
        }
    }
    VerdictStore st(root);
    VerifySummary v = st.verify();
    EXPECT_EQ(v.proofs, 3u);
    EXPECT_EQ(v.proofsOk, 1u);
    EXPECT_EQ(v.proofsFailed, 2u);
    size_t colon = v.firstFailure.find(": ");
    ASSERT_NE(colon, std::string::npos) << v.firstFailure;
    EXPECT_NE(late_paths.find(v.firstFailure.substr(0, colon) + "\n"),
              std::string::npos)
        << v.firstFailure;
    fs::remove_all(root);
}

/**
 * End-to-end: a cold synthesis populates the store (records + DRAT
 * blobs); a second, fresh synthesizer answers from it with zero solver
 * re-audits and byte-identical μPATHs, and `verify` independently
 * re-checks every stored proof.
 */
TEST(VerdictStoreIntegration, ColdThenWarmSynthesisIdentical)
{
    clearInterrupt(); // other tests may have exercised the flag
    std::string root = makeTempRoot();
    std::string renderCold, renderWarm;
    exec::PoolStats cold, warm;

    auto synthOnce = [&](std::string *render, exec::PoolStats *stats) {
        VerdictStore st(root);
        ASSERT_TRUE(st.enabled());
        designs::Harness hx(*designs::buildDuv("tiny3"));
        r2m::SynthesisConfig cfg;
        cfg.auditProof = true; // DRAT-audit every solver verdict
        cfg.store = &st;
        std::vector<uhb::InstrId> ids;
        for (size_t i = 0; i < hx.duv().instrs.size(); i++)
            ids.push_back(static_cast<uhb::InstrId>(i));
        {
            r2m::MuPathSynthesizer synth(hx, cfg);
            auto all = synth.synthesizeAll(ids);
            *render = report::renderSynthAll(hx, ids, all);
            *stats = synth.pool().stats();
        } // pool dtor flushes pending proof blobs into the store
    };

    synthOnce(&renderCold, &cold);
    EXPECT_GT(cold.store.writes, 0u);
    EXPECT_GT(cold.engine.auditProofChecked, 0u);
    EXPECT_EQ(cold.engine.auditMismatches, 0u);

    synthOnce(&renderWarm, &warm);
    EXPECT_EQ(renderWarm, renderCold);
    EXPECT_GT(warm.store.hits, 0u);
    EXPECT_EQ(warm.store.misses, 0u);
    // The audited verdicts came from the store: no solver ran, so
    // nothing was re-audited — the evidence was checked once, persisted,
    // and is re-checkable on demand via verify() below.
    EXPECT_EQ(warm.engine.auditProofChecked, 0u);
    EXPECT_EQ(warm.engine.queries, 0u);

    VerdictStore st(root);
    VerifySummary v = st.verify();
    EXPECT_TRUE(v.ok()) << v.firstFailure;
    EXPECT_GT(v.proofs, 0u);
    EXPECT_EQ(v.proofsOk, v.proofs);
    fs::remove_all(root);
}

/**
 * A Reachable verdict's witness is one artifact whichever layer answers:
 * the solver's replay-validated witness, a memory-cache hit and a store
 * hit (each re-deriving the trace by replay) carry the same inputs,
 * match frame and full trace.
 */
TEST(VerdictStoreIntegration, WitnessTraceSameFromSolverCacheAndStore)
{
    clearInterrupt();
    std::string root = makeTempRoot();
    designs::Harness hx(*designs::buildDuv("tiny3"));
    const bmc::EngineConfig ec =
        r2m::MuPathSynthesizer(hx).pool().engineConfig();
    const prop::ExprRef seq = prop::pBit(hx.plSig(0).occupied);
    const std::vector<prop::ExprRef> assumes = hx.baseAssumes();

    bmc::CoverResult solved, memHit, storeHit;
    {
        VerdictStore st(root);
        ASSERT_TRUE(st.enabled());
        exec::EnginePool a(hx.design(), ec, &st);
        solved = a.eval(seq, assumes); // miss: solved, then written through
        memHit = a.eval(seq, assumes);
        EXPECT_EQ(a.stats().cache.hits, 1u);
        EXPECT_EQ(a.stats().engine.queries, 1u);
    }
    {
        VerdictStore st(root);
        exec::EnginePool b(hx.design(), ec, &st);
        storeHit = b.eval(seq, assumes);
        EXPECT_EQ(b.stats().store.hits, 1u);
        EXPECT_EQ(b.stats().engine.queries, 0u);
    }

    ASSERT_EQ(solved.outcome, bmc::Outcome::Reachable);
    ASSERT_GT(solved.witness.trace.numCycles(), 0u);
    for (const bmc::CoverResult *r : {&memHit, &storeHit}) {
        EXPECT_EQ(r->outcome, solved.outcome);
        EXPECT_EQ(r->witness.inputs, solved.witness.inputs);
        EXPECT_EQ(r->witness.matchFrame, solved.witness.matchFrame);
        EXPECT_EQ(r->witness.trace.frames, solved.witness.trace.frames);
    }
    fs::remove_all(root);
}

TEST(VerdictStoreIntegration, StaleVersionRejected)
{
    std::string root = makeTempRoot();
    {
        VerdictStore st(root);
        ASSERT_TRUE(st.put(1, 2, "kb", sampleRecord()));
        // Bump the on-disk version field (offset 4, after the magic):
        // the load must reject it as stale, not misparse it.
        std::string path = st.recordPath(1, 2);
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(4);
        f.put('\x63');
        f.close();
        VerdictRecord rec;
        EXPECT_FALSE(st.get(1, 2, "kb", &rec));
        EXPECT_EQ(st.stats().corrupt, 1u);
    }
    fs::remove_all(root);
}
