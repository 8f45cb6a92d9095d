/**
 * @file
 * Daemon tests: the NDJSON parser, and an in-process Server exercised
 * through real Unix-socket clients — ping/stats, warm-registry repeat
 * identity, error paths, queue backpressure, cancellation of a queued
 * job via pipelined requests, graceful shutdown, store continuity
 * across a daemon restart, the multi-worker pool (concurrent pipelined
 * clients with per-key repeat identity — the TSan stress target),
 * warm entries that hold no threads, streaming progress events,
 * mid-batch drain durability, and two forked daemons sharing one store
 * root.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "store/verdict_store.hh"

#include "serve/client.hh"
#include "serve/json.hh"
#include "serve/server.hh"

using namespace rmp;
using namespace rmp::serve;
namespace fs = std::filesystem;

namespace
{

// ---------------------------------------------------------------- JSON

JsonValue
mustParse(const std::string &text)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(parseJson(text, &v, &err)) << text << ": " << err;
    return v;
}

TEST(ServeJson, ParsesScalarsAndContainers)
{
    JsonValue v = mustParse(
        R"({"a":1,"b":-2.5e2,"c":"x\ny","d":[true,false,null],"e":{}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.u64("a"), 1u);
    const JsonValue *b = v.find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_DOUBLE_EQ(b->number, -250.0);
    EXPECT_EQ(v.str("c"), "x\ny");
    const JsonValue *d = v.find("d");
    ASSERT_NE(d, nullptr);
    ASSERT_EQ(d->items.size(), 3u);
    EXPECT_EQ(d->items[0].kind, JsonValue::Kind::Bool);
    EXPECT_TRUE(d->items[0].boolean);
    EXPECT_EQ(d->items[2].kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.find("e")->kind, JsonValue::Kind::Object);
    // Defaults for absent / wrong-typed keys.
    EXPECT_EQ(v.str("missing", "def"), "def");
    EXPECT_EQ(v.u64("c", 9), 9u);
    EXPECT_TRUE(v.boolean_("missing", true));
    // Numbers past the uint64_t range fall back too, never converted.
    EXPECT_EQ(mustParse(R"({"big":1e30})").u64("big", 9), 9u);
}

TEST(ServeJson, UnicodeEscapes)
{
    JsonValue v = mustParse(R"({"s":"\u0041\u00e9\u4e2d\ud83d\ude00"})");
    EXPECT_EQ(v.str("s"),
              "A\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80"); // A é 中 😀
}

TEST(ServeJson, RejectsMalformedInput)
{
    JsonValue v;
    std::string err;
    const char *bad[] = {
        "",            // empty
        "{",           // truncated object
        "[1,]",        // trailing comma
        "{\"a\" 1}",   // missing colon
        "\"\\u12\"",   // truncated escape
        "\"\\ud800\"", // unpaired surrogate
        "01",          // leading zero handled as trailing bytes
        "{} extra",    // trailing bytes
        "nul",         // bad literal
        "1e999",       // non-finite
    };
    for (const char *t : bad)
        EXPECT_FALSE(parseJson(t, &v, &err)) << t;
    // Nesting bound.
    std::string deep(100, '[');
    deep += std::string(100, ']');
    EXPECT_FALSE(parseJson(deep, &v, &err));
}

// -------------------------------------------------------------- server

/** In-process daemon on a temp socket; signals disabled, private store
 *  root under the temp dir. */
struct TestServer
{
    std::string dir;
    ServeConfig cfg;
    std::unique_ptr<Server> server;
    std::thread runner;
    int runResult = -1;

    explicit TestServer(unsigned max_queue = 64, bool use_store = true,
                        unsigned workers = 0, unsigned jobs = 2)
    {
        char tmpl[] = "/tmp/rmp-serve-test-XXXXXX";
        char *d = mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        dir = d ? d : "";
        cfg.socketPath = dir + "/rmp.sock";
        cfg.workers = workers;
        cfg.maxQueue = max_queue;
        cfg.useStore = use_store;
        cfg.storeRoot = dir + "/store";
        cfg.jobs = jobs;
        cfg.handleSignals = false;
        start();
    }

    void
    start()
    {
        server = std::make_unique<Server>(cfg);
        std::string err;
        ASSERT_TRUE(server->start(&err)) << err;
        runner = std::thread([this] { runResult = server->run(); });
    }

    /** Drain via the shutdown op (or stop()) and join run(). */
    void
    shutdown()
    {
        if (!runner.joinable())
            return;
        server->stop();
        runner.join();
    }

    ~TestServer()
    {
        shutdown();
        fs::remove_all(dir);
    }

    JsonValue
    req(Client &c, const std::string &json)
    {
        JsonValue resp;
        std::string err;
        EXPECT_TRUE(c.requestJson(json, &resp, &err, 60'000))
            << json << ": " << err;
        return resp;
    }

    void
    connect(Client &c)
    {
        std::string err;
        ASSERT_TRUE(c.connect(cfg.socketPath, &err)) << err;
    }
};

TEST(Serve, PingStatsAndUnknownOp)
{
    TestServer ts;
    Client c;
    ts.connect(c);

    JsonValue pong = ts.req(c, R"({"id":7,"op":"ping"})");
    EXPECT_TRUE(pong.boolean_("ok"));
    EXPECT_EQ(pong.u64("id"), 7u);
    EXPECT_FALSE(pong.str("version").empty());

    JsonValue st = ts.req(c, R"({"id":8,"op":"stats"})");
    EXPECT_TRUE(st.boolean_("ok"));
    EXPECT_EQ(st.u64("warm_entries"), 0u);
    EXPECT_EQ(st.u64("queue_depth"), 0u);
    ASSERT_NE(st.find("store"), nullptr);

    JsonValue bad = ts.req(c, R"({"id":9,"op":"frobnicate"})");
    EXPECT_FALSE(bad.boolean_("ok", true));
    EXPECT_NE(bad.str("error").find("unknown op"), std::string::npos);

    JsonValue notObj = ts.req(c, R"([1,2,3])");
    EXPECT_FALSE(notObj.boolean_("ok", true));
}

TEST(Serve, SynthWarmRepeatIsByteIdentical)
{
    TestServer ts;
    Client c;
    ts.connect(c);

    const std::string q =
        R"({"id":1,"op":"synth","duv":"tiny3","opts":{"render":true}})";
    JsonValue cold = ts.req(c, q);
    ASSERT_TRUE(cold.boolean_("ok")) << cold.str("error");
    EXPECT_FALSE(cold.boolean_("warm", true));
    EXPECT_FALSE(cold.boolean_("partial", true));
    EXPECT_GT(cold.u64("paths"), 0u);
    std::string renderCold = cold.str("render");
    ASSERT_FALSE(renderCold.empty());

    JsonValue warm = ts.req(c, q);
    ASSERT_TRUE(warm.boolean_("ok")) << warm.str("error");
    EXPECT_TRUE(warm.boolean_("warm"));
    EXPECT_EQ(warm.str("render"), renderCold);
    EXPECT_EQ(warm.u64("paths"), cold.u64("paths"));
    EXPECT_EQ(warm.u64("decisions"), cold.u64("decisions"));

    JsonValue st = ts.req(c, R"({"id":3,"op":"stats"})");
    EXPECT_EQ(st.u64("warm_entries"), 1u);
    EXPECT_EQ(st.u64("completed"), 2u);
}

TEST(Serve, InstructionSubsetAndErrors)
{
    TestServer ts;
    Client c;
    ts.connect(c);

    JsonValue one = ts.req(
        c, R"({"id":1,"op":"synth","duv":"tiny3",)"
           R"("opts":{"instrs":["ADD"]}})");
    ASSERT_TRUE(one.boolean_("ok")) << one.str("error");
    const JsonValue *instrs = one.find("instrs");
    ASSERT_NE(instrs, nullptr);
    ASSERT_EQ(instrs->items.size(), 1u);
    EXPECT_EQ(instrs->items[0].str("name"), "ADD");

    JsonValue badDuv =
        ts.req(c, R"({"id":2,"op":"synth","duv":"no-such-duv"})");
    EXPECT_FALSE(badDuv.boolean_("ok", true));
    EXPECT_NE(badDuv.str("error").find("unknown DUV"), std::string::npos);

    JsonValue badInstr = ts.req(
        c, R"({"id":3,"op":"synth","duv":"tiny3",)"
           R"("opts":{"instrs":["no-such-instr"]}})");
    EXPECT_FALSE(badInstr.boolean_("ok", true));
    EXPECT_NE(badInstr.str("error").find("unknown instruction"),
              std::string::npos);

    // Both bad requests count as errors, like every other error reply.
    JsonValue st = ts.req(c, R"({"id":4,"op":"stats"})");
    EXPECT_EQ(st.u64("errors"), 2u);
}

/**
 * Heavy requests are checked at dispatch: an unknown synth/prove option
 * (the removed "coi" and "static_prune" included), an ill-typed or
 * out-of-range value, or a non-integral priority gets an error reply
 * naming the key, counted in stats.errors, instead of running as if the
 * key were absent. The daemon keeps serving afterwards.
 */
TEST(Serve, RejectsUnknownOrIllTypedOpts)
{
    TestServer ts(/*max_queue=*/64, /*use_store=*/false, /*workers=*/1);
    Client c;
    ts.connect(c);

    struct Bad
    {
        const char *op;
        const char *fields; ///< request members after "duv"
        const char *key;    ///< the error must name it
    };
    const Bad bad[] = {
        {"synth", R"("opts":{"coi":true})", "coi"},
        {"synth", R"("opts":{"static_prune":true})", "static_prune"},
        {"synth", R"("opts":{"no_such_opt":true})", "no_such_opt"},
        {"synth", R"("opts":{"budget":"x"})", "budget"},
        {"synth", R"("opts":{"budget":-5})", "budget"},
        {"synth", R"("opts":{"budget":1.5})", "budget"},
        {"synth", R"("opts":{"budget":1e30})", "budget"},
        {"synth", R"("opts":{"closure":1})", "closure"},
        {"prove", R"("opts":{"render":"yes"})", "render"},
        {"synth", R"("opts":{"instrs":"ADD"})", "instrs"},
        {"synth", R"("opts":{"instrs":[1]})", "instrs"},
        {"synth", R"("opts":[1])", "opts"},
        {"synth", R"("priority":1e30)", "priority"},
        {"lint", R"("priority":0.5)", "priority"},
    };
    uint64_t id = 0;
    for (const Bad &b : bad) {
        std::string q = "{\"id\":" + std::to_string(++id) + ",\"op\":\"" +
                        b.op + "\",\"duv\":\"tiny3\"," + b.fields + "}";
        JsonValue r = ts.req(c, q);
        EXPECT_FALSE(r.boolean_("ok", true)) << q;
        EXPECT_NE(r.str("error").find(b.key), std::string::npos)
            << q << " -> " << r.str("error");
    }

    // Every accepted key, well typed, still runs.
    JsonValue ok = ts.req(
        c, R"({"id":100,"op":"synth","duv":"tiny3","priority":-3,)"
           R"("opts":{"budget":20000,"closure":false,"counts":false,)"
           R"("audit_replay":false,"audit_proof":false,"render":false,)"
           R"("instrs":["ADD"]}})");
    ASSERT_TRUE(ok.boolean_("ok")) << ok.str("error");

    JsonValue st = ts.req(c, R"({"id":101,"op":"stats"})");
    EXPECT_EQ(st.u64("errors"), id);
    EXPECT_EQ(st.u64("completed"), 1u);
}

TEST(Serve, LintAndAnalyze)
{
    TestServer ts;
    Client c;
    ts.connect(c);

    JsonValue lint = ts.req(c, R"({"id":1,"op":"lint","duv":"tiny3"})");
    ASSERT_TRUE(lint.boolean_("ok")) << lint.str("error");

    JsonValue an = ts.req(c, R"({"id":2,"op":"analyze","duv":"tiny3"})");
    ASSERT_TRUE(an.boolean_("ok")) << an.str("error");
}

TEST(Serve, BackpressureRejectsWhenQueueFull)
{
    // maxQueue = 0: every heavy request bounces immediately with the
    // backpressure error while light ops still work.
    TestServer ts(/*max_queue=*/0);
    Client c;
    ts.connect(c);

    JsonValue r = ts.req(c, R"({"id":1,"op":"synth","duv":"tiny3"})");
    EXPECT_FALSE(r.boolean_("ok", true));
    EXPECT_NE(r.str("error").find("queue full"), std::string::npos);

    JsonValue pong = ts.req(c, R"({"id":2,"op":"ping"})");
    EXPECT_TRUE(pong.boolean_("ok"));

    JsonValue st = ts.req(c, R"({"id":3,"op":"stats"})");
    EXPECT_GE(st.u64("rejected"), 1u);
}

/** Raw pipelining client: the lock-step Client cannot have two requests
 *  in flight, which the cancel test needs. */
struct RawConn
{
    int fd = -1;
    std::string buf;

    explicit RawConn(const std::string &path) { open(path); }

    void
    open(const std::string &path)
    {
        fd = socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        ASSERT_LT(path.size(), sizeof(sa.sun_path));
        std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                            sizeof(sa)),
                  0);
    }

    ~RawConn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    void
    sendAll(const std::string &bytes)
    {
        size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
            ASSERT_GT(n, 0);
            off += static_cast<size_t>(n);
        }
    }

    /** Read one newline-delimited response (bounded wait). */
    bool
    readLine(std::string *line, int timeout_ms = 60'000)
    {
        while (true) {
            size_t nl = buf.find('\n');
            if (nl != std::string::npos) {
                *line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                return true;
            }
            pollfd p{fd, POLLIN, 0};
            if (poll(&p, 1, timeout_ms) <= 0)
                return false;
            char tmp[4096];
            ssize_t n = ::read(fd, tmp, sizeof(tmp));
            if (n <= 0)
                return false;
            buf.append(tmp, static_cast<size_t>(n));
        }
    }
};

TEST(Serve, CancelQueuedJob)
{
    // One worker: with more, the prove and synth keys may hash to
    // different workers, and job 2 then runs instead of queueing.
    TestServer ts(/*max_queue=*/64, /*use_store=*/true, /*workers=*/1);
    RawConn raw(ts.cfg.socketPath);

    // Pipeline three lines in one burst: a job the worker will pick
    // first (higher priority, and the closure queries make it run for
    // seconds), a second job that stays queued behind it, and a cancel
    // of the second. The poll loop processes all three lines within
    // microseconds of each other, so the cancel deterministically finds
    // job 2 still queued behind the running prove.
    raw.sendAll(
        R"({"id":1,"op":"prove","duv":"tiny3","priority":5})"
        "\n"
        R"({"id":2,"op":"synth","duv":"tiny3"})"
        "\n"
        R"({"id":3,"op":"cancel","target":2})"
        "\n");

    bool sawCancelAck = false, sawCancelled = false, sawJob1 = false;
    for (int i = 0; i < 3; i++) {
        std::string line;
        ASSERT_TRUE(raw.readLine(&line, 300'000)) << "response " << i;
        JsonValue v = mustParse(line);
        switch (v.u64("id")) {
          case 1:
            EXPECT_TRUE(v.boolean_("ok")) << v.str("error");
            sawJob1 = true;
            break;
          case 2:
            EXPECT_FALSE(v.boolean_("ok", true));
            EXPECT_NE(v.str("error").find("cancelled"), std::string::npos);
            sawCancelled = true;
            break;
          case 3:
            EXPECT_TRUE(v.boolean_("ok"));
            EXPECT_TRUE(v.boolean_("cancelled", false));
            sawCancelAck = true;
            break;
          default:
            FAIL() << "unexpected response: " << line;
        }
    }
    EXPECT_TRUE(sawCancelAck);
    EXPECT_TRUE(sawCancelled);
    EXPECT_TRUE(sawJob1);

    Client c;
    ts.connect(c);
    JsonValue st = ts.req(c, R"({"id":4,"op":"stats"})");
    EXPECT_GE(st.u64("cancelled"), 1u);
}

TEST(Serve, ShutdownOpDrainsAndUnlinksSocket)
{
    TestServer ts;
    {
        Client c;
    ts.connect(c);
        JsonValue bye = ts.req(c, R"({"id":1,"op":"shutdown"})");
        EXPECT_TRUE(bye.boolean_("ok"));
    }
    ts.runner.join();
    EXPECT_EQ(ts.runResult, 0);
    EXPECT_FALSE(fs::exists(ts.cfg.socketPath));

    // Heavy requests after the drain began would have been rejected;
    // a fresh connect must now fail outright.
    Client c2;
    std::string err;
    EXPECT_FALSE(c2.connect(ts.cfg.socketPath, &err));
}

TEST(Serve, StoreCarriesVerdictsAcrossRestart)
{
    TestServer ts;
    {
        Client c;
    ts.connect(c);
        JsonValue cold =
            ts.req(c, R"({"id":1,"op":"synth","duv":"tiny3"})");
        ASSERT_TRUE(cold.boolean_("ok")) << cold.str("error");
        const JsonValue *st = cold.find("store");
        ASSERT_NE(st, nullptr);
        EXPECT_GT(st->u64("writes"), 0u);
    }
    // Restart the daemon on the same store root: the warm registry is
    // gone, but the store answers the repeated queries from disk.
    ts.shutdown();
    EXPECT_EQ(ts.runResult, 0);
    ts.start();

    Client c;
    ts.connect(c);
    JsonValue again = ts.req(c, R"({"id":2,"op":"synth","duv":"tiny3"})");
    ASSERT_TRUE(again.boolean_("ok")) << again.str("error");
    EXPECT_FALSE(again.boolean_("warm", true));
    const JsonValue *st = again.find("store");
    ASSERT_NE(st, nullptr);
    EXPECT_GT(st->u64("hits"), 0u);
    EXPECT_EQ(st->u64("writes"), 0u);
}

// ------------------------------------------------- multi-worker pool

TEST(Serve, StatsReportWorkerCount)
{
    TestServer ts(/*max_queue=*/64, /*use_store=*/true, /*workers=*/3);
    Client c;
    ts.connect(c);
    JsonValue st = ts.req(c, R"({"id":1,"op":"stats"})");
    EXPECT_TRUE(st.boolean_("ok"));
    EXPECT_EQ(st.u64("workers"), 3u);
}

/**
 * A warm entry keeps its harness, synthesizer and engine, but no
 * thread: every job's simulation fans out over the process's one
 * worker pool. So distinct keys (the budget is part of the key) add
 * warm entries without adding threads.
 */
TEST(Serve, WarmEntriesHoldNoThreads)
{
    if (!fs::exists("/proc/self/task"))
        GTEST_SKIP() << "no /proc/self/task to count threads in";
    auto threads = [] {
        size_t n = 0;
        for ([[maybe_unused]] const auto &e :
             fs::directory_iterator("/proc/self/task"))
            n++;
        return n;
    };
    TestServer ts(/*max_queue=*/64, /*use_store=*/false, /*workers=*/1,
                  /*jobs=*/4);
    Client c;
    ts.connect(c);
    auto synth = [&](unsigned budget) {
        JsonValue r = ts.req(c, R"({"id":1,"op":"synth","duv":"tiny3",)"
                                R"("opts":{"budget":)" +
                                    std::to_string(budget) + "}}");
        EXPECT_TRUE(r.boolean_("ok")) << r.str("error");
    };
    synth(20'000);
    const size_t after_one = threads();
    for (unsigned b = 20'001; b <= 20'005; b++)
        synth(b);
    JsonValue st = ts.req(c, R"({"id":2,"op":"stats"})");
    EXPECT_EQ(st.u64("warm_entries"), 6u);
    EXPECT_LE(threads(), after_one);
}

/**
 * The TSan stress target: >=8 concurrent clients, each pipelining a
 * mixed burst of synth / lint / analyze / stats / cancel requests at a
 * 4-worker daemon, several rounds each. Invariants: every request id
 * gets exactly one response, a cancelled job answers with the
 * "cancelled" error, and every successful synth render of the same
 * (DUV, config) key is byte-identical — across rounds, threads, and
 * worker assignments.
 */
TEST(Serve, ConcurrentClientsStress)
{
    TestServer ts(/*max_queue=*/256, /*use_store=*/true, /*workers=*/4);

    constexpr int kThreads = 8;
    constexpr int kRounds = 3;
    std::mutex remu;
    std::map<std::string, std::string> renders; // key -> expected render

    auto clientMain = [&](int t) {
        const std::string duv = (t % 2) ? "tiny3" : "tiny3-zs";
        RawConn raw(ts.cfg.socketPath);
        if (::testing::Test::HasFatalFailure())
            return;
        for (int r = 0; r < kRounds; r++) {
            raw.sendAll(
                R"({"id":1,"op":"synth","duv":")" + duv +
                R"(","opts":{"render":true}})" "\n"
                R"({"id":2,"op":"lint","duv":")" + duv + R"("})" "\n"
                R"({"id":3,"op":"stats"})" "\n"
                R"({"id":4,"op":"synth","duv":")" + duv +
                R"(","opts":{"render":true}})" "\n"
                R"({"id":5,"op":"cancel","target":4})" "\n"
                R"({"id":6,"op":"analyze","duv":")" + duv + R"("})" "\n");
            int got[7] = {0};
            for (int i = 0; i < 6; i++) {
                std::string line;
                ASSERT_TRUE(raw.readLine(&line, 300'000))
                    << "thread " << t << " round " << r << " response "
                    << i;
                JsonValue v = mustParse(line);
                uint64_t id = v.u64("id");
                ASSERT_GE(id, 1u);
                ASSERT_LE(id, 6u);
                got[id]++;
                switch (id) {
                  case 1:
                  case 4: {
                    if (!v.boolean_("ok", false)) {
                        // Only the cancel victim may fail.
                        EXPECT_EQ(id, 4u);
                        EXPECT_NE(v.str("error").find("cancelled"),
                                  std::string::npos)
                            << line;
                        break;
                    }
                    std::string render = v.str("render");
                    EXPECT_FALSE(render.empty());
                    std::lock_guard<std::mutex> lk(remu);
                    auto [it, fresh] = renders.emplace(duv, render);
                    if (!fresh)
                        EXPECT_EQ(it->second, render)
                            << duv << ": render diverged (thread " << t
                            << " round " << r << ")";
                    break;
                  }
                  case 2:
                  case 3:
                  case 6:
                    EXPECT_TRUE(v.boolean_("ok", false)) << line;
                    break;
                  case 5:
                    EXPECT_TRUE(v.boolean_("ok", false)) << line;
                    break;
                }
            }
            for (int id = 1; id <= 6; id++)
                EXPECT_EQ(got[id], 1)
                    << "thread " << t << " round " << r << " id " << id;
        }
    };

    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; t++)
        clients.emplace_back(clientMain, t);
    for (std::thread &th : clients)
        th.join();

    Client c;
    ts.connect(c);
    JsonValue st = ts.req(c, R"({"id":99,"op":"stats"})");
    EXPECT_TRUE(st.boolean_("ok"));
    EXPECT_EQ(st.u64("workers"), 4u);
    EXPECT_GE(st.u64("completed"), kThreads * kRounds * 3u);
    EXPECT_EQ(st.u64("queue_depth"), 0u);
}

TEST(Serve, ProgressEventsStreamBeforeFinalReply)
{
    TestServer ts;
    Client c;
    ts.connect(c);

    size_t events = 0;
    bool sawSynthEvent = false;
    std::string final;
    std::string err;
    ASSERT_TRUE(c.requestStream(
        R"({"id":11,"op":"synth","duv":"tiny3","progress":true})",
        [&](const JsonValue &ev) {
            events++;
            EXPECT_EQ(ev.str("event"), "progress");
            EXPECT_EQ(ev.u64("id"), 11u);
            if (ev.str("op") == "synth" && !ev.str("phase").empty())
                sawSynthEvent = true;
        },
        &final, &err, 120'000))
        << err;
    ASSERT_GE(events, 1u);
    EXPECT_TRUE(sawSynthEvent);
    JsonValue resp = mustParse(final);
    EXPECT_TRUE(resp.boolean_("ok")) << resp.str("error");
    EXPECT_EQ(resp.find("event"), nullptr); // final reply has no event
    EXPECT_GT(resp.u64("paths"), 0u);

    // Without "progress":true the reply is the only line (lock-step
    // request() would hang forever on stray events; bounded timeout
    // guards the regression).
    JsonValue quiet =
        ts.req(c, R"({"id":12,"op":"synth","duv":"tiny3"})");
    EXPECT_TRUE(quiet.boolean_("ok"));
}

/**
 * Drain-mid-batch durability: stop() (the SIGTERM path minus the
 * signal handler itself) while a pipelined batch is queued across the
 * worker pool. Every pending proof must flush to the store exactly
 * once and the store must verify clean afterwards.
 */
TEST(Serve, DrainMidBatchLeavesStoreClean)
{
    std::string storeRoot;
    {
        TestServer ts(/*max_queue=*/64, /*use_store=*/true, /*workers=*/4);
        storeRoot = ts.cfg.storeRoot;
        RawConn raw(ts.cfg.socketPath);
        // Queue work across several keys, then yank the daemon.
        raw.sendAll(
            R"({"id":1,"op":"prove","duv":"tiny3"})" "\n"
            R"({"id":2,"op":"synth","duv":"tiny3-zs"})" "\n"
            R"({"id":3,"op":"synth","duv":"tiny3",)"
            R"("opts":{"budget":19999}})" "\n"
            R"({"id":4,"op":"prove","duv":"tiny3-zs"})" "\n");
        // Let at least one job start before the drain hits.
        std::string line;
        ASSERT_TRUE(raw.readLine(&line, 300'000));
        ts.shutdown();
        EXPECT_EQ(ts.runResult, 0);
        // ~TestServer would remove the temp dir; verify first.
        store::VerdictStore st(storeRoot);
        ASSERT_TRUE(st.enabled());
        store::VerifySummary v = st.verify();
        EXPECT_TRUE(v.ok()) << v.firstFailure;
        EXPECT_GT(v.records, 0u);
    }
}

/**
 * Two daemons — real fork()ed processes — sharing one store root, fed
 * overlapping keys concurrently. Both must drain clean, the store must
 * verify clean, and a fresh daemon on the same root must answer the
 * repeated key from disk (sane hit counts).
 */
TEST(Serve, TwoForkedDaemonsShareOneStoreRoot)
{
    char tmpl[] = "/tmp/rmp-serve-fork-XXXXXX";
    char *d = mkdtemp(tmpl);
    ASSERT_NE(d, nullptr);
    std::string dir = d;
    std::string storeRoot = dir + "/store";

    auto spawnDaemon = [&](const std::string &socket) {
        pid_t pid = fork();
        if (pid != 0)
            return pid;
        // Child: run a daemon until the shutdown op, then report run()'s
        // result. _exit skips static destructors; run() has already
        // joined the workers and flushed every pool's pending proofs.
        ServeConfig cfg;
        cfg.socketPath = socket;
        cfg.workers = 2;
        cfg.useStore = true;
        cfg.storeRoot = storeRoot;
        cfg.jobs = 2;
        cfg.handleSignals = false;
        Server srv(cfg);
        std::string err;
        if (!srv.start(&err))
            _exit(3);
        _exit(srv.run() == 0 ? 0 : 4);
    };

    std::string sockA = dir + "/a.sock", sockB = dir + "/b.sock";
    pid_t a = spawnDaemon(sockA);
    ASSERT_GT(a, 0);
    pid_t b = spawnDaemon(sockB);
    ASSERT_GT(b, 0);

    auto waitForSocket = [](const std::string &path) {
        for (int i = 0; i < 500; i++) {
            Client probe;
            std::string err;
            if (probe.connect(path, &err))
                return true;
            usleep(10'000);
        }
        return false;
    };
    ASSERT_TRUE(waitForSocket(sockA));
    ASSERT_TRUE(waitForSocket(sockB));

    // Same key to both daemons at once, plus a key of each daemon's own.
    auto drive = [&](const std::string &sock, const std::string &extra) {
        Client c;
        std::string err;
        ASSERT_TRUE(c.connect(sock, &err)) << err;
        JsonValue r1, r2;
        ASSERT_TRUE(c.requestJson(
            R"({"id":1,"op":"synth","duv":"tiny3"})", &r1, &err, 300'000))
            << err;
        EXPECT_TRUE(r1.boolean_("ok")) << r1.str("error");
        ASSERT_TRUE(c.requestJson(R"({"id":2,"op":"synth","duv":")" +
                                      extra + R"("})",
                                  &r2, &err, 300'000))
            << err;
        EXPECT_TRUE(r2.boolean_("ok")) << r2.str("error");
        JsonValue bye;
        ASSERT_TRUE(c.requestJson(R"({"id":3,"op":"shutdown"})", &bye,
                                  &err, 300'000))
            << err;
    };
    std::thread ta(drive, sockA, "tiny3-zs");
    std::thread tb(drive, sockB, "tiny3");
    ta.join();
    tb.join();

    int stA = -1, stB = -1;
    ASSERT_EQ(waitpid(a, &stA, 0), a);
    ASSERT_EQ(waitpid(b, &stB, 0), b);
    EXPECT_TRUE(WIFEXITED(stA) && WEXITSTATUS(stA) == 0) << stA;
    EXPECT_TRUE(WIFEXITED(stB) && WEXITSTATUS(stB) == 0) << stB;

    // The shared root survived two concurrent writers.
    {
        store::VerdictStore st(storeRoot);
        ASSERT_TRUE(st.enabled());
        store::VerifySummary v = st.verify();
        EXPECT_TRUE(v.ok()) << v.firstFailure;
        EXPECT_GT(v.records, 0u);
    }

    // A fresh daemon on the same root answers the repeated key from
    // disk: hits > 0, no rewrites.
    {
        ServeConfig cfg;
        cfg.socketPath = dir + "/c.sock";
        cfg.workers = 2;
        cfg.useStore = true;
        cfg.storeRoot = storeRoot;
        cfg.jobs = 2;
        cfg.handleSignals = false;
        Server srv(cfg);
        std::string err;
        ASSERT_TRUE(srv.start(&err)) << err;
        std::thread runner([&] { srv.run(); });
        Client c;
        ASSERT_TRUE(c.connect(cfg.socketPath, &err)) << err;
        JsonValue again;
        ASSERT_TRUE(c.requestJson(
            R"({"id":1,"op":"synth","duv":"tiny3"})", &again, &err,
            300'000))
            << err;
        EXPECT_TRUE(again.boolean_("ok")) << again.str("error");
        const JsonValue *st = again.find("store");
        ASSERT_NE(st, nullptr);
        EXPECT_GT(st->u64("hits"), 0u);
        EXPECT_EQ(st->u64("writes"), 0u);
        srv.stop();
        runner.join();
    }
    fs::remove_all(dir);
}

} // anonymous namespace
