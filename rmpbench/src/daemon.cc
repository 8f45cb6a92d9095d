/**
 * @file
 * The daemon-mix workload.
 *
 * One process drives a fresh `rmp serve --workers 2 --jobs 1` child over
 * two lock-step connections (a closed loop: each caller waits for its
 * reply). A run is a sequence of passes; each pass is
 *
 *   set-up   start the daemon on a fresh store root and warm one key per
 *            DUV: tiny3 and tiny3-zs synth and prove, dcache synth;
 *   phase A  hits (warm triples, with render), misses (a new
 *            (DUV, config, IUV) on tiny3 / tiny3-zs) and lint requests;
 *   restart  shutdown, wait for the drain, start again on the same root;
 *   phase B  store requests (the first touch of each warm triple, which
 *            the store answers by read-through), hits on the re-warmed
 *            triples, misses and analyze requests;
 *
 * then an untimed check of the root: a scan of every record, or with
 * checkAll a full `VerdictStore::verify` (DRAT proofs re-checked). Every
 * check names the pass it belongs to, so a pass is one operation of the
 * correctness gate.
 *
 * Every key is owned by one connection, and its budget is picked so the
 * key hashes to that connection's worker (the daemon routes by
 * fnv1a64(key) % workers). So whether a request is a hit, a miss or a
 * store read is fixed by the seed, never by timing, and no request
 * queues behind the other connection's. The seed picks budgets (which
 * name fresh keys) and the order of each phase; the multiset of work per
 * pass is the same for every seed.
 *
 * The mix is a coverage rule, not a model of recorded traffic: every warm
 * triple is hit once in each daemon life and read from the store once
 * after the restart, every IUV of the miss keys is missed once by each
 * connection, and every catalog DUV is linted and analyzed once.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <thread>

#include "bench.hh"
#include "common/cachedir.hh"
#include "daemon.hh"
#include "designs/catalog.hh"
#include "report/report.hh"
#include "rtl2mupath/synth.hh"
#include "serve/client.hh"
#include "serve/json.hh"
#include "serve/server.hh"
#include "store/verdict_store.hh"

namespace rmpbench
{

namespace
{

using namespace rmp;

/** Daemon workers: one per connection. */
constexpr unsigned kWorkers = 2;
/** Relative, so the path stays short however deep the checkout is; the
 *  harness and the daemon both run in the work directory. */
constexpr const char *kSocket = "rmp.sock";
/** Per-read reply timeout. */
constexpr int kTimeoutMs = 120'000;

enum class Cls : uint8_t { Warm, Hit, Miss, Analysis, Store };

const char *
clsName(Cls c)
{
    switch (c) {
      case Cls::Warm: return "warm";
      case Cls::Hit: return "hit";
      case Cls::Miss: return "miss";
      case Cls::Analysis: return "analysis";
      case Cls::Store: return "store";
    }
    return "?";
}

const char *
spanName(Cls c)
{
    switch (c) {
      case Cls::Warm: return "req.warm";
      case Cls::Hit: return "req.hit";
      case Cls::Miss: return "req.miss";
      case Cls::Analysis: return "req.analysis";
      case Cls::Store: return "req.store";
    }
    return "req";
}

/** A synth/prove warm-registry key: (DUV, closure, budget). */
struct Key
{
    std::string duv;
    bool prove = false;
    uint64_t budget = 0;

    /** The daemon's own routing/warm key for this request. */
    std::string
    name() const
    {
        r2m::SynthesisConfig sc;
        sc.budget.maxConflicts = budget;
        sc.closureChecks = prove;
        return serve::Server::synthKey(duv, sc);
    }
};

unsigned
workerOf(const std::string &routingKey)
{
    return static_cast<unsigned>(
        fnv1a64(routingKey.data(), routingKey.size()) % kWorkers);
}

/** One request of the stream. */
struct Req
{
    Cls cls = Cls::Hit;
    std::string op; ///< synth prove lint analyze
    Key key;        ///< synth/prove only (key.duv is the DUV for all ops)
    std::string iuv;///< synth/prove: one IUV, or "" for all (warm-up)
};

struct Outcome
{
    Cls cls = Cls::Hit;
    std::string op, duv;
    unsigned pass = 0, conn = 0;
    uint64_t ns = 0;
    double computeS = -1; ///< reply "seconds" (synth/prove), else -1
    bool ok = false;
};

/** The `rmp serve` child. Stopped (and reaped) by its destructor. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { kill(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool
    start(const std::string &rmp, const std::string &storeRoot,
          const std::string &trace, std::string *err)
    {
        ::unlink(kSocket);
        std::vector<std::string> args = {rmp,         "serve",
                                         "--socket",  kSocket,
                                         "--workers", std::to_string(kWorkers),
                                         "--jobs",    "1",
                                         "--store-root", storeRoot};
        if (!trace.empty()) {
            args.push_back("--trace");
            args.push_back(trace);
        }
        std::vector<char *> argv;
        for (std::string &s : args)
            argv.push_back(s.data());
        argv.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ < 0) {
            *err = std::string("fork: ") + std::strerror(errno);
            return false;
        }
        if (pid_ == 0) {
            int fd = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        // Ready once the socket accepts a connection.
        uint64_t deadline = nowNs() + 30'000'000'000ULL;
        while (nowNs() < deadline) {
            serve::Client probe;
            std::string e;
            if (probe.connect(kSocket, &e))
                return true;
            int st = 0;
            if (::waitpid(pid_, &st, WNOHANG) == pid_) {
                pid_ = -1;
                *err = "rmp serve exited during start-up (see daemon.log)";
                return false;
            }
            ::usleep(2000);
        }
        *err = "rmp serve did not accept connections within 30 s";
        return false;
    }

    /** Wait for the child to exit by itself; its peak RSS in KiB. */
    bool
    waitExit(uint64_t *maxrssKb)
    {
        uint64_t deadline = nowNs() + 60'000'000'000ULL;
        while (pid_ > 0 && nowNs() < deadline) {
            int st = 0;
            struct rusage ru{};
            pid_t r = ::wait4(pid_, &st, WNOHANG, &ru);
            if (r == pid_) {
                pid_ = -1;
                *maxrssKb = static_cast<uint64_t>(ru.ru_maxrss);
                return WIFEXITED(st) && WEXITSTATUS(st) == 0;
            }
            ::usleep(500);
        }
        return false;
    }

    void
    kill()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        for (int i = 0; i < 2000; i++) {
            int st = 0;
            if (::waitpid(pid_, &st, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            ::usleep(5000);
        }
        ::kill(pid_, SIGKILL);
        int st = 0;
        ::waitpid(pid_, &st, 0);
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
};

/** Reply `pool` fields summed over keys for the per-layer counts. */
constexpr const char *kPoolFields[] = {
    "solver_queries",      "reachable",        "unreachable",
    "undetermined",        "static_pruned",    "cache_hits",
    "cache_misses",        "lanes_built",      "sat_conflicts",
    "sat_propagations",    "sat_learned_clauses", "sat_gc_passes",
    "assumption_core_hits"};

/** What every connection thread records; guarded by mu. */
struct Shared
{
    std::mutex mu;
    std::vector<Outcome> outcomes;
    /** (pass | key name | IUV) -> render digest of the first answer. */
    std::map<std::string, std::string> render;
    /** pass -> triples whose later answers rendered differently. */
    std::map<unsigned, std::set<std::string>> renderMismatch;
    /** (pass, life, key name) -> last reply's (cumulative) pool
     *  tallies, by field name. */
    std::map<std::string, std::map<std::string, uint64_t>> tallies;
    /** pass -> what went wrong with its failed requests. */
    std::map<unsigned, std::vector<std::string>> errors;
};

/** Split a renderSynthAll text into its per-IUV sections. */
std::map<std::string, std::string>
sections(const std::string &render)
{
    std::map<std::string, std::string> out;
    std::string name;
    size_t pos = 0;
    while (pos < render.size()) {
        size_t eol = render.find('\n', pos);
        if (eol == std::string::npos)
            eol = render.size();
        std::string line = render.substr(pos, eol - pos);
        if (line.size() > 8 && line.rfind("=== ", 0) == 0 &&
            line.compare(line.size() - 4, 4, " ===") == 0)
            name = line.substr(4, line.size() - 8);
        out[name] += render.substr(pos, eol - pos + 1);
        pos = eol + 1;
    }
    return out;
}

/** One lock-step connection and the keys it owns. */
struct Conn
{
    unsigned idx = 0;
    serve::Client cl;
    uint64_t nextId = 1;

    bool
    connect(std::string *err)
    {
        cl.close();
        return cl.connect(kSocket, err);
    }

    /** Send @p r, time it, check the reply; false on any failure. */
    bool
    send(const Req &r, unsigned pass, unsigned life, Shared &sh)
    {
        uint64_t id = nextId++;
        report::JsonReport q;
        q.put("id", id);
        q.put("op", r.op);
        q.put("duv", r.key.duv);
        if (r.op == "synth" || r.op == "prove") {
            report::JsonReport opts;
            opts.put("budget", r.key.budget);
            if (!r.iuv.empty()) {
                report::JsonArray a;
                a.add(r.iuv);
                opts.putRaw("instrs", a.str());
            }
            opts.putRaw("render", "true");
            q.putRaw("opts", opts.str());
        }
        std::string req = q.str(), line, err;
        Scope span(spanName(r.cls), id);
        uint64_t t0 = nowNs();
        bool sent = cl.request(req, &line, &err, kTimeoutMs);
        uint64_t t1 = nowNs();
        span.end();

        Outcome o;
        o.cls = r.cls;
        o.op = r.op;
        o.duv = r.key.duv;
        o.pass = pass;
        o.conn = idx;
        o.ns = t1 - t0;
        serve::JsonValue resp;
        if (!sent)
            err = "request failed: " + err;
        else if (!serve::parseJson(line, &resp, &err))
            err = "malformed reply: " + err;
        else if (!resp.boolean_("ok"))
            err = "daemon error: " + resp.str("error", "?");
        else if (resp.u64("id") != id)
            err = "reply id mismatch";
        else
            o.ok = true;
        if (o.ok && (r.op == "synth" || r.op == "prove"))
            o.ok = checkSynth(r, resp, pass, life, sh, &err, &o.computeS);
        std::lock_guard<std::mutex> lock(sh.mu);
        sh.outcomes.push_back(o);
        if (!o.ok)
            sh.errors[pass].push_back(std::string(clsName(r.cls)) + " " +
                                      r.op + " " + r.key.duv + " " + r.iuv +
                                      ": " + err);
        return o.ok;
    }

    bool
    checkSynth(const Req &r, const serve::JsonValue &resp, unsigned pass,
               unsigned life, Shared &sh, std::string *err, double *compute)
    {
        if (resp.boolean_("partial")) {
            *err = "partial result";
            return false;
        }
        if (const serve::JsonValue *s = resp.find("seconds");
            s && s->kind == serve::JsonValue::Kind::Number)
            *compute = s->number;
        const serve::JsonValue *render = resp.find("render");
        if (!render || !render->isString() || render->string.empty()) {
            *err = "no render in reply";
            return false;
        }
        std::map<std::string, std::string> secs = sections(render->string);
        if (!r.iuv.empty() && (secs.size() != 1 || !secs.count(r.iuv))) {
            *err = "render does not hold exactly " + r.iuv;
            return false;
        }
        std::string keyName = r.key.name();
        std::lock_guard<std::mutex> lock(sh.mu);
        for (const auto &[iuv, text] : secs) {
            std::string triple =
                std::to_string(pass) + "|" + keyName + "|" + iuv;
            auto [it, fresh] = sh.render.emplace(triple, digest(text));
            if (!fresh && it->second != digest(text))
                sh.renderMismatch[pass].insert(triple);
        }
        if (const serve::JsonValue *p = resp.find("pool")) {
            auto &t = sh.tallies[std::to_string(pass) + "|" +
                                 std::to_string(life) + "|" + keyName];
            for (const char *f : kPoolFields)
                t[f] = p->u64(f);
        }
        return true;
    }

    /** A control op (stats/shutdown) outside the measured stream. */
    bool
    control(const std::string &op, serve::JsonValue *resp, std::string *err)
    {
        report::JsonReport q;
        q.put("id", nextId++);
        q.put("op", op);
        return cl.requestJson(q.str(), resp, err, kTimeoutMs) &&
               resp->boolean_("ok");
    }
};

/** Run @p fn(conn) for every connection on its own thread; wall ns. */
template <typename Fn>
uint64_t
onEachConn(std::vector<std::unique_ptr<Conn>> &conns, const char *span,
           Fn fn)
{
    Scope phase(span);
    uint64_t t0 = nowNs();
    std::vector<std::thread> ts;
    for (auto &c : conns)
        ts.emplace_back([&fn, &c, span] {
            setSpanThread(c->idx + 1);
            Scope s(span);
            fn(*c);
        });
    for (std::thread &t : ts)
        t.join();
    return nowNs() - t0;
}

/** The instruction names of a catalog DUV. */
std::vector<std::string>
instrNames(const std::string &duv)
{
    std::optional<designs::DuvUnderConstruction> duc = designs::buildDuv(duv);
    std::vector<std::string> out;
    for (const auto &ins : duc->info.instrs)
        out.push_back(ins.name);
    return out;
}

/** What one connection sends in one pass. */
struct Plan
{
    std::vector<Key> warm;
    std::vector<Req> phaseA, phaseB;
};

/** Budgets come from [kBudget, kBudget + kBudgetSpan): plenty of
 *  distinct keys per pass, and the same SAT budget (which bounds the
 *  work of an undetermined cover) to 1 % for every seed. */
constexpr uint64_t kBudget = 20'000;
constexpr uint64_t kBudgetSpan = 200;

/**
 * Build both connections' plans for one pass. Connection 0 owns tiny3
 * synth/prove and tiny3-zs prove; connection 1 owns tiny3-zs synth and
 * dcache synth (about equal warm-up cost). Warm keys take the lowest
 * budget that routes to their owner, the same for every seed. Misses
 * take fresh budgets, so each is a new (DUV, config) key as well as a
 * new triple. The seed moves budgets and order only: every pass sends
 * each connection the same multiset of work.
 */
std::vector<Plan>
makePlans(uint64_t seed, unsigned pass,
          const std::map<std::string, std::vector<std::string>> &instrs)
{
    std::mt19937_64 rng(seed * 1000003ULL + pass);
    std::set<std::string> used;
    auto pickBudget = [&](const std::string &duv, bool prove, unsigned conn,
                          uint64_t start) {
        for (uint64_t i = 0;; i++) {
            Key k{duv, prove, kBudget + (start + i) % kBudgetSpan};
            std::string n = k.name();
            if (workerOf(n) == conn && used.insert(n).second)
                return k;
        }
    };
    auto synthReq = [](Cls cls, const Key &k, const std::string &iuv) {
        return Req{cls, k.prove ? "prove" : "synth", k, iuv};
    };
    auto analysisReq = [](const char *op, const std::string &duv) {
        Req r;
        r.cls = Cls::Analysis;
        r.op = op;
        r.key.duv = duv;
        return r;
    };

    std::vector<Plan> plans(kWorkers);
    const std::vector<std::pair<std::string, bool>> owned[kWorkers] = {
        {{"tiny3", false}, {"tiny3", true}, {"tiny3-zs", true}},
        {{"tiny3-zs", false}, {"dcache", false}}};
    for (unsigned c = 0; c < kWorkers; c++)
        for (const auto &[duv, prove] : owned[c])
            plans[c].warm.push_back(pickBudget(duv, prove, c, 0));

    for (unsigned c = 0; c < kWorkers; c++) {
        Plan &p = plans[c];
        std::vector<std::pair<Key, std::string>> triples;
        for (const Key &k : p.warm)
            for (const std::string &iuv : instrs.at(k.duv))
                triples.push_back({k, iuv});

        // Phase A: a hit on every warm triple, misses (each connection
        // misses every IUV of tiny3 synth, tiny3 prove and tiny3-zs synth
        // once a pass, half in each phase), and every lint key this
        // connection's worker owns.
        for (const auto &[k, iuv] : triples)
            p.phaseA.push_back(synthReq(Cls::Hit, k, iuv));
        auto misses = [&](std::vector<Req> &out, unsigned half) {
            for (const auto &[duv, prove] :
                 {std::pair<const char *, bool>{"tiny3", false},
                  {"tiny3", true},
                  {"tiny3-zs", false}}) {
                const std::vector<std::string> &is = instrs.at(duv);
                for (size_t i = 0; i < is.size(); i++)
                    if ((i + c) % 2 == half)
                        out.push_back(synthReq(
                            Cls::Miss,
                            pickBudget(duv, prove, c, rng() % kBudgetSpan),
                            is[i]));
            }
        };
        misses(p.phaseA, 0);
        for (const auto &[duv, is] : instrs)
            if (workerOf(duv + "|lint") == c)
                p.phaseA.push_back(analysisReq("lint", duv));
        std::shuffle(p.phaseA.begin(), p.phaseA.end(), rng);

        // Phase B: each warm triple's first touch after the restart (a
        // store read), the other half of the misses and the analyze keys;
        // then a hit on every triple, placed somewhere after its triple's
        // store read.
        std::vector<Req> b;
        for (const auto &[k, iuv] : triples)
            b.push_back(synthReq(Cls::Store, k, iuv));
        misses(b, 1);
        for (const auto &[duv, is] : instrs)
            if (workerOf(duv + "|analyze") == c)
                b.push_back(analysisReq("analyze", duv));
        std::shuffle(b.begin(), b.end(), rng);
        for (const auto &[k, iuv] : triples) {
            size_t at = 0;
            for (size_t i = 0; i < b.size(); i++)
                if (b[i].cls == Cls::Store && b[i].key.name() == k.name() &&
                    b[i].iuv == iuv)
                    at = i + 1;
            b.insert(b.begin() +
                         static_cast<long>(at + rng() % (b.size() - at + 1)),
                     synthReq(Cls::Hit, k, iuv));
        }
        p.phaseB = std::move(b);
    }
    return plans;
}

struct PassResult
{
    uint64_t setupNs = 0, jobNs = 0, drainNs = 0, maxrssKb = 0;
};

/** Store/serve counters a life's `stats` op reports. */
struct ServeTotals
{
    uint64_t storeHits = 0, storeMisses = 0, storeWrites = 0,
             blobWrites = 0, rejected = 0, errors = 0, admissionWaitNs = 0;

    void
    add(const serve::JsonValue &st)
    {
        rejected += st.u64("rejected");
        errors += st.u64("errors");
        if (const serve::JsonValue *g = st.find("admission"))
            admissionWaitNs += g->u64("wait_ns");
        if (const serve::JsonValue *s = st.find("store")) {
            storeHits += s->u64("hits");
            storeMisses += s->u64("misses");
            storeWrites += s->u64("writes");
            blobWrites += s->u64("blob_writes");
        }
    }
};

/**
 * In-process one-shot replay of a key's first daemon request (all IUVs
 * for a warm-up, one IUV for a miss) with the daemon's config. The
 * replay must repeat the request, not just the triple: a μPATH's
 * rendered schedule is the witness its SAT query returned, which depends
 * on the solver's history on that key.
 */
std::string
oneshotRender(const Key &k, const std::string &iuv,
              const std::vector<std::string> &allIuvs, double *renderMs)
{
    designs::Harness hx(*designs::buildDuv(k.duv));
    r2m::SynthesisConfig sc;
    sc.budget.maxConflicts = k.budget;
    sc.closureChecks = k.prove;
    sc.jobs = 1;
    r2m::MuPathSynthesizer synth(hx, sc);
    std::vector<uhb::InstrId> ids;
    for (const std::string &n : iuv.empty() ? allIuvs
                                           : std::vector<std::string>{iuv})
        ids.push_back(hx.duv().instrId(n));
    auto all = synth.synthesizeAll(ids);
    uint64_t t0 = nowNs();
    std::string text = report::renderSynthAll(hx, ids, all);
    *renderMs = static_cast<double>(nowNs() - t0) * 1e-6;
    return text;
}

} // anonymous namespace

int
runDaemon(const DaemonArgs &a)
{
    if (::mkdir(a.dir.c_str(), 0755) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "rmpbench: cannot create %s\n", a.dir.c_str());
        return 1;
    }
    if (::chdir(a.dir.c_str()) != 0) {
        std::fprintf(stderr, "rmpbench: cannot enter %s\n", a.dir.c_str());
        return 1;
    }
    ::setenv("RMP_CACHE_DIR", "cache", 1);

    std::map<std::string, std::vector<std::string>> instrs;
    for (const std::string &duv : designs::duvCatalog())
        instrs[duv] = instrNames(duv);

    Shared sh;
    std::vector<Check> checks;
    std::vector<PassResult> passes;
    std::vector<Plan> firstPlans;
    ServeTotals totals;
    std::string err;
    uint64_t started = nowNs();
    unsigned pass = 0;
    bool broken = false; ///< a control op failed and ended the run
    auto fail = [&](const std::string &what) {
        broken = true;
        checks.push_back({"daemon.control", false, what + ": " + err,
                          static_cast<int>(pass)});
    };

    for (;; pass++) {
        double elapsed = static_cast<double>(nowNs() - started) * 1e-9;
        if (pass >= a.minPasses &&
            elapsed * (pass + 1) / pass > a.seconds)
            break;
        std::vector<Plan> plans = makePlans(a.seed, pass, instrs);
        if (pass == 0)
            firstPlans = plans;
        std::string root = "store-" + std::to_string(pass);
        auto trace = [&](unsigned life) {
            return a.obs ? "trace-" + std::to_string(pass) + "-" +
                               std::to_string(life) + ".json"
                         : std::string();
        };
        PassResult pr;
        Scope passSpan("pass", pass);
        std::vector<std::unique_ptr<Conn>> conns;
        Daemon d;
        {
            Scope setup("setup");
            {
                Scope s("daemon.start");
                if (!d.start(a.rmp, root, trace(0), &err)) {
                    fail("start");
                    break;
                }
            }
            bool connected = true;
            for (unsigned c = 0; c < kWorkers; c++) {
                conns.push_back(std::make_unique<Conn>());
                conns.back()->idx = c;
                connected = connected && conns.back()->connect(&err);
            }
            if (!connected) {
                fail("connect");
                break;
            }
            onEachConn(conns, "warmup", [&](Conn &c) {
                for (const Key &k : plans[c.idx].warm)
                    c.send({Cls::Warm, k.prove ? "prove" : "synth", k, ""},
                           pass, 0, sh);
            });
            pr.setupNs = static_cast<uint64_t>(setup.end() * 1e9);
        }

        pr.jobNs += onEachConn(conns, "phaseA", [&](Conn &c) {
            for (const Req &r : plans[c.idx].phaseA)
                c.send(r, pass, 0, sh);
        });

        // Restart on the same store root.
        serve::JsonValue st;
        uint64_t rss = 0;
        {
            Scope restart("restart");
            if (!conns[0]->control("stats", &st, &err)) {
                fail("stats");
                break;
            }
            totals.add(st);
            uint64_t t0 = nowNs();
            {
                Scope s("drain");
                if (!conns[0]->control("shutdown", &st, &err) ||
                    !d.waitExit(&rss)) {
                    fail("shutdown");
                    break;
                }
            }
            pr.drainNs = nowNs() - t0;
            pr.maxrssKb = rss;
            Scope s("daemon.start");
            if (!d.start(a.rmp, root, trace(1), &err)) {
                fail("restart");
                break;
            }
            bool connected = true;
            for (auto &c : conns)
                connected = connected && c->connect(&err);
            if (!connected) {
                fail("reconnect");
                break;
            }
        }

        pr.jobNs += onEachConn(conns, "phaseB", [&](Conn &c) {
            for (const Req &r : plans[c.idx].phaseB)
                c.send(r, pass, 1, sh);
        });

        if (!conns[0]->control("stats", &st, &err)) {
            fail("stats");
            break;
        }
        totals.add(st);
        // This life began on a root the first life wrote, so it must have
        // answered some store reads by read-through.
        const serve::JsonValue *lifeStore = st.find("store");
        uint64_t readThrough = lifeStore ? lifeStore->u64("hits") : 0;
        checks.push_back({"daemon.store_read_through", readThrough > 0,
                          std::to_string(readThrough) + " store hits",
                          static_cast<int>(pass)});
        if (!conns[0]->control("shutdown", &st, &err) || !d.waitExit(&rss)) {
            fail("shutdown");
            break;
        }
        pr.maxrssKb = std::max(pr.maxrssKb, rss);
        {
            // A full verify re-checks every stored DRAT proof (tens of
            // seconds), so timed runs scan the records and the traced
            // run verifies the first pass's root.
            Scope s("verify");
            store::VerdictStore vs(root);
            std::string name = "store." + std::string(a.checkAll && pass == 0
                                                         ? "verify"
                                                         : "scan") +
                               "_clean.pass" + std::to_string(pass);
            if (a.checkAll && pass == 0) {
                store::VerifySummary v = vs.verify();
                checks.push_back({name, vs.enabled() && v.ok() && v.records,
                                  std::to_string(v.records) + " records, " +
                                      std::to_string(v.proofs) + " proofs, " +
                                      std::to_string(v.proofsFailed) +
                                      " failed",
                                  static_cast<int>(pass)});
            } else {
                store::ScanSummary v = vs.scan();
                checks.push_back({name,
                                  vs.enabled() && !v.corrupt && v.records,
                                  std::to_string(v.records) + " records, " +
                                      std::to_string(v.corrupt) +
                                      " corrupt",
                                  static_cast<int>(pass)});
            }
        }
        passes.push_back(pr);
    }

    // Untimed: the first request of a sample of pass-0 keys (every key
    // with checkAll) replayed by an in-process one-shot synthesizer must
    // render every triple byte for byte as the daemon did. The sample is
    // one tiny3 / tiny3-zs synth warm key and one miss key per
    // connection; dcache and prove warm-ups take seconds in-process.
    std::vector<double> renderMs;
    size_t compared = 0, differing = 0;
    std::string firstDiff;
    std::mt19937_64 rng(a.seed);
    for (const Plan &p : firstPlans) {
        std::vector<std::pair<Key, std::string>> warm, miss;
        for (const Key &k : p.warm)
            if (a.checkAll || (!k.prove && k.duv != "dcache"))
                warm.push_back({k, ""});
        for (const std::vector<Req> *phase : {&p.phaseA, &p.phaseB})
            for (const Req &r : *phase)
                if (r.cls == Cls::Miss)
                    miss.push_back({r.key, r.iuv});
        if (!a.checkAll) {
            warm = {warm[rng() % warm.size()]};
            miss = {miss[rng() % miss.size()]};
        }
        warm.insert(warm.end(), miss.begin(), miss.end());
        for (const auto &[k, iuv] : warm) {
            double ms = 0;
            std::string text =
                oneshotRender(k, iuv, instrs.at(k.duv), &ms);
            renderMs.push_back(ms);
            for (const auto &[name, sec] : sections(text)) {
                std::string triple = "0|" + k.name() + "|" + name;
                compared++;
                auto it = sh.render.find(triple);
                if (it == sh.render.end() || it->second != digest(sec)) {
                    differing++;
                    firstDiff = triple;
                }
            }
        }
    }
    checks.push_back({"daemon.render_matches_oneshot",
                      compared > 0 && differing == 0,
                      std::to_string(differing) + " of " +
                          std::to_string(compared) + " triples differ" +
                          (differing ? ", e.g. " + firstDiff : ""),
                      0});
    // The pass a failed control op ended counts as attempted too.
    for (unsigned p = 0; p < passes.size() + (broken ? 1 : 0); p++) {
        std::string prefix = std::to_string(p) + "|";
        size_t triples = 0;
        for (const auto &[triple, d] : sh.render)
            triples += triple.rfind(prefix, 0) == 0;
        size_t differ = sh.renderMismatch[p].size();
        checks.push_back({"daemon.render_identical_across_classes",
                          differ == 0 && triples > 0,
                          std::to_string(differ) + " of " +
                              std::to_string(triples) + " triples differ",
                          static_cast<int>(p)});
        const std::vector<std::string> &errs = sh.errors[p];
        checks.push_back({"daemon.all_requests_ok", errs.empty(),
                          std::to_string(errs.size()) + " failed" +
                              (errs.empty() ? "" : ", e.g. " + errs.front()),
                          static_cast<int>(p)});
    }

    std::map<std::string, uint64_t> pool;
    for (const auto &[k, t] : sh.tallies)
        for (const auto &[f, v] : t)
            pool[f] += v;
    report::JsonReport poolJ;
    for (const auto &[f, v] : pool)
        poolJ.put(f, v);
    report::JsonArray passArr, reqArr, renderArr;
    for (const PassResult &p : passes) {
        report::JsonReport j;
        j.put("setup_ns", p.setupNs);
        j.put("job_ns", p.jobNs);
        j.put("drain_ns", p.drainNs);
        j.put("maxrss_kb", p.maxrssKb);
        passArr.addRaw(j.str());
    }
    for (const Outcome &o : sh.outcomes)
        reqArr.addRaw("[\"" + std::string(clsName(o.cls)) + "\", " +
                      std::to_string(o.pass) + ", " + std::to_string(o.conn) +
                      ", " + std::to_string(o.ns) + ", " +
                      (o.ok ? "true" : "false") + ", " + num(o.computeS) +
                      ", \"" + o.op + "\", \"" + o.duv + "\"]");
    for (double ms : renderMs)
        renderArr.addRaw(num(ms));
    report::JsonReport serveJ;
    serveJ.put("store_hits", totals.storeHits);
    serveJ.put("store_misses", totals.storeMisses);
    serveJ.put("store_writes", totals.storeWrites);
    serveJ.put("store_blob_writes", totals.blobWrites);
    serveJ.put("rejected", totals.rejected);
    serveJ.put("errors", totals.errors);
    serveJ.put("admission_wait_ns", totals.admissionWaitNs);

    report::JsonReport j;
    j.put("workload", std::string("daemon-mix"));
    j.put("seed", a.seed);
    j.putRaw("passes", passArr.str());
    j.putRaw("requests", reqArr.str());
    j.put("decided", pool["reachable"] + pool["unreachable"]);
    j.put("evaluated", pool["solver_queries"]);
    j.putRaw("pool", poolJ.str());
    j.putRaw("serve", serveJ.str());
    j.putRaw("render_ms", renderArr.str());
    j.putRaw("checks", checksJson(checks));
    if (!a.spansOut.empty() && !spanLog().write(a.spansOut)) {
        std::fprintf(stderr, "rmpbench: cannot write %s\n",
                     a.spansOut.c_str());
        return 1;
    }
    std::printf("%s\n", j.str().c_str());
    return 0;
}

} // namespace rmpbench
