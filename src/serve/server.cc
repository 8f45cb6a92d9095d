#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "analysis/absint.hh"
#include "analysis/fsmreach.hh"
#include "analysis/lint.hh"
#include "common/cachedir.hh"
#include "common/interrupt.hh"
#include "common/version.hh"
#include "designs/catalog.hh"
#include "ift/instrument.hh"
#include "obs/obs.hh"
#include "obs/progress.hh"
#include "report/json.hh"
#include "report/report.hh"

namespace rmp::serve
{

namespace
{

/** Cap a request line; a client spraying an unbounded line is dropped
 *  rather than ballooning the connection buffer. */
constexpr size_t kMaxLine = 1 << 20;

/** 2^53: every integer up to here is exactly representable as a
 *  double, so a JSON number in range converts without loss. */
constexpr double kMaxExactInt = 9007199254740992.0;

bool
isIntegerIn(const JsonValue &v, double lo, double hi)
{
    return v.kind == JsonValue::Kind::Number && v.number >= lo &&
           v.number <= hi && std::floor(v.number) == v.number;
}

/**
 * Check a heavy request before it is queued. Returns "" when it is well
 * formed, else the error to reply with, naming the offending key. Only
 * synth/prove (@p synth) take opts; a key they do not know is an error
 * rather than silently ignored.
 */
std::string
checkJobRequest(const JsonValue &req, bool synth)
{
    if (const JsonValue *p = req.find("priority");
        p && !isIntegerIn(*p, -kMaxExactInt, kMaxExactInt))
        return "priority must be an integer in [-2^53, 2^53]";
    const JsonValue *opts = req.find("opts");
    if (!synth || !opts)
        return "";
    if (!opts->isObject())
        return "opts must be an object";
    for (const auto &[key, v] : opts->members) {
        if (key == "budget") {
            if (!isIntegerIn(v, 0, kMaxExactInt))
                return "opts.budget must be an integer in [0, 2^53]";
        } else if (key == "closure" || key == "counts" ||
                   key == "audit_replay" || key == "audit_proof" ||
                   key == "render") {
            if (v.kind != JsonValue::Kind::Bool)
                return "opts." + key + " must be a boolean";
        } else if (key == "instrs") {
            if (!v.isArray() ||
                !std::all_of(v.items.begin(), v.items.end(),
                             [](const JsonValue &i) { return i.isString(); }))
                return "opts.instrs must be an array of strings";
        } else {
            return "unknown option opts." + key;
        }
    }
    return "";
}

bool
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** The μFSM state registers (same set the CLI's lint/analyze use). */
std::vector<SigId>
controlRegsOf(const designs::Harness &hx)
{
    std::vector<SigId> ctrl;
    for (const uhb::MicroFsm &fsm : hx.duv().fsms)
        for (SigId v : fsm.vars)
            ctrl.push_back(v);
    return ctrl;
}

/** Append the IFT soundness lint when the DUV declares operand regs. */
void
appendIftLint(const designs::Harness &hx, analysis::LintReport *rep)
{
    const uhb::DuvInfo &info = hx.duv();
    if (info.rs1Reg == kNoSig || info.rs2Reg == kNoSig)
        return;
    ift::IftConfig icfg;
    icfg.taintSources = {info.rs1Reg, info.rs2Reg};
    icfg.blockRegs = info.arfRegs;
    icfg.blockRegs.insert(icfg.blockRegs.end(), info.amemRegs.begin(),
                          info.amemRegs.end());
    icfg.persistentRegs = info.persistentRegs;
    icfg.txmGone = hx.txmGone;
    ift::Instrumented inst = ift::instrument(hx.design(), icfg);
    analysis::LintReport irep = analysis::lintIft(hx.design(), inst);
    rep->diags.insert(rep->diags.end(), irep.diags.begin(),
                      irep.diags.end());
}

/**
 * Per-job progress sink: serializes rate-limited NDJSON progress events
 * onto the requesting connection. update() arrives from the job's
 * worker thread AND the pool threads of its fan-outs (exec::parallelFor
 * re-installs the caller's sink on them), so it locks internally;
 * the connection's own write mutex keeps events and the final reply
 * line-atomic against each other.
 */
class ConnProgressSink : public obs::ProgressSink
{
  public:
    ConnProgressSink(std::function<void(const std::string &)> write,
                     uint64_t reqId, std::string op,
                     uint64_t minIntervalNs = 50'000'000)
        : write_(std::move(write)),
          reqId_(reqId),
          op_(std::move(op)),
          minIntervalNs_(minIntervalNs)
    {
    }

    void
    update(const obs::Progress &p) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        uint64_t now = obs::nowNs();
        bool phaseChange = p.phase != lastPhase_;
        bool finished = p.total && p.done >= p.total;
        if (!phaseChange && !finished && now - lastNs_ < minIntervalNs_)
            return;
        lastNs_ = now;
        lastPhase_ = p.phase;
        report::JsonReport r;
        r.put("event", std::string("progress"));
        r.put("id", reqId_);
        r.put("op", op_);
        r.put("phase", std::string(p.phase));
        r.put("done", p.done);
        r.put("total", p.total);
        if (!p.detail.empty())
            r.put("detail", p.detail);
        write_(r.str());
    }

  private:
    std::function<void(const std::string &)> write_;
    uint64_t reqId_;
    std::string op_;
    uint64_t minIntervalNs_;
    std::mutex mu_;
    uint64_t lastNs_ = 0;
    std::string lastPhase_;
};

} // anonymous namespace

Server::Server(ServeConfig cfg)
    : Server(std::move(cfg), [] {
          static std::atomic<uint64_t> next{0};
          return obs::Labels{{"server", std::to_string(next.fetch_add(1))}};
      }())
{
}

Server::Server(ServeConfig cfg, const obs::Labels &labels)
    : cfg_(std::move(cfg)),
      requests_(obs::Registry::global().counter("serve.requests", labels)),
      completed_(obs::Registry::global().counter("serve.completed", labels)),
      rejected_(obs::Registry::global().counter("serve.rejected", labels)),
      cancelled_(obs::Registry::global().counter("serve.cancelled", labels)),
      errors_(obs::Registry::global().counter("serve.errors", labels)),
      queueDepth_(obs::Registry::global().gauge("serve.queue_depth", labels))
{
    if (cfg_.useStore)
        store_ = std::make_unique<store::VerdictStore>(cfg_.storeRoot);
}

Server::~Server()
{
    stop();
    joinWorkersAndFlush(); // no-op after a completed run()
    for (auto &[fd, conn] : conns_)
        closeConn(conn);
    if (listenFd_ >= 0)
        close(listenFd_);
    if (wakeRead_ >= 0)
        close(wakeRead_);
    if (wakeWrite_ >= 0)
        close(wakeWrite_);
    if (!cfg_.socketPath.empty())
        unlink(cfg_.socketPath.c_str());
}

bool
Server::start(std::string *err)
{
    sockaddr_un addr{};
    if (cfg_.socketPath.empty() ||
        cfg_.socketPath.size() >= sizeof addr.sun_path) {
        if (err)
            *err = "invalid socket path";
        return false;
    }
    int fds[2];
    if (pipe(fds) != 0) {
        if (err)
            *err = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    wakeRead_ = fds[0];
    wakeWrite_ = fds[1];
    setNonBlocking(wakeRead_);
    setNonBlocking(wakeWrite_);

    listenFd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        if (err)
            *err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    // The daemon owns its socket path: replace any stale file. Two
    // daemons racing the same path is an operator error either way.
    unlink(cfg_.socketPath.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg_.socketPath.c_str(),
                 sizeof addr.sun_path - 1);
    if (bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
             sizeof addr) != 0 ||
        listen(listenFd_, 16) != 0) {
        if (err)
            *err = std::string("bind/listen ") + cfg_.socketPath + ": " +
                   std::strerror(errno);
        return false;
    }
    setNonBlocking(listenFd_);
    return true;
}

void
Server::stop()
{
    stopping_.store(true, std::memory_order_relaxed);
    if (wakeWrite_ >= 0) {
        char b = 1;
        [[maybe_unused]] ssize_t n = write(wakeWrite_, &b, 1);
    }
}

int
Server::run()
{
    if (cfg_.handleSignals) {
        installInterruptHandlers();
        setInterruptWakeFd(wakeWrite_);
    }
    unsigned n = cfg_.workers
                     ? cfg_.workers
                     : std::max(1u, std::thread::hardware_concurrency());
    workers_.reserve(n);
    for (unsigned i = 0; i < n; i++) {
        workers_.push_back(std::make_unique<Worker>());
        workers_.back()->thread =
            std::thread(&Server::workerMain, this, static_cast<size_t>(i));
    }
    int rc = runLoop();
    joinWorkersAndFlush();
    for (auto &[fd, conn] : conns_)
        closeConn(conn);
    conns_.clear();
    if (listenFd_ >= 0) {
        close(listenFd_);
        listenFd_ = -1;
    }
    unlink(cfg_.socketPath.c_str());
    if (cfg_.handleSignals)
        setInterruptWakeFd(-1);
    return rc;
}

int
Server::runLoop()
{
    while (true) {
        if (!draining_.load(std::memory_order_relaxed) &&
            (stopping_.load(std::memory_order_relaxed) ||
             (cfg_.handleSignals && interruptRequested())))
            beginDrain();
        if (draining_.load(std::memory_order_relaxed)) {
            // Drained once every worker's queue is empty; in-flight
            // jobs finish while we wait (they still write responses;
            // joinWorkersAndFlush() waits them out after runLoop).
            std::unique_lock<std::mutex> lk(qmu_);
            bool empty = true;
            for (const auto &w : workers_)
                empty = empty && w->queue.empty();
            if (empty)
                return 0;
        }

        std::vector<pollfd> pfds;
        pfds.push_back({wakeRead_, POLLIN, 0});
        if (!draining_.load(std::memory_order_relaxed))
            pfds.push_back({listenFd_, POLLIN, 0});
        std::vector<std::shared_ptr<Conn>> polled;
        for (auto &[fd, conn] : conns_) {
            pfds.push_back({fd, POLLIN, 0});
            polled.push_back(conn);
        }

        int n = poll(pfds.data(), pfds.size(), 200);
        if (n < 0 && errno != EINTR)
            return 1;
        if (n <= 0)
            continue;

        size_t idx = 0;
        if (pfds[idx].revents & POLLIN) {
            char buf[64];
            while (read(wakeRead_, buf, sizeof buf) > 0)
                ;
        }
        idx++;
        if (!draining_.load(std::memory_order_relaxed)) {
            if (pfds[idx].revents & POLLIN)
                acceptClients();
            idx++;
        }
        for (size_t c = 0; c < polled.size(); c++, idx++) {
            if (!(pfds[idx].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            if (!readConn(polled[c])) {
                conns_.erase(pfds[idx].fd);
                closeConn(polled[c]);
            }
        }
    }
}

void
Server::acceptClients()
{
    while (true) {
        int fd = accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return;
        setNonBlocking(fd);
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conns_[fd] = conn;
    }
}

bool
Server::readConn(const std::shared_ptr<Conn> &conn)
{
    char buf[4096];
    while (true) {
        ssize_t n = recv(conn->fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn->inbuf.append(buf, static_cast<size_t>(n));
            if (conn->inbuf.size() > kMaxLine)
                return false; // unbounded line: drop the client
            continue;
        }
        if (n == 0)
            return false;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        return false;
    }
    size_t start = 0;
    while (true) {
        size_t nl = conn->inbuf.find('\n', start);
        if (nl == std::string::npos)
            break;
        std::string line = conn->inbuf.substr(start, nl - start);
        start = nl + 1;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!line.empty())
            handleLine(conn, line);
    }
    conn->inbuf.erase(0, start);
    return true;
}

void
Server::handleLine(const std::shared_ptr<Conn> &conn,
                   const std::string &line)
{
    requests_.add();
    JsonValue req;
    std::string perr;
    if (!parseJson(line, &req, &perr) || !req.isObject()) {
        errors_.add();
        writeLine(conn, errorResponse(0, "",
                                      perr.empty() ? "request is not a JSON"
                                                     " object"
                                                   : "parse error: " + perr));
        return;
    }
    uint64_t id = req.u64("id");
    std::string op = req.str("op");

    if (op == "ping") {
        report::JsonReport r;
        r.put("id", id);
        r.putRaw("ok", "true");
        r.put("op", op);
        r.put("version", std::string(versionString()));
        writeLine(conn, r.str());
        return;
    }
    if (op == "stats") {
        ServerStats s = stats();
        report::JsonReport r;
        r.put("id", id);
        r.putRaw("ok", "true");
        r.put("op", op);
        r.put("requests", s.requests);
        r.put("completed", s.completed);
        r.put("rejected", s.rejected);
        r.put("cancelled", s.cancelled);
        r.put("errors", s.errors);
        r.put("queue_depth", static_cast<uint64_t>(s.queueDepth));
        r.put("warm_entries", static_cast<uint64_t>(s.warmEntries));
        r.put("workers", static_cast<uint64_t>(s.workers));
        r.putRaw("store", report::storeStatsJson(s.store));
        writeLine(conn, r.str());
        return;
    }
    if (op == "cancel") {
        uint64_t target = req.u64("target");
        bool hit = cancelJob(conn, target);
        report::JsonReport r;
        r.put("id", id);
        r.putRaw("ok", "true");
        r.put("op", op);
        r.put("target", target);
        r.putRaw("cancelled", hit ? "true" : "false");
        writeLine(conn, r.str());
        return;
    }
    if (op == "shutdown") {
        report::JsonReport r;
        r.put("id", id);
        r.putRaw("ok", "true");
        r.put("op", op);
        writeLine(conn, r.str());
        beginDrain();
        return;
    }
    if (op == "synth" || op == "prove" || op == "lint" || op == "analyze") {
        if (draining_.load(std::memory_order_relaxed)) {
            rejected_.add();
            writeLine(conn, errorResponse(id, op, "draining"));
            return;
        }
        std::string bad =
            checkJobRequest(req, op == "synth" || op == "prove");
        if (!bad.empty()) {
            errors_.add();
            writeLine(conn, errorResponse(id, op, bad));
            return;
        }
        Job job;
        job.priority = 0;
        if (const JsonValue *p = req.find("priority"))
            job.priority = static_cast<int64_t>(p->number);
        job.reqId = id;
        job.op = op;
        job.progress = req.boolean_("progress");
        job.conn = conn;
        job.req = req;
        // Route by the job's (DUV, config) key: synth/prove hash the
        // exact warm-registry fingerprint (so a key's warm entry lives
        // on precisely one worker), lint/analyze just need same-key
        // serialization for deterministic per-key ordering.
        std::string duv = req.str("duv");
        if (op == "synth" || op == "prove") {
            const JsonValue *optsPtr = req.find("opts");
            JsonValue empty;
            const JsonValue &opts = optsPtr ? *optsPtr : empty;
            r2m::SynthesisConfig sc = makeSynthConfig(opts, op == "prove");
            job.workerIdx = workerFor(synthKey(duv, sc));
        } else {
            job.workerIdx = workerFor(duv + "|" + op);
        }
        enqueue(std::move(job));
        return;
    }
    errors_.add();
    writeLine(conn, errorResponse(id, op, "unknown op '" + op + "'"));
}

size_t
Server::workerFor(const std::string &key) const
{
    if (workers_.empty())
        return 0;
    return static_cast<size_t>(fnv1a64(key.data(), key.size()) %
                               workers_.size());
}

void
Server::enqueue(Job job)
{
    {
        std::lock_guard<std::mutex> lk(qmu_);
        Worker &w = *workers_[job.workerIdx];
        if (w.queue.size() >= cfg_.maxQueue) {
            rejected_.add();
            writeLine(job.conn,
                      errorResponse(job.reqId, job.op, "queue full"));
            return;
        }
        job.seq = nextSeq_++;
        w.queue.push_back(std::move(job));
        queueDepth_.add(1);
    }
    qcv_.notify_all();
}

bool
Server::cancelJob(const std::shared_ptr<Conn> &conn, uint64_t target)
{
    Job victim;
    bool hit = false;
    {
        std::lock_guard<std::mutex> lk(qmu_);
        for (auto &wp : workers_) {
            auto &q = wp->queue;
            for (auto it = q.begin(); it != q.end(); ++it) {
                if (it->conn == conn && it->reqId == target) {
                    victim = std::move(*it);
                    q.erase(it);
                    queueDepth_.add(-1);
                    hit = true;
                    break;
                }
            }
            if (hit)
                break;
        }
    }
    if (hit) {
        cancelled_.add();
        writeLine(victim.conn,
                  errorResponse(victim.reqId, victim.op, "cancelled"));
    }
    return hit;
}

void
Server::beginDrain()
{
    bool was = draining_.exchange(true, std::memory_order_relaxed);
    if (was)
        return;
    drainQueue("draining");
    qcv_.notify_all();
}

void
Server::drainQueue(const char *why)
{
    std::deque<Job> dropped;
    {
        std::lock_guard<std::mutex> lk(qmu_);
        for (auto &wp : workers_)
            for (Job &j : wp->queue)
                dropped.push_back(std::move(j));
        for (auto &wp : workers_)
            wp->queue.clear();
        queueDepth_.set(0);
    }
    for (Job &j : dropped) {
        rejected_.add();
        writeLine(j.conn, errorResponse(j.reqId, j.op, why));
    }
}

void
Server::joinWorkersAndFlush()
{
    {
        std::lock_guard<std::mutex> lk(qmu_);
        queueClosed_ = true;
    }
    qcv_.notify_all();
    for (auto &wp : workers_)
        if (wp->thread.joinable())
            wp->thread.join();
    // Tear every registry shard down on this thread: each pool
    // destructor flushes its pending unsat proofs into the verdict
    // store (the drain's durability guarantee), and flushStore()'s
    // swap semantics make the flush per-shard exactly-once even if a
    // worker already flushed on its way out.
    for (auto &wp : workers_)
        wp->warm.clear();
    warmCount_.store(0, std::memory_order_relaxed);
    // The store's background flusher publishes the last writes before
    // anyone (kill-mid-batch regression: `rmp store verify`) reads the
    // directory.
    if (store_)
        store_->flush();
}

void
Server::workerMain(size_t idx)
{
    Worker &w = *workers_[idx];
    while (true) {
        Job job;
        {
            std::unique_lock<std::mutex> lk(qmu_);
            qcv_.wait(lk,
                      [&] { return queueClosed_ || !w.queue.empty(); });
            if (w.queue.empty()) {
                if (queueClosed_)
                    return;
                continue;
            }
            // Highest priority first, FIFO (lowest seq) within a level
            // — per worker, i.e. per (DUV, config) routing key, which
            // is exactly the single-worker schedule restricted to the
            // keys that hash here.
            auto best = w.queue.begin();
            for (auto it = std::next(best); it != w.queue.end(); ++it)
                if (it->priority > best->priority ||
                    (it->priority == best->priority &&
                     it->seq < best->seq))
                    best = it;
            job = std::move(*best);
            w.queue.erase(best);
            queueDepth_.add(-1);
        }
        std::string resp = runJob(w, job);
        // Count before answering: a lock-step client may query stats the
        // instant it reads this response.
        completed_.add();
        writeLine(job.conn, resp);
        // A drain that raced job pickup: answer anything that queued
        // behind us, and nudge the poll loop so run() can return
        // without waiting out a 200ms poll lap.
        if (draining_.load(std::memory_order_relaxed)) {
            drainQueue("draining");
            stop();
        }
    }
}

std::string
Server::runJob(Worker &w, const Job &job)
{
    // Opt-in streaming: install the job's NDJSON progress sink
    // thread-locally for the duration; exec::parallelFor re-installs it
    // on the pool threads of each fan-out, so deep layers reach this client
    // without any global (cross-job) state.
    std::unique_ptr<ConnProgressSink> sink;
    std::optional<obs::ScopedProgressSink> scoped;
    if (job.progress) {
        auto conn = job.conn;
        sink = std::make_unique<ConnProgressSink>(
            [conn](const std::string &line) { writeLine(conn, line); },
            job.reqId, job.op);
        scoped.emplace(sink.get());
    }
    if (job.op == "synth")
        return runSynth(w, job, /*closure=*/false);
    if (job.op == "prove")
        return runSynth(w, job, /*closure=*/true);
    if (job.op == "lint")
        return runLint(job);
    return runAnalyze(job);
}

r2m::SynthesisConfig
Server::makeSynthConfig(const JsonValue &opts, bool closure) const
{
    r2m::SynthesisConfig sc;
    sc.budget.maxConflicts = opts.u64("budget", 20'000);
    sc.closureChecks = closure || opts.boolean_("closure");
    sc.revisitCounts = opts.boolean_("counts");
    sc.auditReplay = opts.boolean_("audit_replay");
    sc.auditProof = opts.boolean_("audit_proof");
    sc.jobs = cfg_.jobs;
    sc.store = store_ && store_->enabled() ? store_.get() : nullptr;
    return sc;
}

std::string
Server::synthKey(const std::string &duv, const r2m::SynthesisConfig &sc)
{
    return duv + "|c" + std::to_string(sc.closureChecks) + "|b" +
           std::to_string(sc.budget.maxConflicts) + "|r" +
           std::to_string(sc.revisitCounts) + "|ar" +
           std::to_string(sc.auditReplay) + "|ap" +
           std::to_string(sc.auditProof);
}

Server::WarmEntry *
Server::warmEntry(Worker &w, const std::string &duv, const JsonValue &opts,
                  bool closure, std::string *err, std::string *fingerprint)
{
    r2m::SynthesisConfig sc = makeSynthConfig(opts, closure);
    std::string key = synthKey(duv, sc);
    if (fingerprint)
        *fingerprint = key;

    auto it = w.warm.find(key);
    if (it == w.warm.end()) {
        std::optional<designs::DuvUnderConstruction> duc =
            designs::buildDuv(duv);
        if (!duc) {
            *err = "unknown DUV '" + duv + "' (try: rmp list)";
            return nullptr;
        }
        WarmEntry e;
        e.hx = std::make_unique<designs::Harness>(std::move(*duc));
        e.synth = std::make_unique<r2m::MuPathSynthesizer>(*e.hx, sc);
        it = w.warm.emplace(key, std::move(e)).first;
        warmCount_.fetch_add(1, std::memory_order_relaxed);
    }
    it->second.uses++;
    return &it->second;
}

std::string
Server::runSynth(Worker &w, const Job &job, bool closure)
{
    std::string duv = job.req.str("duv");
    const JsonValue *optsPtr = job.req.find("opts");
    JsonValue empty;
    const JsonValue &opts = optsPtr ? *optsPtr : empty;

    std::string err, fpr;
    WarmEntry *e = warmEntry(w, duv, opts, closure, &err, &fpr);
    if (!e) {
        errors_.add();
        return errorResponse(job.reqId, job.op, err);
    }
    const designs::Harness &hx = *e->hx;

    std::vector<uhb::InstrId> ids;
    if (const JsonValue *instrs = opts.find("instrs");
        instrs && !instrs->items.empty()) {
        for (const JsonValue &v : instrs->items) {
            std::optional<uhb::InstrId> id = hx.duv().findInstr(v.string);
            if (!id) {
                errors_.add();
                return errorResponse(job.reqId, job.op,
                                     "unknown instruction '" + v.string +
                                         "' on " + duv);
            }
            ids.push_back(*id);
        }
    } else {
        for (size_t i = 0; i < hx.duv().instrs.size(); i++)
            ids.push_back(static_cast<uhb::InstrId>(i));
    }

    auto t0 = std::chrono::steady_clock::now();
    std::map<uhb::InstrId, uhb::InstrPaths> all =
        e->synth->synthesizeAll(ids);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    report::JsonReport r;
    r.put("id", job.reqId);
    r.putRaw("ok", "true");
    r.put("op", job.op);
    r.put("duv", duv);
    r.putRaw("warm", e->uses > 1 ? "true" : "false");
    size_t paths = 0, decisions = 0;
    report::JsonArray arr;
    for (uhb::InstrId i : ids) {
        auto it = all.find(i);
        if (it == all.end())
            continue; // interrupted mid-run (drain): partial result
        report::JsonReport ins;
        ins.put("name", hx.duv().instrs[i].name);
        ins.put("upaths", static_cast<uint64_t>(it->second.paths.size()));
        ins.put("decisions",
                static_cast<uint64_t>(it->second.decisions.size()));
        arr.addRaw(ins.str());
        paths += it->second.paths.size();
        decisions += it->second.decisions.size();
    }
    r.putRaw("instrs", arr.str());
    r.put("paths", static_cast<uint64_t>(paths));
    r.put("decisions", static_cast<uint64_t>(decisions));
    r.putRaw("partial", all.size() == ids.size() ? "false" : "true");
    r.put("seconds", secs);
    exec::PoolStats ps = e->synth->pool().stats();
    r.putRaw("pool", report::poolStatsJson(ps));
    r.putRaw("store", report::storeStatsJson(ps.store));
    if (opts.boolean_("render"))
        r.put("render", report::renderSynthAll(hx, ids, all));
    return r.str();
}

std::string
Server::runLint(const Job &job)
{
    std::string duv = job.req.str("duv");
    std::optional<designs::DuvUnderConstruction> duc =
        designs::buildDuv(duv);
    if (!duc) {
        errors_.add();
        return errorResponse(job.reqId, job.op, "unknown DUV '" + duv + "'");
    }
    designs::Harness hx(std::move(*duc));
    analysis::LintConfig lcfg;
    lcfg.controlRegs = controlRegsOf(hx);
    analysis::LintReport rep = analysis::lint(hx.design(), lcfg);
    appendIftLint(hx, &rep);

    report::JsonReport r;
    r.put("id", job.reqId);
    r.putRaw("ok", "true");
    r.put("op", job.op);
    r.put("duv", duv);
    r.put("errors", static_cast<uint64_t>(rep.errors()));
    r.put("warnings", static_cast<uint64_t>(rep.warnings()));
    r.putRaw("lint", report::diagnosticsJson(hx.design(), rep));
    return r.str();
}

std::string
Server::runAnalyze(const Job &job)
{
    std::string duv = job.req.str("duv");
    std::optional<designs::DuvUnderConstruction> duc =
        designs::buildDuv(duv);
    if (!duc) {
        errors_.add();
        return errorResponse(job.reqId, job.op, "unknown DUV '" + duv + "'");
    }
    designs::Harness hx(std::move(*duc));
    const Design &d = hx.design();
    std::vector<SigId> ctrl = controlRegsOf(hx);
    analysis::AbsFacts facts = analysis::absInterpret(d);
    std::vector<analysis::FsmReachResult> reach =
        analysis::fsmReachability(d, ctrl, facts);
    analysis::LintConfig lcfg;
    lcfg.controlRegs = ctrl;
    analysis::LintReport rep = analysis::lint(d, lcfg);
    appendIftLint(hx, &rep);

    report::JsonReport r;
    r.put("id", job.reqId);
    r.putRaw("ok", "true");
    r.put("op", job.op);
    r.put("duv", duv);
    r.put("cells", static_cast<uint64_t>(d.numCells()));
    r.put("bits_known", facts.bitsKnown);
    r.put("bits_total", facts.bitsTotal);
    r.put("fixpoint_iters", static_cast<uint64_t>(facts.fixpointIters));
    report::JsonArray fsms;
    for (const analysis::FsmReachResult &fr : reach) {
        report::JsonReport e;
        e.put("reg", static_cast<uint64_t>(fr.reg));
        e.putRaw("exact", fr.exact ? "true" : "false");
        report::JsonArray states;
        for (uint64_t s : fr.states)
            states.add(s);
        e.putRaw("states", states.str());
        fsms.addRaw(e.str());
    }
    r.putRaw("fsm_regs", fsms.str());
    r.putRaw("lint", report::diagnosticsJson(d, rep));
    return r.str();
}

ServerStats
Server::stats() const
{
    ServerStats s;
    s.requests = requests_.value();
    s.completed = completed_.value();
    s.rejected = rejected_.value();
    s.cancelled = cancelled_.value();
    s.errors = errors_.value();
    {
        std::lock_guard<std::mutex> lk(qmu_);
        for (const auto &wp : workers_)
            s.queueDepth += wp->queue.size();
    }
    s.workers = static_cast<unsigned>(workers_.size());
    s.warmEntries = warmCount_.load(std::memory_order_relaxed);
    if (store_)
        s.store = store_->stats();
    return s;
}

void
Server::writeLine(const std::shared_ptr<Conn> &conn, const std::string &json)
{
    std::lock_guard<std::mutex> lk(conn->wmu);
    if (conn->fd < 0)
        return;
    std::string line = json + "\n";
    size_t off = 0;
    while (off < line.size()) {
        ssize_t n = send(conn->fd, line.data() + off, line.size() - off,
                         MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Large responses (renders) can outrun the socket buffer;
            // block this writer until the client drains it.
            pollfd p{conn->fd, POLLOUT, 0};
            if (poll(&p, 1, 10'000) <= 0)
                return; // stalled client: give up on this line
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return; // disconnected client: responses are best-effort
    }
}

void
Server::closeConn(const std::shared_ptr<Conn> &conn)
{
    std::lock_guard<std::mutex> lk(conn->wmu);
    if (conn->fd >= 0) {
        close(conn->fd);
        conn->fd = -1;
    }
}

std::string
Server::errorResponse(uint64_t req_id, const std::string &op,
                      const std::string &message)
{
    report::JsonReport r;
    r.put("id", req_id);
    r.putRaw("ok", "false");
    if (!op.empty())
        r.put("op", op);
    r.put("error", message);
    return r.str();
}

} // namespace rmp::serve
