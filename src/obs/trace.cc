#include "obs/trace.hh"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

namespace rmp::obs
{

namespace detail
{
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace
{

/** One recorded complete event. */
struct Event
{
    const char *name;
    const char *cat;
    uint64_t ts;  ///< start, ns (steady clock)
    uint64_t dur; ///< ns
    const char *keys[Span::kMaxArgs];
    uint64_t vals[Span::kMaxArgs];
    uint8_t nargs;
};

/**
 * Per-thread event buffer. Only the owning thread appends; the mutex is
 * taken by the exporter (and by clearTrace) to snapshot safely while
 * the thread is alive, and is uncontended during recording.
 */
struct ThreadBuf
{
    std::mutex mu;
    std::vector<Event> events;
    uint32_t tid = 0;
};

struct TraceState
{
    std::mutex mu; ///< guards bufs / epoch / nextTid
    std::vector<std::unique_ptr<ThreadBuf>> bufs;
    uint64_t epochNs = 0;
    uint32_t nextTid = 1000; ///< one track per recording thread
};

TraceState &
state()
{
    static TraceState *s = new TraceState; // immortal: threads may outlive main
    return *s;
}

thread_local ThreadBuf *tl_buf = nullptr;

ThreadBuf &
threadBuf()
{
    if (!tl_buf) {
        TraceState &s = state();
        std::lock_guard<std::mutex> lock(s.mu);
        s.bufs.push_back(std::make_unique<ThreadBuf>());
        s.bufs.back()->tid = s.nextTid++;
        tl_buf = s.bufs.back().get();
    }
    return *tl_buf;
}

} // anonymous namespace

void
setEnabled(bool on)
{
    if (on) {
        TraceState &s = state();
        std::lock_guard<std::mutex> lock(s.mu);
        if (!s.epochNs)
            s.epochNs = nowNs();
    }
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

void
Span::finish()
{
    uint64_t t1 = nowNs();
    Event e;
    e.name = name_;
    e.cat = cat_;
    e.ts = t0_;
    e.dur = t1 - t0_;
    e.nargs = static_cast<uint8_t>(nargs_);
    for (int i = 0; i < nargs_; i++) {
        e.keys[i] = keys_[i];
        e.vals[i] = vals_[i];
    }
    ThreadBuf &b = threadBuf();
    std::lock_guard<std::mutex> lock(b.mu);
    b.events.push_back(e);
}

size_t
eventCount()
{
    TraceState &s = state();
    std::vector<ThreadBuf *> bufs;
    {
        std::lock_guard<std::mutex> lock(s.mu);
        for (auto &b : s.bufs)
            bufs.push_back(b.get());
    }
    size_t n = 0;
    for (ThreadBuf *b : bufs) {
        std::lock_guard<std::mutex> lock(b->mu);
        n += b->events.size();
    }
    return n;
}

void
clearTrace()
{
    TraceState &s = state();
    std::vector<ThreadBuf *> bufs;
    {
        std::lock_guard<std::mutex> lock(s.mu);
        for (auto &b : s.bufs)
            bufs.push_back(b.get());
    }
    for (ThreadBuf *b : bufs) {
        std::lock_guard<std::mutex> lock(b->mu);
        b->events.clear();
    }
}

std::string
traceJson()
{
    TraceState &s = state();
    std::vector<ThreadBuf *> bufs;
    uint64_t epoch;
    {
        std::lock_guard<std::mutex> lock(s.mu);
        for (auto &b : s.bufs)
            bufs.push_back(b.get());
        epoch = s.epochNs;
    }
    struct Rec
    {
        Event e;
        uint32_t tid;
    };
    std::vector<Rec> recs;
    for (ThreadBuf *b : bufs) {
        std::lock_guard<std::mutex> lock(b->mu);
        for (const Event &e : b->events)
            recs.push_back({e, b->tid});
    }
    std::stable_sort(recs.begin(), recs.end(),
                     [](const Rec &a, const Rec &b) {
                         return a.e.ts < b.e.ts;
                     });

    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };
    char buf[64];
    for (const Rec &r : recs) {
        sep();
        double ts_us = (r.e.ts - epoch) / 1000.0;
        double dur_us = r.e.dur / 1000.0;
        std::snprintf(buf, sizeof buf, "%.3f", ts_us);
        os << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << r.tid
           << ", \"name\": \"" << r.e.name << "\", \"cat\": \"" << r.e.cat
           << "\", \"ts\": " << buf;
        std::snprintf(buf, sizeof buf, "%.3f", dur_us);
        os << ", \"dur\": " << buf;
        if (r.e.nargs) {
            os << ", \"args\": {";
            for (int i = 0; i < r.e.nargs; i++) {
                if (i)
                    os << ", ";
                os << "\"" << r.e.keys[i] << "\": " << r.e.vals[i];
            }
            os << "}";
        }
        os << "}";
    }
    os << "\n]}\n";
    return os.str();
}

bool
exportChromeTrace(const std::string &path)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << traceJson();
    return static_cast<bool>(f);
}

} // namespace rmp::obs
