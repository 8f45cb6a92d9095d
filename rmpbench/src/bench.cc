#include "bench.hh"

#include <fstream>

#include "common/cachedir.hh"

namespace rmpbench
{

namespace
{

thread_local std::vector<int64_t> tl_open;
thread_local unsigned tl_thread = 0;

} // anonymous namespace

SpanLog &
spanLog()
{
    static SpanLog log;
    return log;
}

std::string
SpanLog::json() const
{
    std::lock_guard<std::mutex> lock(mu_);
    rmp::report::JsonArray arr;
    for (const SpanRec &s : spans_) {
        rmp::report::JsonReport j;
        j.put("name", s.name);
        j.put("t0", s.t0);
        j.put("t1", s.t1);
        j.putRaw("parent", std::to_string(s.parent));
        j.put("req", s.req);
        j.put("thread", static_cast<uint64_t>(s.thread));
        arr.addRaw(j.str());
    }
    return arr.str();
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream f(path);
    f << json() << "\n";
    return static_cast<bool>(f);
}

Scope::Scope(const char *name, uint64_t req)
{
    int64_t parent = tl_open.empty() ? -1 : tl_open.back();
    idx_ = spanLog().open(name, parent, req, tl_thread);
    tl_open.push_back(idx_);
}

Scope::~Scope()
{
    end();
}

double
Scope::end()
{
    if (open_) {
        open_ = false;
        spanLog().close(idx_);
        tl_open.pop_back();
    }
    return spanLog().seconds(idx_);
}

void
setSpanThread(unsigned thread)
{
    tl_thread = thread;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
checksJson(const std::vector<Check> &checks)
{
    rmp::report::JsonArray arr;
    for (const Check &c : checks) {
        rmp::report::JsonReport j;
        j.put("name", c.name);
        j.putRaw("ok", c.ok ? "true" : "false");
        j.put("detail", c.detail);
        if (c.pass >= 0)
            j.put("pass", static_cast<uint64_t>(c.pass));
        arr.addRaw(j.str());
    }
    return arr.str();
}

std::string
digest(const std::string &text)
{
    return rmp::hashHex(rmp::contentHash128(text.data(), text.size()));
}

} // namespace rmpbench
