#include "common/cachedir.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>

#include "common/logging.hh"

namespace rmp
{

namespace
{

namespace fs = std::filesystem;

/** splitmix64 finalizer (same combiner family as prop::exprHash). */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // anonymous namespace

std::string
cacheDir(const std::string &subdir)
{
    fs::path dir;
    if (const char *env = std::getenv("RMP_CACHE_DIR"); env && *env)
        dir = env;
    else if (const char *home = std::getenv("HOME"); home && *home)
        dir = fs::path(home) / ".cache" / "rmp";
    else
        dir = fs::path("/tmp") / "rmp-cache";
    if (!subdir.empty())
        dir /= subdir;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        // Warn once per failing path, not once per call: a read-only
        // cache root degrades every put() into a no-op and would
        // otherwise spam one warning per query.
        static std::mutex mu;
        static std::set<std::string> warned;
        std::lock_guard<std::mutex> lock(mu);
        if (warned.insert(dir.string()).second)
            warn("cannot create cache dir " + dir.string() + ": " +
                 ec.message());
        return "";
    }
    return dir.string();
}

bool
atomicWriteFile(const std::string &path, const std::string &bytes)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    bool ok = true;
    size_t off = 0;
    while (ok && off < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ok = false;
        } else {
            off += static_cast<size_t>(n);
        }
    }
    if (ok && ::fsync(fd) != 0)
        ok = false;
    if (::close(fd) != 0)
        ok = false;
    if (ok) {
        std::error_code ec;
        fs::rename(tmp, path, ec);
        ok = !ec;
    }
    if (!ok) {
        std::error_code ec;
        fs::remove(tmp, ec);
    }
    return ok;
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return false;
    out->assign(std::istreambuf_iterator<char>(f),
                std::istreambuf_iterator<char>());
    return f.good() || f.eof();
}

uint64_t
fnv1a64(const void *data, size_t len, uint64_t seed)
{
    const auto *b = static_cast<const uint8_t *>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < len; i++) {
        h ^= b[i];
        h *= 1099511628211ULL;
    }
    return h;
}

Hash128
contentHash128(const void *data, size_t len)
{
    Hash128 h;
    h.lo = mix64(fnv1a64(data, len) ^ 0x517cc1b727220a95ULL);
    h.hi = mix64(fnv1a64(data, len, 0x9ae16a3b2f90404fULL) ^
                 0x2545f4914f6cdd1dULL);
    return h;
}

std::string
hashHex(const Hash128 &h)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(h.hi),
                  static_cast<unsigned long long>(h.lo));
    return buf;
}

} // namespace rmp
