/**
 * @file
 * Shared on-disk cache-directory plumbing.
 *
 * The verdict store (src/store) persists derived artifacts under one
 * cache root; it and the daemon's worker routing (src/serve) share:
 *
 *  - one resolution rule for the cache root: $RMP_CACHE_DIR, else
 *    $HOME/.cache/rmp, else /tmp/rmp-cache — created on first use;
 *  - atomic publication: artifacts are written to a tmp name unique to
 *    the writing process and rename(2)d into place, so a reader never
 *    observes a half-written file and two processes racing on one key
 *    both end with a valid file (last rename wins);
 *  - FNV-1a content hashing, the fingerprint family every cache key in
 *    the repo uses.
 */

#ifndef COMMON_CACHEDIR_HH
#define COMMON_CACHEDIR_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace rmp
{

/**
 * Resolve (and create) the cache root: $RMP_CACHE_DIR if set, else
 * $HOME/.cache/rmp, else /tmp/rmp-cache. A non-empty @p subdir is
 * appended (and created) under the root. Returns "" if the directory
 * cannot be created, after warning once per failing path.
 */
std::string cacheDir(const std::string &subdir = "");

/**
 * Atomically publish @p bytes at @p path: write to "<path>.tmp.<pid>",
 * fsync, then rename into place. Returns false (removing the tmp file)
 * on any failure. The file is durable against power loss once this
 * returns — the verdict store's fsync-on-commit.
 */
bool atomicWriteFile(const std::string &path, const std::string &bytes);

/** Read a whole file; returns false if it cannot be opened/read. */
bool readFile(const std::string &path, std::string *out);

/** FNV-1a 64-bit over a byte range (offset basis / prime per spec). */
uint64_t fnv1a64(const void *data, size_t len,
                 uint64_t seed = 1469598103934665603ULL);

/**
 * 128 bits of content address derived from two independently-seeded
 * FNV-1a/splitmix passes. Not cryptographic — collision *detection*
 * stays with the caller (canonical bytes stored and compared), exactly
 * as in exec::QueryCache.
 */
struct Hash128
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool operator==(const Hash128 &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
};

Hash128 contentHash128(const void *data, size_t len);

/** 32 lowercase hex chars (hi then lo) naming a Hash128 on disk. */
std::string hashHex(const Hash128 &h);

} // namespace rmp

#endif // COMMON_CACHEDIR_HH
