/**
 * @file
 * Persistent content-addressed result cache for finished sweep points.
 *
 * Determinism (simlint D-rules + the golden harness) makes a finished
 * point immutable: the payload stored under hash(config + workload +
 * seed + warmup/measure + controller identity + version salt) can never
 * legitimately change, so a hit replays byte-identical report bytes and
 * repeated figure regenerations become near-free.
 *
 * Layout: one file per key, `<dir>/<64-hex-sha256>.cpt`, written to a
 * temp name and atomically renamed. Each file carries a one-line header
 * (magic, key, payload length, payload sha256) ahead of the payload;
 * any mismatch -- truncation, bit rot, a stale format -- is counted as
 * corrupt and treated as a miss, falling back to recompute. The version
 * salt is the whole-cache invalidation lever: bump it (or pass a new
 * one to sweepd) whenever a change alters simulated outcomes.
 */

#ifndef CLUSTERSIM_SERVE_CACHE_HH
#define CLUSTERSIM_SERVE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/thread_annotations.hh"
#include "sim/sweep.hh"

namespace clustersim {
namespace serve {

/**
 * Cache version salt: folded into every content address. Bump the
 * trailing tag in any PR that changes simulated outcomes (the golden
 * harness failing is the cue); every stale entry then misses by
 * construction instead of replaying outdated results.
 */
inline constexpr const char *defaultCacheSalt = "clustersim-results-v7";

/** Monotonic counters; snapshot via CacheStore::stats(). */
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t storeFailures = 0;
    std::uint64_t corrupt = 0;
};

/** Thread-safe persistent store: one payload per content address. */
class CacheStore
{
  public:
    /**
     * @param dir  Cache directory, created if missing. Empty disables
     *             the store (every load misses, stores are dropped).
     * @param salt Version salt folded into keyFor().
     */
    CacheStore(std::string dir, std::string salt = defaultCacheSalt);

    bool enabled() const { return !dir_.empty(); }
    const std::string &salt() const { return salt_; }
    const std::string &dir() const { return dir_; }

    /**
     * Content address of one planned point, or "" when the point's
     * identity is not fully declared (pointCacheable() false).
     */
    std::string keyFor(const RunPoint &p, const std::string &label,
                       std::uint64_t seed) const;

    /** Whether an entry file exists for key. Content is not verified
     *  and no hit/miss counters move -- a cheap probe for the submit
     *  handshake's `cached` estimate. */
    bool contains(const std::string &key) const;

    /** Payload stored under key; nullopt on miss or corruption. */
    std::optional<std::string> load(const std::string &key)
        CSIM_EXCLUDES(mutex_);

    /** Persist payload under key (atomic rename; last writer wins). */
    void store(const std::string &key, const std::string &payload)
        CSIM_EXCLUDES(mutex_);

    CacheStats stats() const CSIM_EXCLUDES(mutex_);

    /** Entry count and payload bytes currently on disk (directory
     *  scan; for the stats protocol frame, not hot paths). */
    void diskUsage(std::uint64_t &entries, std::uint64_t &bytes) const;

  private:
    std::string pathFor(const std::string &key) const;

    // simlint-ignore(C001): immutable after construction
    std::string dir_;
    // simlint-ignore(C001): immutable after construction
    std::string salt_;
    mutable Mutex mutex_;
    CacheStats stats_ CSIM_GUARDED_BY(mutex_);
    std::uint64_t tmpCounter_ CSIM_GUARDED_BY(mutex_) = 0;
};

} // namespace serve
} // namespace clustersim

#endif // CLUSTERSIM_SERVE_CACHE_HH
