/**
 * @file
 * Persistent warmup-checkpoint store: serialized post-warmup
 * Processor::Snapshot blobs reused across sweeps and by the sweep
 * daemon.
 *
 * A point's warmup is a pure function of its warmup identity (workload
 * stream + config + warmup count + controller identity -- see
 * warmupIdentityKey() in sim/plan.hh), so the machine state it produces
 * is immutable and can be persisted: a later run with the same identity
 * restores the snapshot instead of re-simulating the warmup, which is
 * the bulk of wall time for warmup-heavy sweeps. Restore is bit-exact
 * by the Processor::Snapshot contract, so warm-started reports are
 * byte-identical to cold ones.
 *
 * The on-disk format mirrors the serve-layer result cache: one file per
 * key, `<dir>/<64-hex-sha256>.ckp`, a one-line header (magic, key,
 * payload length, payload sha256) ahead of the payload, written to a
 * temp name and atomically renamed. Corruption, truncation, or a stale
 * snapshotFormatVersion inside the payload all degrade to a miss and a
 * recompute -- never a wrong report. The salt is the invalidation
 * lever: bump it (or pass a new one) whenever a change alters simulated
 * outcomes.
 *
 * In-flight dedup: concurrent cold jobs that need the same checkpoint
 * coordinate through beginCompute(), so one computes the warmup and the
 * rest restore its stored blob instead of burning cores on identical
 * work.
 */

#ifndef CLUSTERSIM_SIM_CHECKPOINT_HH
#define CLUSTERSIM_SIM_CHECKPOINT_HH

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "core/processor.hh"
#include "sim/sweep.hh"

namespace clustersim {

/**
 * Checkpoint version salt, folded into every content address. Bump the
 * trailing tag in any PR that changes simulated outcomes or the
 * snapshot layout; stale blobs then miss by construction. (The payload
 * additionally self-identifies via snapshotFormatVersion, so either
 * lever alone is sufficient -- the salt invalidates without reading
 * files, the version rejects blobs that slip through.)
 */
inline constexpr const char *defaultCheckpointSalt =
    "clustersim-warmup-v2";

/** Monotonic counters; snapshot via WarmupCheckpointStore::stats(). */
struct CheckpointStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t storeFailures = 0;
    std::uint64_t corrupt = 0;
};

/** Serialize a snapshot into the versioned checkpoint payload. */
std::string serializeSnapshot(const Processor::Snapshot &s);

/**
 * Deserialize a checkpoint payload into `donor`, a snapshot captured
 * from a processor built with the same configuration (shapes are
 * verified, dynamic state replaced). False -- donor unusable -- on any
 * malformed, truncated, or version-mismatched payload.
 */
bool deserializeSnapshot(const std::string &payload,
                         Processor::Snapshot &donor);

/** Thread-safe persistent store: one snapshot blob per warmup key. */
class WarmupCheckpointStore
{
  public:
    /**
     * @param dir  Store directory, created if missing. Empty disables
     *             the store (every load misses, stores are dropped).
     * @param salt Version salt folded into keyFor().
     */
    explicit WarmupCheckpointStore(
        std::string dir, std::string salt = defaultCheckpointSalt);

    bool enabled() const { return !dir_.empty(); }
    const std::string &salt() const { return salt_; }
    const std::string &dir() const { return dir_; }

    /**
     * Content address of one point's warmup, or "" when the warmup has
     * no declared identity (opaque controller, or warmup == 0).
     */
    std::string keyFor(const RunPoint &p, std::uint64_t seed) const;

    /** Whether a blob file exists for key (content not verified). */
    bool contains(const std::string &key) const;

    /** Payload stored under key; nullopt on miss or corruption. */
    std::optional<std::string> load(const std::string &key)
        CSIM_EXCLUDES(mutex_);

    /** Persist payload under key (atomic rename; last writer wins). */
    void store(const std::string &key, const std::string &payload)
        CSIM_EXCLUDES(mutex_);

    /**
     * Exclusive in-process compute lease over a set of warmup keys.
     * Move-only; releases (and wakes waiters) on destruction.
     */
    class ComputeLease
    {
      public:
        ComputeLease() = default;
        ComputeLease(ComputeLease &&o) noexcept
            : store_(o.store_), keys_(std::move(o.keys_))
        {
            o.store_ = nullptr;
        }
        ComputeLease &
        operator=(ComputeLease &&o) noexcept
        {
            if (this != &o) {
                release();
                store_ = o.store_;
                keys_ = std::move(o.keys_);
                o.store_ = nullptr;
            }
            return *this;
        }
        ComputeLease(const ComputeLease &) = delete;
        ComputeLease &operator=(const ComputeLease &) = delete;
        ~ComputeLease() { release(); }

      private:
        friend class WarmupCheckpointStore;
        ComputeLease(WarmupCheckpointStore *store,
                     std::vector<std::string> keys)
            : store_(store), keys_(std::move(keys))
        {}
        void release();

        WarmupCheckpointStore *store_ = nullptr;
        std::vector<std::string> keys_;
    };

    /**
     * Block until none of `keys` is being computed by another thread of
     * this process, then claim them all. Keys are deduplicated and
     * claimed in sorted order as one atomic set, so concurrent
     * multi-key claimants cannot deadlock. Callers follow the classic
     * pattern: load() missed -> beginCompute() -> load() again (the
     * prior holder may have stored while we waited) -> on a second
     * miss, compute and store() under the lease. Empty keys are
     * ignored; an all-empty list returns an inert lease.
     */
    ComputeLease beginCompute(std::vector<std::string> keys)
        CSIM_EXCLUDES(inflightMutex_);

    CheckpointStats stats() const CSIM_EXCLUDES(mutex_);

    /** Entry count and file bytes currently on disk (directory scan;
     *  for stats frames and prune, not hot paths). */
    void diskUsage(std::uint64_t &entries, std::uint64_t &bytes) const;

  private:
    std::string pathFor(const std::string &key) const;
    void endCompute(const std::vector<std::string> &keys)
        CSIM_EXCLUDES(inflightMutex_);

    // simlint-ignore(C001): immutable after construction
    std::string dir_;
    // simlint-ignore(C001): immutable after construction
    std::string salt_;
    mutable Mutex mutex_;
    CheckpointStats stats_ CSIM_GUARDED_BY(mutex_);
    std::uint64_t tmpCounter_ CSIM_GUARDED_BY(mutex_) = 0;

    /** Lease claims never nest inside the stats lock; rank the lease
     *  lock above it so the discipline is declared, not tribal. */
    Mutex inflightMutex_ CSIM_ACQUIRED_BEFORE(mutex_);
    ConditionVariable inflightCv_;
    std::set<std::string> inflight_ CSIM_GUARDED_BY(inflightMutex_);
};

} // namespace clustersim

#endif // CLUSTERSIM_SIM_CHECKPOINT_HH
