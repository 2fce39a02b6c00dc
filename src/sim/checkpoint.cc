#include "sim/checkpoint.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/sha256.hh"
#include "core/snapshot_io.hh"
#include "sim/plan.hh"

namespace clustersim {

namespace {

constexpr const char *checkpointMagic =
    "clustersim-warmup-checkpoint-v1";
constexpr const char *checkpointSuffix = ".ckp";

bool
isHexKey(const std::string &s)
{
    if (s.size() != 64)
        return false;
    for (char c : s) {
        bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!hex)
            return false;
    }
    return true;
}

} // namespace

std::string
serializeSnapshot(const Processor::Snapshot &s)
{
    SnapshotWriter w;
    Processor::Snapshot::io(s, w);
    return w.take();
}

bool
deserializeSnapshot(const std::string &payload,
                    Processor::Snapshot &donor)
{
    SnapshotReader r(payload);
    return Processor::Snapshot::io(donor, r) && r.atEnd();
}

WarmupCheckpointStore::WarmupCheckpointStore(std::string dir,
                                             std::string salt)
    : dir_(std::move(dir)), salt_(std::move(salt))
{
    if (dir_.empty())
        return;
    if (mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST)
        fatal("checkpoint: cannot create directory '", dir_, "': ",
              std::strerror(errno));
    struct stat st = {};
    if (stat(dir_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        fatal("checkpoint: '", dir_, "' is not a directory");
}

std::string
WarmupCheckpointStore::keyFor(const RunPoint &p,
                              std::uint64_t seed) const
{
    std::string identity = warmupIdentityKey(p, seed);
    if (identity.empty())
        return {};
    Sha256 h;
    h.update(checkpointMagic, std::strlen(checkpointMagic));
    h.update(salt_);
    h.update(identity);
    std::array<std::uint8_t, 32> d = h.digest();
    static const char hex[] = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint8_t b : d) {
        out.push_back(hex[b >> 4]);
        out.push_back(hex[b & 0xf]);
    }
    return out;
}

std::string
WarmupCheckpointStore::pathFor(const std::string &key) const
{
    return dir_ + "/" + key + checkpointSuffix;
}

bool
WarmupCheckpointStore::contains(const std::string &key) const
{
    if (!enabled() || key.empty())
        return false;
    struct stat st = {};
    return stat(pathFor(key).c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

std::optional<std::string>
WarmupCheckpointStore::load(const std::string &key)
{
    auto miss = [this](bool corrupt) -> std::optional<std::string> {
        MutexLock lock(mutex_);
        stats_.misses++;
        if (corrupt)
            stats_.corrupt++;
        return std::nullopt;
    };
    if (!enabled() || key.empty())
        return miss(false);

    std::ifstream f(pathFor(key), std::ios::binary);
    if (!f)
        return miss(false);
    std::ostringstream buf;
    buf << f.rdbuf();
    std::string file = buf.str();

    // Header line: "<magic> <key> <payload-bytes> <payload-sha256>\n",
    // then the payload and a trailing newline. Any mismatch is
    // corruption and falls back to recomputing the warmup.
    std::size_t nl = file.find('\n');
    if (nl == std::string::npos)
        return miss(true);
    std::istringstream header(file.substr(0, nl));
    std::string magic, hkey, sha;
    std::uint64_t bytes = 0;
    header >> magic >> hkey >> bytes >> sha;
    if (!header || magic != checkpointMagic || hkey != key)
        return miss(true);
    std::size_t payload_at = nl + 1;
    if (file.size() != payload_at + bytes + 1 || file.back() != '\n')
        return miss(true);
    std::string payload = file.substr(payload_at, bytes);
    if (sha256Hex(payload) != sha)
        return miss(true);

    MutexLock lock(mutex_);
    stats_.hits++;
    return payload;
}

void
WarmupCheckpointStore::store(const std::string &key,
                             const std::string &payload)
{
    if (!enabled() || key.empty())
        return;

    std::uint64_t serial;
    {
        MutexLock lock(mutex_);
        serial = tmpCounter_++;
    }
    // Unique temp name, then atomic rename: readers only ever see
    // complete files, and concurrent same-key writers all write the
    // same bytes (the payload is a pure function of the key identity).
    std::string tmp = dir_ + "/.tmp-" + std::to_string(getpid()) + "-" +
                      std::to_string(serial);
    std::string path = pathFor(key);

    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (f) {
        f << checkpointMagic << ' ' << key << ' ' << payload.size()
          << ' ' << sha256Hex(payload) << '\n'
          << payload << '\n';
        f.flush();
    }
    bool ok = static_cast<bool>(f);
    f.close();
    if (ok)
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) {
        std::remove(tmp.c_str());
        warn("checkpoint: failed to store ", path);
    }

    MutexLock lock(mutex_);
    if (ok)
        stats_.stores++;
    else
        stats_.storeFailures++;
}

WarmupCheckpointStore::ComputeLease
WarmupCheckpointStore::beginCompute(std::vector<std::string> keys)
{
    keys.erase(std::remove(keys.begin(), keys.end(), std::string()),
               keys.end());
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    if (keys.empty())
        return {};

    UniqueLock lock(inflightMutex_);
    // All-or-nothing claim: waiting until the whole sorted set is free
    // and inserting it atomically means two claimants can never hold
    // disjoint halves of each other's sets (the lock-order deadlock).
    inflightCv_.wait(lock, [&]() CSIM_REQUIRES(inflightMutex_) {
        for (const std::string &k : keys)
            if (inflight_.count(k))
                return false;
        return true;
    });
    for (const std::string &k : keys)
        inflight_.insert(k);
    return ComputeLease(this, std::move(keys));
}

void
WarmupCheckpointStore::endCompute(const std::vector<std::string> &keys)
{
    {
        MutexLock lock(inflightMutex_);
        for (const std::string &k : keys)
            inflight_.erase(k);
    }
    inflightCv_.notify_all();
}

void
WarmupCheckpointStore::ComputeLease::release()
{
    if (store_) {
        store_->endCompute(keys_);
        store_ = nullptr;
        keys_.clear();
    }
}

CheckpointStats
WarmupCheckpointStore::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

void
WarmupCheckpointStore::diskUsage(std::uint64_t &entries,
                                 std::uint64_t &bytes) const
{
    entries = 0;
    bytes = 0;
    if (!enabled())
        return;
    DIR *d = opendir(dir_.c_str());
    if (!d)
        return;
    while (struct dirent *e = readdir(d)) {
        std::string name = e->d_name;
        std::size_t suffix_len = std::strlen(checkpointSuffix);
        if (name.size() != 64 + suffix_len ||
            name.compare(name.size() - suffix_len, suffix_len,
                         checkpointSuffix) != 0 ||
            !isHexKey(name.substr(0, 64)))
            continue;
        struct stat st = {};
        if (stat((dir_ + "/" + name).c_str(), &st) == 0) {
            entries++;
            bytes += static_cast<std::uint64_t>(st.st_size);
        }
    }
    closedir(d);
}

} // namespace clustersim
