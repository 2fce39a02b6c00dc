/**
 * @file
 * Persistent warmup-checkpoint tests (sim/checkpoint.hh).
 *
 * Layers, each depending on the previous one:
 *  - a serialized snapshot deserialized into a *fresh* processor image
 *    (new Processor, new controller, new replay source) continues
 *    bit-identically to the uninterrupted run, across every controller
 *    family and both interconnects -- the property that makes on-disk
 *    checkpoints reusable across processes;
 *  - the store's content addressing is sensitive to exactly the warmup
 *    identity (stream, config, warmup count, controller, salt) and
 *    inert for unkeyed points;
 *  - corrupted, truncated, and stale-version blobs degrade to a miss
 *    and a recompute, never a wrong report;
 *  - cold-then-warm runSweep produces deterministic reports
 *    byte-identical to the per-point runSimulation() reference, with
 *    warm starts actually taken, whether a checkpoint was written by a
 *    multi-member warmup group or a lone point (and the in-flight
 *    dedup lease serializing concurrent cold computes).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/sha256.hh"
#include "core/processor.hh"
#include "core/snapshot_io.hh"
#include "reconfig/oracle.hh"
#include "reconfig/registry.hh"
#include "sim/checkpoint.hh"
#include "sim/plan.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "sweep_reference.hh"
#include "workload/replay.hh"
#include "workload/synthetic.hh"

using namespace clustersim;

namespace {

constexpr std::uint64_t kWarmup = 5000;
constexpr std::uint64_t kMeasure = 15000;

/** Self-cleaning scratch directory. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/clustersim-ckpt-XXXXXX";
        char *p = mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        path_ = p != nullptr ? p : "";
    }

    ~TempDir()
    {
        if (path_.empty())
            return;
        DIR *d = opendir(path_.c_str());
        if (d != nullptr) {
            while (struct dirent *e = readdir(d)) {
                std::string name = e->d_name;
                if (name != "." && name != "..")
                    std::remove((path_ + "/" + name).c_str());
            }
            closedir(d);
        }
        rmdir(path_.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::shared_ptr<const ReplayBuffer>
makeBuffer(const WorkloadSpec &w, const ProcessorConfig &cfg,
           std::uint64_t insts)
{
    return std::make_shared<const ReplayBuffer>(w,
                                                insts + replayMargin(cfg));
}

/** Uninterrupted warmup + measurement on a fresh processor. */
SimResult
straightLine(const ProcessorConfig &cfg,
             std::shared_ptr<const ReplayBuffer> buf,
             std::unique_ptr<ReconfigController> ctrl,
             std::uint64_t warmup, std::uint64_t measure)
{
    ReplaySource src(std::move(buf));
    Processor proc(cfg, &src, ctrl.get());
    proc.run(warmup);
    proc.resetStats();
    return measureWindow(proc, measure);
}

/** A small grid whose points all share one stream (one seedTag), so
 *  the plan forms real warmup groups. */
std::vector<RunPoint>
sharedStreamPoints()
{
    ProcessorConfig cfg = staticSubsetConfig(4);
    WorkloadSpec w = makeBenchmark("gzip");
    std::vector<RunPoint> points;
    auto add = [&](const std::string &label, std::uint64_t warmup,
                   std::uint64_t measure, bool controller,
                   const std::string &key) {
        RunPoint p;
        p.label = label;
        p.cfg = cfg;
        p.workload = w;
        p.warmup = warmup;
        p.measure = measure;
        if (controller)
            p.makeController = [] { return makeExploreController(); };
        p.controllerKey = key;
        p.seedTag = "shared";
        points.push_back(std::move(p));
    };
    add("shared-a", 4000, 12000, false, "");
    add("shared-b", 4000, 16000, false, "");
    add("ctrl-a", 4000, 12000, true, "explore-default");
    add("ctrl-unkeyed", 4000, 8000, true, "");  // never checkpointed
    add("no-warmup", 0, 12000, false, "");      // never checkpointed
    add("other-warmup", 2000, 12000, false, "");
    return points;
}

/** Flip one byte inside the payload region of every blob in dir. */
std::size_t
corruptAllBlobs(const std::string &dir)
{
    std::size_t corrupted = 0;
    DIR *d = opendir(dir.c_str());
    if (!d)
        return 0;
    while (struct dirent *e = readdir(d)) {
        std::string name = e->d_name;
        if (name.size() < 4 ||
            name.compare(name.size() - 4, 4, ".ckp") != 0)
            continue;
        std::string path = dir + "/" + name;
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string file = buf.str();
        in.close();
        std::size_t nl = file.find('\n');
        EXPECT_NE(nl, std::string::npos);
        EXPECT_GT(file.size(), nl + 64);
        if (nl == std::string::npos || file.size() <= nl + 64)
            continue;
        file[nl + 32] ^= 0x01; // somewhere inside the payload
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << file;
        corrupted++;
    }
    closedir(d);
    return corrupted;
}

/** One controller family of the serialization round trip. */
struct ControllerCase {
    const char *name;
    std::function<std::unique_ptr<ReconfigController>()> make;
};

/** Every controller family that checkpoints state, plus none. */
std::vector<ControllerCase>
controllerCases()
{
    return {
        {"static", nullptr},
        {"explore", [] { return makeExploreController(); }},
        {"ilp", [] { return makeIlpController(10000); }},
        {"finegrain", [] { return makeFinegrainController(); }},
        {"ineffectuality",
         [] { return makeController("ineffectuality").make(); }},
        {"oracle",
         [] {
             // A per-commit (slot = 1) schedule round-trips the same
             // committed-count replay state the tournament oracle uses.
             std::vector<int> sched;
             for (int i = 0; i < 64; i++)
                 sched.push_back(2 << (i % 4));
             return std::make_unique<OracleController>(
                 1, std::move(sched));
         }},
    };
}

const std::pair<const char *, InterconnectKind> kinds[] = {
    {"ring", InterconnectKind::Ring},
    {"grid", InterconnectKind::Grid},
};

/** Serialized post-warmup snapshot of `cfg` after kWarmup instructions. */
std::string
warmPayload(const ProcessorConfig &cfg,
            std::shared_ptr<const ReplayBuffer> buf,
            const ControllerCase &c)
{
    ReplaySource src(std::move(buf));
    std::unique_ptr<ReconfigController> ctrl;
    if (c.make)
        ctrl = c.make();
    Processor proc(cfg, &src, ctrl.get());
    proc.run(kWarmup);
    return serializeSnapshot(proc.snapshot());
}

} // namespace

// ---------------------------------------------------------------------------
// Serialization round trip
// ---------------------------------------------------------------------------

TEST(Checkpoint, SerializedRoundTripMatchesStraightLine)
{
    // save -> serialize -> deserialize into a *fresh* processor's donor
    // snapshot -> restore -> run must be bit-identical to the
    // uninterrupted run. The fresh image is the point: nothing may leak
    // through shared in-process state, which is what cross-process
    // reuse of on-disk blobs relies on.
    WorkloadSpec w = makeBenchmark("gzip");
    for (const auto &[kind_name, kind] : kinds) {
        ProcessorConfig cfg = clusteredConfig(16, kind);
        auto buf = makeBuffer(w, cfg, kWarmup + kMeasure);
        for (const ControllerCase &c : controllerCases()) {
            SCOPED_TRACE(std::string(kind_name) + "/" + c.name);

            SimResult straight = straightLine(
                cfg, buf, c.make ? c.make() : nullptr, kWarmup,
                kMeasure);

            // Producer: warm up, serialize the post-warmup snapshot.
            std::string payload = warmPayload(cfg, buf, c);
            EXPECT_FALSE(payload.empty());

            // Consumer: a fresh image restores the blob and measures.
            ReplaySource src(buf);
            std::unique_ptr<ReconfigController> ctrl;
            if (c.make)
                ctrl = c.make();
            Processor proc(cfg, &src, ctrl.get());
            Processor::Snapshot donor = proc.snapshot();
            ASSERT_TRUE(deserializeSnapshot(payload, donor));
            proc.restore(donor);
            proc.resetStats();
            SimResult restored = measureWindow(proc, kMeasure);

            EXPECT_EQ(toJson(straight), toJson(restored));
        }
    }
}

TEST(Checkpoint, SerializedBytesArePinned)
{
    // The checkpoint format is a contract with every store already on
    // disk: changing how the serializer is written must not change a
    // single byte it emits. Each digest is the sha256 of
    // serializeSnapshot() after the gzip warmup of the round-trip test
    // above; a layout change must bump snapshotFormatVersion and the
    // checkpoint salt, then re-pin these.
    const std::map<std::string, std::string> pinned = {
        {"grid/explore",
         "5ec7483b9216db0b4560f5e8880c3817021a152189511e9bffaf8c56fd86a18c"},
        {"grid/finegrain",
         "23e3404db4510e3333e277ff66aee66cc8b241b79951c901bd005270e06961c5"},
        {"grid/ilp",
         "fbe0f678fa98951d82b98c76b88102d313e145ea47e20039480e602e09219202"},
        {"grid/ineffectuality",
         "a33694a4ab104d96f59ec2aaad76ca640ddad712ec49c05975191daa18f060b9"},
        {"grid/oracle",
         "79506f8461e3808cd8604ba95538164891c848cc22ead2f52d11cf49e3632205"},
        {"grid/static",
         "fa727c9ed8876d1f6b10dfb5b5c4c2c8274817c1c69ecfca2bbdcead33e95cc1"},
        {"ring-decentralized/static",
         "71fbfcd63e4d0e56949a8318e02d584a887974fca680f53cdb47b747c0e3ad25"},
        {"ring/explore",
         "8cb2a43ddfa663032d15158b1e15155877eafb22e2d764148e05fabef9b93e0c"},
        {"ring/finegrain",
         "cca826b4c63cc70ef1d96749f929309dd2a8418397c7280e42df3248394f8147"},
        {"ring/ilp",
         "209ae4c462ea3b805c8e14e4c9d84390e0e0aa989a35fc353af10887264a0678"},
        {"ring/ineffectuality",
         "0bbff02b67711f7878ce27f4d11f90480b48088bd74231299e2b4bf0469aad7b"},
        {"ring/oracle",
         "ad61bbc83c73ecb7cd130cff576010fd41737ca972f8441e4aa1365c4408eb08"},
        {"ring/static",
         "55ba410b7c03f0a4ac081ee5a4d1d719a962663269f8cb6c6d03e7240979ea27"},
    };

    WorkloadSpec w = makeBenchmark("gzip");
    std::map<std::string, std::string> got;
    for (const auto &[kind_name, kind] : kinds) {
        ProcessorConfig cfg = clusteredConfig(16, kind);
        auto buf = makeBuffer(w, cfg, kWarmup);
        for (const ControllerCase &c : controllerCases())
            got[std::string(kind_name) + "/" + c.name] =
                sha256Hex(warmPayload(cfg, buf, c));
    }
    ProcessorConfig dcfg =
        clusteredConfig(16, InterconnectKind::Ring, true);
    got["ring-decentralized/static"] =
        sha256Hex(warmPayload(dcfg, makeBuffer(w, dcfg, kWarmup),
                              {"static", nullptr}));

    EXPECT_EQ(got, pinned);
}

TEST(Checkpoint, MalformedPayloadsRejected)
{
    WorkloadSpec w = makeBenchmark("parser");
    ProcessorConfig cfg = clusteredConfig(16);
    auto buf = makeBuffer(w, cfg, kWarmup);
    ReplaySource src(buf);
    Processor proc(cfg, &src, nullptr);
    proc.run(kWarmup);
    std::string payload = serializeSnapshot(proc.snapshot());
    ASSERT_GT(payload.size(), 16u);

    auto rejects = [&](std::string p) {
        ReplaySource s2(buf);
        Processor fresh(cfg, &s2, nullptr);
        Processor::Snapshot donor = fresh.snapshot();
        return !deserializeSnapshot(p, donor);
    };

    // Stale format version (the first little-endian u32).
    std::string stale = payload;
    stale[0] = static_cast<char>(stale[0] ^ 0x01);
    EXPECT_TRUE(rejects(stale));

    // Truncation anywhere, including mid-field.
    EXPECT_TRUE(rejects(payload.substr(0, payload.size() / 2)));
    EXPECT_TRUE(rejects(payload.substr(0, payload.size() - 1)));
    EXPECT_TRUE(rejects(std::string()));

    // Trailing garbage: a full parse must also consume every byte.
    EXPECT_TRUE(rejects(payload + '\0'));

    // A controller blob cannot restore into a controller-less image.
    {
        ReplaySource s3(buf);
        auto ctrl = makeExploreController();
        Processor other(cfg, &s3, ctrl.get());
        other.run(kWarmup);
        EXPECT_TRUE(rejects(serializeSnapshot(other.snapshot())));
    }

    // In-range lengths carrying out-of-range values: the writer emits
    // whatever the snapshot holds, so each of these reaches the
    // loader's range checks rather than a length or shape check.
    auto tampered = [&](const std::function<void(Processor::Snapshot &)>
                            &edit) {
        Processor::Snapshot s = proc.snapshot();
        edit(s);
        return serializeSnapshot(s);
    };
    EXPECT_TRUE(rejects(tampered([](Processor::Snapshot &s) {
        s.activeClusters = maxClusters + 1;
    })));
    EXPECT_TRUE(rejects(
        tampered([](Processor::Snapshot &s) { s.pendingTarget = -1; })));
    EXPECT_TRUE(rejects(tampered([](Processor::Snapshot &s) {
        s.armedPending = static_cast<int>(s.pendingLoads.size()) + 1;
    })));
    EXPECT_TRUE(rejects(tampered([](Processor::Snapshot &s) {
        // StallCause::Reg is the last enumerator.
        using Stall = decltype(s.lastDispatchStall);
        s.lastDispatchStall = static_cast<Stall>(
            static_cast<int>(Stall::Reg) + 1);
    })));
    EXPECT_TRUE(rejects(tampered([](Processor::Snapshot &s) {
        s.pendingLoads.resize(s.rob.capacity() + 1, 1);
    })));

    // The intact payload still loads (the donor above was untouched by
    // all the failures -- each rejects() used its own).
    EXPECT_FALSE(rejects(payload));
}

// ---------------------------------------------------------------------------
// Store addressing and integrity
// ---------------------------------------------------------------------------

TEST(Checkpoint, KeyCoversExactlyTheWarmupIdentity)
{
    std::vector<RunPoint> points = sharedStreamPoints();
    TempDir dir;
    WarmupCheckpointStore store(dir.path());

    RunPoint base = points[0];
    std::string k = store.keyFor(base, 42);
    ASSERT_EQ(k.size(), 64u);

    // Same identity -> same key.
    EXPECT_EQ(k, store.keyFor(base, 42));

    // Measure length and label are deliberately outside the identity.
    RunPoint measure = base;
    measure.measure += 1;
    measure.label = "renamed";
    EXPECT_EQ(k, store.keyFor(measure, 42));

    // Stream seed, config, warmup count, controller: all inside.
    EXPECT_NE(k, store.keyFor(base, 43));
    RunPoint warm = base;
    warm.warmup += 1;
    EXPECT_NE(k, store.keyFor(warm, 42));
    RunPoint cfg = base;
    cfg.cfg.robSize += 16;
    EXPECT_NE(k, store.keyFor(cfg, 42));
    RunPoint ctrl = base;
    ctrl.makeController = [] { return makeExploreController(); };
    ctrl.controllerKey = "explore-default";
    EXPECT_NE(k, store.keyFor(ctrl, 42));

    // Salt is a version lever: a bump changes every address.
    WarmupCheckpointStore salted(dir.path(), "test-salt-v2");
    EXPECT_NE(k, salted.keyFor(base, 42));

    // No declared identity -> no key.
    RunPoint none = base;
    none.warmup = 0;
    EXPECT_TRUE(store.keyFor(none, 42).empty());
    RunPoint opaque = base;
    opaque.makeController = [] { return makeExploreController(); };
    opaque.controllerKey = ""; // opaque: never checkpointed
    EXPECT_TRUE(store.keyFor(opaque, 42).empty());
}

TEST(Checkpoint, StoreDetectsTamperedBlobs)
{
    TempDir dir;
    WarmupCheckpointStore store(dir.path());
    std::string key(64, 'a');
    std::string payload(128, '\x5a'); // opaque bytes as far as the
    payload += "store cares";         // store is concerned
    store.store(key, payload);

    auto got = store.load(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payload);

    std::uint64_t entries = 0, bytes = 0;
    store.diskUsage(entries, bytes);
    EXPECT_EQ(entries, 1u);
    EXPECT_GT(bytes, payload.size());

    ASSERT_EQ(corruptAllBlobs(dir.path()), 1u);
    EXPECT_FALSE(store.load(key).has_value());

    CheckpointStats s = store.stats();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.corrupt, 1u);
}

TEST(Checkpoint, InflightLeaseSerializesConcurrentComputes)
{
    TempDir dir;
    WarmupCheckpointStore store(dir.path());
    std::string key(64, 'b');

    std::atomic<int> inside{0};
    std::atomic<int> max_inside{0};
    auto contend = [&]() {
        for (int i = 0; i < 50; i++) {
            auto lease = store.beginCompute({key});
            int now = ++inside;
            int prev = max_inside.load();
            while (now > prev && !max_inside.compare_exchange_weak(prev,
                                                                   now))
                ;
            --inside;
        }
    };
    std::thread a(contend), b(contend), c(contend);
    a.join();
    b.join();
    c.join();
    EXPECT_EQ(max_inside.load(), 1);

    // Empty keys claim nothing and never block.
    auto l1 = store.beginCompute({std::string()});
    auto l2 = store.beginCompute({});
    auto l3 = store.beginCompute({key});
}

// ---------------------------------------------------------------------------
// Cold-then-warm byte identity
// ---------------------------------------------------------------------------

namespace {

/** Count warm-started runs in a sweep result. */
std::size_t
warmCount(const SweepResult &res)
{
    std::size_t n = 0;
    for (const SweepRun &r : res.runs)
        n += r.warmStart ? 1 : 0;
    return n;
}

} // namespace

TEST(Checkpoint, ColdThenWarmSweepByteIdentical)
{
    std::vector<RunPoint> points = sharedStreamPoints();
    std::string baseline = perPointReport("ckpt", points);

    TempDir dir;
    WarmupCheckpointStore store(dir.path());
    SweepOptions opts;
    opts.threads = 1;
    opts.checkpoints = &store;

    // Cold: four of the six points are keyed ("ctrl-unkeyed" and
    // "no-warmup" are not), and the two 4000-warmup static points form
    // one warmup group -- so three distinct blobs land on disk, and no
    // point warm-starts (the group's second member measures from the
    // warmup its lead just simulated).
    SweepResult cold = runSweep(points, opts);
    EXPECT_EQ(warmCount(cold), 0u);
    EXPECT_EQ(baseline, sweepReportJson("ckpt", points, cold, false));
    std::uint64_t entries = 0, bytes = 0;
    store.diskUsage(entries, bytes);
    EXPECT_EQ(entries, 3u);
    EXPECT_EQ(store.stats().stores, 3u);

    // Warm: every keyed point restores; the report must not move.
    SweepResult warm = runSweep(points, opts);
    EXPECT_EQ(warmCount(warm), 4u);
    EXPECT_EQ(baseline, sweepReportJson("ckpt", points, warm, false));
    EXPECT_EQ(store.stats().hits, 3u); // one restore per keyed group

    // Warm, multi-threaded: same bytes.
    SweepOptions threaded = opts;
    threaded.threads = 4;
    EXPECT_EQ(baseline,
              sweepReportJson("ckpt", points,
                              runSweep(points, threaded), false));
}

TEST(Checkpoint, ColdThenWarmBatchedByteIdentical)
{
    // A checkpoint's key is the warmup identity, not the group shape
    // that wrote it: blobs stored by a multi-member group warm lone
    // points, and blobs stored by lone points warm the group.
    std::vector<RunPoint> points = sharedStreamPoints();
    std::string baseline = perPointReport("ckpt", points);
    auto alone = [&](WarmupCheckpointStore &store) {
        SweepResult res;
        for (const RunPoint &p : points) {
            SweepOptions opts;
            opts.threads = 1;
            opts.checkpoints = &store;
            res.runs.push_back(runSweep({p}, opts).runs[0]);
        }
        return res;
    };
    SweepOptions grouped;
    grouped.threads = 4;

    // Grouped cold on four workers, then every point as its own sweep.
    TempDir dir;
    WarmupCheckpointStore store(dir.path());
    grouped.checkpoints = &store;
    SweepResult cold = runSweep(points, grouped);
    EXPECT_EQ(warmCount(cold), 0u);
    EXPECT_EQ(store.stats().stores, 3u);
    EXPECT_EQ(baseline, sweepReportJson("ckpt", points, cold, false));
    SweepResult lone = alone(store);
    EXPECT_EQ(warmCount(lone), 4u);
    EXPECT_EQ(baseline, sweepReportJson("ckpt", points, lone, false));

    // Lone points cold (both shared-stream sharers are keyed alike, so
    // the second restores the first one's blob), then grouped.
    TempDir dir2;
    WarmupCheckpointStore cross(dir2.path());
    SweepResult lone_cold = alone(cross);
    EXPECT_EQ(warmCount(lone_cold), 1u);
    EXPECT_EQ(baseline,
              sweepReportJson("ckpt", points, lone_cold, false));
    grouped.checkpoints = &cross;
    SweepResult crossed = runSweep(points, grouped);
    EXPECT_EQ(warmCount(crossed), 4u);
    EXPECT_EQ(baseline,
              sweepReportJson("ckpt", points, crossed, false));
}

TEST(Checkpoint, CorruptStaleAndSaltedBlobsRecompute)
{
    std::vector<RunPoint> points = sharedStreamPoints();
    SweepOptions plain;
    plain.threads = 1;
    std::string baseline = perPointReport("ckpt", points);

    TempDir dir;
    WarmupCheckpointStore store(dir.path());
    SweepOptions opts = plain;
    opts.checkpoints = &store;
    runSweep(points, opts);

    // Corrupt every blob on disk: the sha mismatch degrades each load
    // to a miss, the sweep recomputes, and the report must not change.
    ASSERT_EQ(corruptAllBlobs(dir.path()), 3u);
    SweepResult after = runSweep(points, opts);
    EXPECT_EQ(warmCount(after), 0u);
    EXPECT_EQ(baseline, sweepReportJson("ckpt", points, after, false));
    EXPECT_GE(store.stats().corrupt, 3u);

    // The recompute re-stored good blobs; now plant a stale-version
    // payload under a key the sweep will ask for. The store-level hash
    // is valid, so only the in-payload version stamp can reject it.
    std::string key =
        store.keyFor(points[0], planPoints(points, true)[0].seed);
    ASSERT_FALSE(key.empty());
    auto good = store.load(key);
    ASSERT_TRUE(good.has_value());
    std::string stale = *good;
    stale[0] = static_cast<char>(stale[0] ^ 0x01);
    store.store(key, stale);
    SweepResult versioned = runSweep(points, opts);
    EXPECT_EQ(baseline,
              sweepReportJson("ckpt", points, versioned, false));
    // Point 0's group rejects the stale blob and recomputes its warmup
    // for both members (overwriting the blob with a good one); the
    // other two keyed points warm-start normally.
    EXPECT_EQ(warmCount(versioned), 2u);

    // A salt bump re-addresses everything: full recompute, same bytes.
    WarmupCheckpointStore salted(dir.path(), "bumped-salt-v2");
    SweepOptions sopts = plain;
    sopts.checkpoints = &salted;
    SweepResult resalted = runSweep(points, sopts);
    EXPECT_EQ(warmCount(resalted), 0u);
    EXPECT_EQ(baseline,
              sweepReportJson("ckpt", points, resalted, false));
}
