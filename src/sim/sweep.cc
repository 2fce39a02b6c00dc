// simlint: thread-launcher -- runSweep() owns the sweep worker pool;
// threads are joined before it returns

#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "check/invariant.hh"
#include "common/thread_annotations.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/checkpoint.hh"
#include "sim/energy.hh"
#include "sim/plan.hh"
#include "trace/timeseries.hh"
#include "workload/replay.hh"

namespace clustersim {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    // simlint-ignore(D002): wall-clock feeds only the wall_seconds /
    // cpu_seconds report fields, which --no-timing strips from every
    // deterministic (golden, byte-identity) report
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Bring a freshly built processor to its post-warmup state: restore it
 * from the checkpoint store when a valid blob exists under `key`,
 * otherwise simulate the warmup and (when keyed) persist the result.
 * Returns whether the state was restored rather than simulated.
 */
bool
warmUp(Processor &proc, WarmupCheckpointStore *store,
       const std::string &key, std::uint64_t warmup)
{
    if (key.empty()) {
        proc.run(warmup);
        return false;
    }
    auto try_restore = [&]() {
        std::optional<std::string> payload = store->load(key);
        if (!payload)
            return false;
        // The donor snapshot gives deserialization a shape-correct
        // target; a failed load leaves the processor untouched.
        Processor::Snapshot donor = proc.snapshot();
        if (!deserializeSnapshot(*payload, donor))
            return false;
        proc.restore(donor);
        return true;
    };
    // load -> miss -> lease -> load again (the prior holder may have
    // stored while we waited) -> on a second miss, compute and store.
    if (try_restore())
        return true;
    WarmupCheckpointStore::ComputeLease lease = store->beginCompute({key});
    if (try_restore())
        return true;
    proc.run(warmup);
    store->store(key, serializeSnapshot(proc.snapshot()));
    return false;
}

/**
 * Run one warmup group and fill its members' result slots.
 *
 * A lone member without a checkpoint key streams from the synthetic
 * generator through runSimulation(). Any other group replays one
 * pre-generated stream into one processor: the warmup is simulated (or
 * restored from the checkpoint store) once, and each member measures
 * from that post-warmup state. Replay feeds the instruction stream the
 * generator would, and a restore is bit-exact, so both paths produce
 * the same bytes.
 *
 * Each member's wallSeconds covers the host work its result needed:
 * the lead carries controller and processor construction plus the
 * warmup or restore; later members carry their restore and measure.
 */
void
runGroup(const std::vector<RunPoint> &points, const SweepPlan &plan,
         const SweepPlan::Group &group, const SweepOptions &opts,
         SweepResult &out, Mutex &complete_mutex)
{
    // simlint-ignore(D002): timing-only bookkeeping, never a sim input
    Clock::time_point start = Clock::now();
    auto finish = [&](std::size_t idx, SimResult r, bool warm) {
        r.config = plan.points[idx].label;
        SweepRun &slot = out.runs[idx];
        slot.result = std::move(r);
        slot.seed = plan.points[idx].seed;
        slot.wallSeconds = secondsSince(start);
        slot.warmStart = warm;
        if (opts.onComplete) {
            MutexLock lock(complete_mutex);
            opts.onComplete(idx, slot.result);
        }
        // simlint-ignore(D002): timing-only bookkeeping
        start = Clock::now();
    };

    const std::size_t lead = group.members[0];
    const RunPoint &p = points[lead];
    WorkloadSpec w = p.workload;
    w.seed = plan.points[lead].seed;
    std::unique_ptr<ReconfigController> ctrl;
    if (p.makeController)
        ctrl = p.makeController();

    WarmupCheckpointStore *store =
        opts.checkpoints && opts.checkpoints->enabled() ? opts.checkpoints
                                                        : nullptr;
    std::string key = store ? store->keyFor(p, w.seed) : std::string();

    if (group.members.size() == 1 && key.empty()) {
        finish(lead,
               runSimulation(p.cfg, w, ctrl.get(), p.warmup, p.measure),
               false);
        return;
    }

    // Mirror runSimulation(): in a check build, validate by default.
    std::optional<InvariantChecker> own_checker;
    std::optional<CheckScope> own_scope;
    if (CLUSTERSIM_CHECK_ENABLED && !currentChecker()) {
        own_checker.emplace(/*fail_fast=*/true);
        own_scope.emplace(*own_checker);
    }

    // Members share config and warmup, so one buffer sized for the
    // longest measure window (plus the fetch-ahead margin) feeds all.
    std::uint64_t longest = 0;
    for (std::size_t idx : group.members)
        longest = std::max(longest, points[idx].measure);
    ReplaySource src(std::make_shared<const ReplayBuffer>(
        w, p.warmup + longest + replayMargin(p.cfg)));
    Processor proc(p.cfg, &src, ctrl.get());

    bool restored = false;
    if (p.warmup > 0) {
        restored = warmUp(proc, store, key, p.warmup);
        proc.resetStats();
    }
    std::optional<Processor::Snapshot> warm;
    if (group.members.size() > 1)
        warm.emplace(proc.snapshot());

    for (std::size_t mi = 0; mi < group.members.size(); mi++) {
        std::size_t idx = group.members[mi];
        if (mi > 0)
            proc.restore(*warm);
        SimResult r = measureWindow(proc, points[idx].measure);
        r.benchmark = w.name;
        finish(idx, std::move(r), restored);
    }
}

} // namespace

double
SweepResult::cpuSeconds() const
{
    double s = 0.0;
    for (const SweepRun &r : runs)
        s += r.wallSeconds;
    return s;
}

double
SweepResult::speedup() const
{
    return wallSeconds > 0.0 ? cpuSeconds() / wallSeconds : 1.0;
}

std::uint64_t
sweepSeed(std::uint64_t base, const std::string &benchmark,
          const std::string &config)
{
    // FNV-1a over the labels, then a splitmix64 finalizer so nearby
    // inputs map to decorrelated streams.
    std::uint64_t h = 0xcbf29ce484222325ULL ^ base;
    auto mix = [&h](const std::string &s) {
        for (char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
        h ^= 0xff; // separator so ("ab","c") != ("a","bc")
        h *= 0x100000001b3ULL;
    };
    mix(benchmark);
    mix(config);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    // Seed 0 is a valid PCG state but keep seeds nonzero so "unset"
    // never collides with a derived value.
    return h ? h : 1;
}

SweepResult
runSweep(const std::vector<RunPoint> &points, const SweepOptions &opts)
{
    SweepResult out;
    out.runs.resize(points.size());

    // The canonical plan (sim/plan.hh), shared with the serve-layer
    // cache, decides every point's identity and every warmup group.
    SweepPlan plan = planSweep(points, opts.deriveSeeds);

    int threads = opts.threads;
    if (threads <= 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
        if (threads <= 0)
            threads = 1;
    }
    threads = std::min<int>(threads,
                            std::max<std::size_t>(plan.groups.size(), 1));
    out.threads = threads;

    // simlint-ignore(D002): timing-only bookkeeping, never a sim input
    Clock::time_point sweep_start = Clock::now();
    std::atomic<std::size_t> next{0};
    Mutex complete_mutex;

    auto worker = [&]() {
        for (;;) {
            std::size_t g = next.fetch_add(1);
            if (g >= plan.groups.size())
                return;
            runGroup(points, plan, plan.groups[g], opts, out,
                     complete_mutex);
        }
    };

    if (threads == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(threads));
        for (int t = 0; t < threads; t++)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    out.wallSeconds = secondsSince(sweep_start);
    return out;
}

void
toJson(JsonWriter &w, const SimResult &r)
{
    w.beginObject();
    w.field("benchmark", r.benchmark);
    w.field("config", r.config);
    w.field("ipc", r.ipc);
    w.field("instructions", r.instructions);
    w.field("cycles", r.cycles);
    w.field("mispredict_interval", r.mispredictInterval);
    w.field("branch_accuracy", r.branchAccuracy);
    w.field("l1_miss_rate", r.l1MissRate);
    w.field("avg_active_clusters", r.avgActiveClusters);
    w.field("reconfigurations", r.reconfigurations);
    w.field("flush_writebacks", r.flushWritebacks);
    w.field("avg_reg_comm_latency", r.avgRegCommLatency);
    w.field("distant_fraction", r.distantFraction);
    w.field("bank_pred_accuracy", r.bankPredAccuracy);
    // Emitted only when a trace-build run recorded a series: default
    // builds must keep golden reports byte-identical, and the golden
    // differ treats a key present on one side as a mismatch.
    if (!r.timeSeries.empty()) {
        w.field("time_series_interval", r.timeSeriesInterval);
        w.key("time_series");
        timeSeriesJson(w, r.timeSeries);
    }
    w.endObject();
}

std::string
toJson(const SimResult &r)
{
    JsonWriter w;
    toJson(w, r);
    return w.str();
}

void
pointFieldsJson(JsonWriter &w, const SimResult &r, std::uint64_t seed,
                std::uint64_t warmup, std::uint64_t measure,
                const double *wall_seconds)
{
    w.field("benchmark", r.benchmark);
    w.field("config", r.config);
    w.field("seed", seed);
    if (wall_seconds)
        w.field("wall_seconds", *wall_seconds);
    w.field("warmup", warmup);
    w.field("measure", measure);
    w.key("metrics");
    toJson(w, r);
}

std::string
pointPayloadJson(const SimResult &r, std::uint64_t seed,
                 std::uint64_t warmup, std::uint64_t measure)
{
    JsonWriter w;
    w.beginObject();
    pointFieldsJson(w, r, seed, warmup, measure, nullptr);
    w.endObject();
    return w.str();
}

namespace {

void
aggregatesJson(JsonWriter &w, const std::vector<double> &ipcs,
               const std::vector<double> &active)
{
    w.key("aggregates").beginObject();
    w.field("ipc_amean", ipcs.empty() ? 0.0 : amean(ipcs));
    w.field("ipc_geomean", ipcs.empty() ? 0.0 : geomean(ipcs));
    w.field("avg_active_clusters_amean",
            active.empty() ? 0.0 : amean(active));
    w.endObject();
}

/** The ranking block rides only in the tournament preset's reports so
 *  every pre-existing report (golden included) keeps its exact bytes. */
bool
wantsRanking(const std::string &name)
{
    return name == "tournament";
}

} // namespace

void
sweepRankingJson(JsonWriter &w, const std::vector<ReportEntry> &entries)
{
    // Group by config label: in the tournament grid one label is one
    // policy raced across every benchmark. std::map gives sorted,
    // deterministic group order before ranking.
    std::map<std::string, std::vector<const ReportEntry *>> groups;
    for (const ReportEntry &e : entries)
        groups[e.config].push_back(&e);

    struct Row {
        std::string policy;
        double ipcGeomean = 0.0;
        double ipcAmean = 0.0;
        double leakageSavingsMean = 0.0;
        std::uint64_t benchmarks = 0;
    };
    std::vector<Row> rows;
    for (const auto &[label, pts] : groups) {
        Row row;
        row.policy = label;
        row.benchmarks = pts.size();
        std::vector<double> ipcs, savings;
        for (const ReportEntry *e : pts) {
            ipcs.push_back(e->ipc);
            savings.push_back(
                leakageSavings(e->avgActiveClusters, maxClusters));
        }
        row.ipcGeomean = geomean(ipcs);
        row.ipcAmean = amean(ipcs);
        row.leakageSavingsMean = amean(savings);
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        if (a.ipcGeomean != b.ipcGeomean)
            return a.ipcGeomean > b.ipcGeomean;
        return a.policy < b.policy;
    });

    w.key("ranking").beginArray();
    for (std::size_t i = 0; i < rows.size(); i++) {
        const Row &r = rows[i];
        w.beginObject();
        w.field("rank", static_cast<std::uint64_t>(i + 1));
        w.field("policy", r.policy);
        w.field("ipc_geomean", r.ipcGeomean);
        w.field("ipc_amean", r.ipcAmean);
        w.field("leakage_savings_mean", r.leakageSavingsMean);
        w.field("benchmarks", r.benchmarks);
        w.endObject();
    }
    w.endArray();
}

std::string
assembleSweepReport(const std::string &name,
                    const std::vector<ReportEntry> &entries)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "clustersim-sweep-v1");

    w.key("sweep").beginObject();
    w.field("name", name);
    w.field("run_points", static_cast<std::uint64_t>(entries.size()));
    w.endObject();

    w.key("runs").beginArray();
    for (std::size_t i = 0; i < entries.size(); i++) {
        w.beginObject();
        w.field("index", static_cast<std::uint64_t>(i));
        w.spliceFields(entries[i].payload);
        w.endObject();
    }
    w.endArray();

    if (wantsRanking(name))
        sweepRankingJson(w, entries);

    std::vector<double> ipcs, active;
    for (const ReportEntry &e : entries) {
        ipcs.push_back(e.ipc);
        active.push_back(e.avgActiveClusters);
    }
    aggregatesJson(w, ipcs, active);

    w.endObject();
    return w.str();
}

std::string
sweepReportJson(const std::string &name,
                const std::vector<RunPoint> &points,
                const SweepResult &res, bool include_timing)
{
    CSIM_ASSERT(points.size() == res.runs.size());

    if (!include_timing) {
        // The deterministic report is assembled from standalone point
        // payloads -- the same path the sweep server replays cached
        // points through, which makes live/cached byte-identity
        // structural rather than coincidental.
        std::vector<ReportEntry> entries;
        entries.reserve(res.runs.size());
        for (std::size_t i = 0; i < res.runs.size(); i++) {
            const SweepRun &run = res.runs[i];
            entries.push_back({pointPayloadJson(run.result, run.seed,
                                                points[i].warmup,
                                                points[i].measure),
                               run.result.ipc,
                               run.result.avgActiveClusters,
                               run.result.benchmark,
                               run.result.config});
        }
        return assembleSweepReport(name, entries);
    }

    JsonWriter w;
    w.beginObject();
    w.field("schema", "clustersim-sweep-v1");

    w.key("sweep").beginObject();
    w.field("name", name);
    w.field("threads", res.threads);
    w.field("run_points", static_cast<std::uint64_t>(points.size()));
    w.field("wall_seconds", res.wallSeconds);
    w.field("cpu_seconds", res.cpuSeconds());
    w.field("parallel_speedup", res.speedup());
    w.endObject();

    w.key("runs").beginArray();
    for (std::size_t i = 0; i < res.runs.size(); i++) {
        const SweepRun &run = res.runs[i];
        w.beginObject();
        w.field("index", static_cast<std::uint64_t>(i));
        pointFieldsJson(w, run.result, run.seed, points[i].warmup,
                        points[i].measure, &run.wallSeconds);
        w.endObject();
    }
    w.endArray();

    if (wantsRanking(name)) {
        // Same ranking as the deterministic path: only the scored
        // fields matter, so the payload bytes can stay empty.
        std::vector<ReportEntry> entries;
        entries.reserve(res.runs.size());
        for (const SweepRun &run : res.runs)
            entries.push_back({"", run.result.ipc,
                               run.result.avgActiveClusters,
                               run.result.benchmark,
                               run.result.config});
        sweepRankingJson(w, entries);
    }

    std::vector<double> ipcs, active;
    for (const SweepRun &run : res.runs) {
        ipcs.push_back(run.result.ipc);
        active.push_back(run.result.avgActiveClusters);
    }
    aggregatesJson(w, ipcs, active);

    w.endObject();
    return w.str();
}

} // namespace clustersim
