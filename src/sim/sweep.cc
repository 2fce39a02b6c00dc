// simlint: thread-launcher -- runSweep() owns the sweep worker pool;
// threads are joined before it returns

#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "check/invariant.hh"
#include "common/thread_annotations.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/checkpoint.hh"
#include "reconfig/oracle.hh"
#include "sim/energy.hh"
#include "sim/oracle_policy.hh"
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
 * The sweep's result slots and their completion: fills one run's slot
 * and fires SweepOptions::onComplete under the completion lock.
 */
struct Completion {
    // simlint-ignore(C001): immutable for the sweep's duration
    const SweepPlan &plan;
    // simlint-ignore(C001): immutable for the sweep's duration
    const SweepOptions &opts;
    // simlint-ignore(C001): each task writes only its own runs' slots
    SweepResult &out;
    /** Serializes onComplete. */
    Mutex mutex;

    void
    finish(std::size_t idx, SimResult r, double seconds, bool warm)
    {
        r.config = plan.points[idx].label;
        SweepRun &slot = out.runs[idx];
        slot.result = std::move(r);
        slot.seed = plan.points[idx].seed;
        slot.wallSeconds = seconds;
        slot.warmStart = warm;
        if (opts.onComplete) {
            MutexLock lock(mutex);
            opts.onComplete(idx, slot.result);
        }
    }
};

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
runGroup(const std::vector<RunPoint> &points, const SweepPlan::Group &group,
         Completion &done)
{
    // simlint-ignore(D002): timing-only bookkeeping, never a sim input
    Clock::time_point start = Clock::now();
    auto finish = [&](std::size_t idx, SimResult r, bool warm) {
        done.finish(idx, std::move(r), secondsSince(start), warm);
        // simlint-ignore(D002): timing-only bookkeeping
        start = Clock::now();
    };

    const std::size_t lead = group.members[0];
    const RunPoint &p = points[lead];
    WorkloadSpec w = p.workload;
    w.seed = done.plan.points[lead].seed;
    std::unique_ptr<ReconfigController> ctrl;
    if (p.makeController)
        ctrl = p.makeController();

    WarmupCheckpointStore *store =
        done.opts.checkpoints && done.opts.checkpoints->enabled()
            ? done.opts.checkpoints
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

/**
 * A dependency-aware task list for the worker pool. Every worker takes
 * the ready task (all dependencies finished) of the lowest rank, then
 * of the lowest index. Without dependencies it is the plain
 * first-come pool.
 */
class TaskGraph
{
  public:
    std::size_t
    add(std::size_t rank, std::function<void()> run)
    {
        nodes_.push_back({rank, std::move(run), {}, 0});
        return nodes_.size() - 1;
    }

    /** Task `task` may start only once task `dep` has finished. */
    void
    after(std::size_t task, std::size_t dep)
    {
        nodes_[dep].dependents.push_back(task);
        nodes_[task].deps++;
    }

    std::size_t size() const { return nodes_.size(); }

    /** Run every task on `threads` workers (1 = the calling thread);
     *  the graph must be acyclic. */
    void run(int threads);

  private:
    struct Node {
        std::size_t rank;
        std::function<void()> run;
        std::vector<std::size_t> dependents;
        std::size_t deps;
    };
    std::vector<Node> nodes_;
};

/** Scheduling state of one TaskGraph::run(). */
struct TaskPool {
    Mutex mutex;
    ConditionVariable cv;
    /** Ready tasks as (rank, index), best first. */
    std::set<std::pair<std::size_t, std::size_t>> ready
        CSIM_GUARDED_BY(mutex);
    /** Unfinished dependencies per task. */
    std::vector<std::size_t> waiting CSIM_GUARDED_BY(mutex);
    std::size_t unfinished CSIM_GUARDED_BY(mutex) = 0;
};

void
TaskGraph::run(int threads)
{
    TaskPool pool;
    {
        MutexLock lock(pool.mutex);
        pool.unfinished = nodes_.size();
        for (std::size_t i = 0; i < nodes_.size(); i++) {
            pool.waiting.push_back(nodes_[i].deps);
            if (nodes_[i].deps == 0)
                pool.ready.emplace(nodes_[i].rank, i);
        }
    }

    auto worker = [&]() {
        for (;;) {
            std::size_t t = 0;
            {
                UniqueLock lock(pool.mutex);
                pool.cv.wait(lock, [&]() CSIM_REQUIRES(pool.mutex) {
                    return !pool.ready.empty() || pool.unfinished == 0;
                });
                if (pool.ready.empty())
                    return;
                t = pool.ready.begin()->second;
                pool.ready.erase(pool.ready.begin());
            }
            nodes_[t].run();
            {
                MutexLock lock(pool.mutex);
                pool.unfinished--;
                for (std::size_t d : nodes_[t].dependents)
                    if (--pool.waiting[d] == 0)
                        pool.ready.emplace(nodes_[d].rank, d);
            }
            pool.cv.notify_all();
        }
    };

    if (threads == 1) {
        worker();
        return;
    }
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; t++)
        workers.emplace_back(worker);
    for (std::thread &t : workers)
        t.join();
}

/**
 * The oracle params of a plan group whose points are oracle points
 * (sim/oracle_policy.hh), resolved from the controller key alone: the
 * key must parse, and every member must be exactly the oracle's own
 * candidate run (machine, stream, warmup, measure). Anything else runs
 * as an ordinary group through its factory.
 */
std::optional<OraclePolicyParams>
oracleGroup(const std::vector<RunPoint> &points, const SweepPlan &plan,
            const SweepPlan::Group &group)
{
    const RunPoint &lead = points[group.members[0]];
    if (!lead.makeController)
        return std::nullopt;
    std::optional<OraclePolicyParams> prm =
        parseOracleKey(lead.controllerKey);
    if (!prm)
        return std::nullopt;
    const std::string want =
        runIdentityKey(oracleCandidatePoint(*prm), prm->seed);
    for (std::size_t idx : group.members) {
        RunPoint bare = points[idx];
        bare.makeController = nullptr;
        bare.controllerKey.clear();
        if (runIdentityKey(bare, plan.points[idx].seed) != want)
            return std::nullopt;
    }
    return prm;
}

/**
 * One oracle group's candidates (fixed probes, DP replay, reactive
 * competitors, in consideration order) and the slots they land in.
 */
struct OracleJob {
    OraclePolicyParams params;
    std::vector<std::size_t> members;
    /** Per fixed probe, its per-interval rows. */
    std::vector<std::vector<TimeSeriesRow>> rows;
    /** Fixed probes, then the DP replay, then reactive competitors the
     *  grid does not run itself. */
    std::vector<SimResult> runs;
    bool replayed = false; ///< the DP had a schedule to replay
    /** Candidate results in consideration order; reactive entries may
     *  point into grid slots or another job's runs. */
    std::vector<const SimResult *> candidates;
    /** Host time of each task this job owns. */
    std::vector<double> seconds;
};

/** A run the sweep executes once: the task that fills it, and where
 *  its result lands. */
struct RunSource {
    std::size_t task = 0;
    const SimResult *result = nullptr;
};

/**
 * Build the sweep's task graph: one task per plan group, ranked by plan
 * order, except that an oracle group becomes its hidden candidate tasks
 * plus a selection task, ranked where the group would be. Each reactive
 * candidate runs once: a grid point with the same run identity (or an
 * earlier job's candidate) serves it. The selection copies the
 * winner's result into every oracle member and charges the job's
 * hidden work to its lead.
 */
void
buildTasks(const std::vector<RunPoint> &points, Completion &done,
           std::atomic<std::size_t> &sims,
           std::vector<std::unique_ptr<OracleJob>> &jobs, TaskGraph &graph)
{
    const SweepPlan &plan = done.plan;
    std::vector<std::optional<OraclePolicyParams>> oracle;
    std::map<std::string, RunSource> shared;
    for (std::size_t g = 0; g < plan.groups.size(); g++) {
        const SweepPlan::Group &group = plan.groups[g];
        oracle.push_back(oracleGroup(points, plan, group));
        if (oracle.back())
            continue;
        std::size_t task = graph.add(g, [&points, &group, &done, &sims] {
            runGroup(points, group, done);
            sims += group.members.size();
        });
        for (std::size_t idx : group.members) {
            std::string k = runIdentityKey(points[idx],
                                           plan.points[idx].seed);
            if (!k.empty())
                shared.try_emplace(k, RunSource{task,
                                                &done.out.runs[idx].result});
        }
    }

    for (std::size_t g = 0; g < plan.groups.size(); g++) {
        if (!oracle[g])
            continue;
        jobs.push_back(std::make_unique<OracleJob>());
        OracleJob &job = *jobs.back();
        job.params = *oracle[g];
        job.members = plan.groups[g].members;
        const OraclePolicyParams &prm = job.params;
        const std::vector<Competitor> &field = reactiveCompetitors();
        const std::size_t k = prm.configs.size();
        job.rows.resize(k);
        job.runs.resize(k + 1 + field.size());
        for (std::size_t i = 0; i <= k; i++)
            job.candidates.push_back(&job.runs[i]);

        // Each owned task times itself into its own slot; the
        // selection, which runs after all of them, sums the slots.
        auto owned = [&job, &graph, g](std::function<void()> body) {
            std::size_t slot = job.seconds.size();
            job.seconds.push_back(0.0);
            return graph.add(g, [&job, slot, body = std::move(body)] {
                // simlint-ignore(D002): timing-only bookkeeping
                Clock::time_point t0 = Clock::now();
                body();
                job.seconds[slot] = secondsSince(t0);
            });
        };

        std::vector<std::size_t> deps;
        for (std::size_t i = 0; i < k; i++)
            deps.push_back(owned([&job, &sims, i] {
                job.runs[i] = runOracleProbe(job.params,
                                             job.params.configs[i],
                                             job.rows[i]);
                sims++;
            }));
        std::size_t replay = owned([&job, &sims] {
            const OraclePolicyParams &p = job.params;
            std::vector<int> dp =
                solveOracleSchedule(p.configs, job.rows, p.penaltyCycles);
            if (dp.empty())
                return;
            OracleController ctrl(p.interval, std::move(dp));
            job.runs[p.configs.size()] = runOracleCandidate(p, &ctrl);
            job.replayed = true;
            sims++;
        });
        for (std::size_t probe : deps)
            graph.after(replay, probe);
        deps.push_back(replay);
        for (std::size_t j = 0; j < field.size(); j++) {
            ControllerHandle h =
                makeController(field[j].policy, field[j].params);
            RunPoint rp = oracleCandidatePoint(prm);
            rp.makeController = h.make;
            rp.controllerKey = h.key;
            auto [it, fresh] = shared.try_emplace(
                runIdentityKey(rp, prm.seed), RunSource{});
            if (fresh) {
                SimResult *slot = &job.runs[k + 1 + j];
                it->second.result = slot;
                it->second.task = owned([&job, &sims, slot, h] {
                    *slot = runOracleCandidate(job.params,
                                               h.make().get());
                    sims++;
                });
            }
            job.candidates.push_back(it->second.result);
            deps.push_back(it->second.task);
        }

        std::size_t select = graph.add(g, [&job, &done] {
            // simlint-ignore(D002): timing-only bookkeeping
            Clock::time_point t0 = Clock::now();
            if (!job.replayed)
                job.candidates[job.params.configs.size()] = nullptr;
            const SimResult &win =
                *job.candidates[oracleWinner(job.candidates)];
            double hidden = 0.0;
            for (double s : job.seconds)
                hidden += s;
            for (std::size_t mi = 0; mi < job.members.size(); mi++)
                done.finish(job.members[mi], win,
                            (mi == 0 ? hidden : 0.0) + secondsSince(t0),
                            false);
        });
        for (std::size_t d : deps)
            graph.after(select, d);
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
    SweepPlan plan = planSweep(points, /*derive_seeds=*/true);
    Completion done{plan, opts, out, {}};
    std::atomic<std::size_t> sims{0};
    std::vector<std::unique_ptr<OracleJob>> jobs;
    TaskGraph graph;
    buildTasks(points, done, sims, jobs, graph);

    int threads = opts.threads;
    if (threads <= 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
        if (threads <= 0)
            threads = 1;
    }
    threads = std::min<int>(threads, std::max<std::size_t>(graph.size(), 1));
    out.threads = threads;

    // simlint-ignore(D002): timing-only bookkeeping, never a sim input
    Clock::time_point sweep_start = Clock::now();
    graph.run(threads);
    out.wallSeconds = secondsSince(sweep_start);
    out.simulations = sims;
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
