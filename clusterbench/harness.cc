/**
 * @file
 * clusterbench harness: the in-process half of the repository
 * benchmark (run.py is the entry point; README.md documents the
 * workloads).
 *
 *   clusterbench kernel     --seed N --seconds S [--trace] [--setup-only]
 *                           [--replicas N]
 *   clusterbench tournament --seed N --seconds S [--trace] [--setup-only]
 *                           [--replicas N] [--threads N] [--warmup N]
 *                           [--measure N]
 *   clusterbench checkpoint --warmup N --measure N --dir DIR
 *   clusterbench calibrate
 *
 * kernel drives the golden grid point by point on one thread through
 * ReplayBuffer -> Processor -> run/measureWindow; tournament runs the
 * tournament preset through runSweep; checkpoint times the snapshot
 * and checkpoint-store calls on the fig5 points in-process (the served
 * workloads' traced run); calibrate times a fixed host-speed loop.
 *
 * Every layer is measured from outside: spans are opened here, around
 * calls into each module's public functions, and simulated counters
 * are read through the public accessors. Timed modes repeat their unit
 * of work ("rep") until --seconds have passed. With --trace every
 * other rep records spans, so run.py can compare traced and
 * untraced reps of the same run. A line "ready" on stdout marks the end
 * of set-up; the last line is the result document.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/golden.hh"
#include "common/json.hh"
#include "common/thread_annotations.hh"
#include "core/processor.hh"
#include "reconfig/registry.hh"
#include "sim/checkpoint.hh"
#include "sim/plan.hh"
#include "sim/presets.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "workload/replay.hh"

using namespace clustersim;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point processStart = Clock::now();

/** Host seconds since the harness started. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - processStart)
        .count();
}

/** Process CPU (user + system, all threads) as the OS reports it. */
double
processCpu()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * In-memory span recorder. A span is (name, start, end, parent, rep);
 * parent is the index of the enclosing span or -1. Disabled recorders
 * return -1 and record nothing. Thread-safe: tournament workers record
 * controller-construction spans concurrently.
 */
class Spans
{
  public:
    struct Span {
        const char *name;
        double start;
        double end;
        int parent;
        int rep;
    };

    int
    open(const char *name, int parent) CSIM_EXCLUDES(mutex_)
    {
        if (!enabled)
            return -1;
        double t = now();
        MutexLock lock(mutex_);
        spans_.push_back({name, t, t, parent, rep});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id) CSIM_EXCLUDES(mutex_)
    {
        if (id < 0)
            return;
        double t = now();
        MutexLock lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = t;
    }

    void
    write(JsonWriter &w) CSIM_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        w.key("spans");
        w.beginArray();
        for (const Span &s : spans_) {
            w.beginArray();
            w.value(s.name);
            w.value(s.start);
            w.value(s.end);
            w.value(s.parent);
            w.value(s.rep);
            w.endArray();
        }
        w.endArray();
    }

    /** Written by the main thread between reps, never while workers
     *  run, so they need no lock. */
    bool enabled = false;
    int rep = 0;

  private:
    Mutex mutex_;
    std::vector<Span> spans_ CSIM_GUARDED_BY(mutex_);
};

Spans spans;

/** RAII span on the calling thread. */
class Scoped
{
  public:
    Scoped(const char *name, int parent) : id(spans.open(name, parent)) {}
    ~Scoped() { spans.close(id); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;
    const int id;
};

struct Args {
    std::string mode;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    int threads = 4;
    int replicas = 0;
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
    std::string dir;
};

/**
 * Workload seed of benchmark `name` in seed replica `replica` (>= 1)
 * under the run's base seed. A run simulates its grid as shipped
 * (replica 0, the preset's own seeds) plus --replicas seed replicas:
 * the seed changes the synthetic programs themselves, so one stream
 * moves IPC by tens of percent and a run needs several to be steady.
 */
std::uint64_t
replicaSeed(std::uint64_t seed, const std::string &name, int replica)
{
    return sweepSeed(seed, name, "replica-" + std::to_string(replica));
}

/** One timed unit of work. */
struct Rep {
    bool traced = false;
    double wall = 0.0;
    double cpu = 0.0;
    double firstResult = 0.0;
    std::uint64_t instructions = 0;
    double pointsCpu = 0.0;
    std::vector<double> pointWalls;
};

void
writeReps(JsonWriter &w, const std::vector<Rep> &reps)
{
    w.key("reps");
    w.beginArray();
    for (const Rep &r : reps) {
        w.beginObject();
        w.field("traced", r.traced);
        w.field("wall_s", r.wall);
        w.field("cpu_s", r.cpu);
        w.field("first_result_s", r.firstResult);
        w.field("instructions", r.instructions);
        w.field("points_cpu_s", r.pointsCpu);
        w.key("point_walls");
        w.beginArray();
        for (double d : r.pointWalls)
            w.value(d);
        w.endArray();
        w.endObject();
    }
    w.endArray();
}

/** Repeat `rep` until the measuring budget is spent (at least 3 reps;
 *  with tracing, alternately untraced and traced). */
template <typename F>
std::vector<Rep>
repeatFor(const Args &a, F &&rep)
{
    std::vector<Rep> reps;
    double start = now();
    while (reps.size() < 3 || now() - start < a.seconds) {
        bool traced = a.trace && reps.size() % 2 == 1;
        spans.enabled = traced;
        spans.rep = static_cast<int>(reps.size());
        Rep r = rep();
        r.traced = traced;
        reps.push_back(std::move(r));
    }
    spans.enabled = false;
    return reps;
}

/** Every SimResult metric, bit-exact. */
bool
sameResult(const SimResult &a, const SimResult &b)
{
    return a.ipc == b.ipc && a.instructions == b.instructions &&
           a.cycles == b.cycles &&
           a.mispredictInterval == b.mispredictInterval &&
           a.branchAccuracy == b.branchAccuracy &&
           a.l1MissRate == b.l1MissRate &&
           a.avgActiveClusters == b.avgActiveClusters &&
           a.reconfigurations == b.reconfigurations &&
           a.flushWritebacks == b.flushWritebacks &&
           a.avgRegCommLatency == b.avgRegCommLatency &&
           a.distantFraction == b.distantFraction &&
           a.bankPredAccuracy == b.bankPredAccuracy;
}

/** Simulated counters summed over points (read through accessors). */
struct Counters {
    std::uint64_t cycles = 0, committed = 0, stallIq = 0, stallReg = 0,
                  stallLsq = 0, stallRob = 0, stallEmpty = 0,
                  regTransfers = 0, distantIssued = 0, icacheMisses = 0,
                  reconfigurations = 0, transfers = 0, hops = 0,
                  latency = 0, l1Accesses = 0, l1Misses = 0, l2Misses = 0,
                  tlbMisses = 0, lsqForwards = 0, lsqBlocked = 0,
                  branchLookups = 0, mispredicts = 0, bankLookups = 0,
                  bankCorrect = 0, opsGenerated = 0;
    double activeClusters = 0.0;
    std::size_t points = 0;

    void
    add(const Processor &p)
    {
        const ProcessorStats &s = p.stats();
        cycles += s.cycles;
        committed += s.committed;
        stallIq += s.stallIq;
        stallReg += s.stallReg;
        stallLsq += s.stallLsq;
        stallRob += s.stallRob;
        stallEmpty += s.stallEmpty;
        regTransfers += s.regTransfers;
        distantIssued += s.distantIssued;
        reconfigurations += s.reconfigurations;
        activeClusters += s.avgActiveClusters();
        icacheMisses += p.fetch().icacheMisses();
        transfers += p.network().transfers();
        hops += p.network().totalHops();
        latency += p.network().totalLatency();
        l1Accesses += p.l1().accesses();
        l1Misses += p.l1().misses();
        l2Misses += p.l2().misses();
        tlbMisses += p.dtlb().misses();
        lsqForwards += p.lsq().forwards();
        lsqBlocked += p.lsq().blockedChecks();
        branchLookups += p.fetch().branchUnit().lookups();
        mispredicts += p.fetch().branchUnit().mispredicts();
        bankLookups += p.bankPredictor().lookups();
        bankCorrect += p.bankPredictor().correct();
        points++;
    }

    void
    write(JsonWriter &w) const
    {
        auto ratio = [](double n, double d) { return d > 0 ? n / d : 0.0; };
        w.key("counters");
        w.beginObject();
        w.field("core.sim_cycles", cycles);
        w.field("core.committed", committed);
        w.field("core.stall_iq", stallIq);
        w.field("core.stall_reg", stallReg);
        w.field("core.stall_lsq", stallLsq);
        w.field("core.stall_rob", stallRob);
        w.field("core.stall_empty", stallEmpty);
        w.field("core.reg_transfers", regTransfers);
        w.field("core.distant_issued", distantIssued);
        w.field("core.icache_misses", icacheMisses);
        w.field("workload.ops_generated", opsGenerated);
        w.field("interconnect.transfers", transfers);
        w.field("interconnect.hops", hops);
        w.field("interconnect.avg_latency_cycles",
                ratio(static_cast<double>(latency),
                      static_cast<double>(transfers)));
        w.field("memory.l1_accesses", l1Accesses);
        w.field("memory.l1_miss_rate",
                ratio(static_cast<double>(l1Misses),
                      static_cast<double>(l1Accesses)));
        w.field("memory.l2_misses", l2Misses);
        w.field("memory.tlb_misses", tlbMisses);
        w.field("memory.lsq_forwards", lsqForwards);
        w.field("memory.lsq_blocked_checks", lsqBlocked);
        w.field("predictor.mispredicts", mispredicts);
        w.field("predictor.branch_accuracy",
                1.0 - ratio(static_cast<double>(mispredicts),
                            static_cast<double>(branchLookups)));
        w.field("predictor.bank_pred_accuracy",
                ratio(static_cast<double>(bankCorrect),
                      static_cast<double>(bankLookups)));
        w.field("reconfig.reconfigurations", reconfigurations);
        w.field("reconfig.avg_active_clusters",
                ratio(activeClusters, static_cast<double>(points)));
        w.endObject();
    }
};

void
writeIpcs(JsonWriter &w, const std::vector<double> &ipcs)
{
    w.key("ipcs");
    w.beginArray();
    for (double v : ipcs)
        w.value(v);
    w.endArray();
}

void
writeChecks(JsonWriter &w, std::uint64_t attempted,
            const std::vector<std::string> &failures)
{
    w.field("attempted", attempted);
    w.field("failed", static_cast<std::uint64_t>(failures.size()));
    w.key("failures");
    w.beginArray();
    for (const std::string &f : failures)
        w.value(f);
    w.endArray();
}

// --- kernel ----------------------------------------------------------------

/** A golden-grid point with its derived label and workload seed. */
struct KernelPoint {
    RunPoint point;
    WorkloadSpec workload; ///< seed already derived
};

std::vector<KernelPoint>
kernelPoints(const Args &a)
{
    std::vector<KernelPoint> out;
    for (int r = 0; r <= a.replicas; r++) {
        for (RunPoint &p : goldenRunPoints()) {
            WorkloadSpec w = p.workload;
            if (r > 0)
                w.seed = replicaSeed(a.seed, w.name, r);
            w.seed = sweepSeed(w.seed, w.name, p.label);
            out.push_back({std::move(p), std::move(w)});
        }
    }
    return out;
}

/** Run one golden point through the replay path, as the kernel rep
 *  does; counters are added to `ctr` when non-null. */
SimResult
runKernelPoint(const KernelPoint &kp, int parent, Counters *ctr)
{
    const RunPoint &p = kp.point;
    std::shared_ptr<const ReplayBuffer> buffer;
    {
        Scoped s("workload.gen", parent);
        buffer = std::make_shared<const ReplayBuffer>(
            kp.workload, p.warmup + p.measure + replayMargin(p.cfg));
    }
    ReplaySource trace(buffer);
    std::unique_ptr<ReconfigController> ctrl;
    std::unique_ptr<Processor> proc;
    {
        Scoped s("core.construct", parent);
        if (p.makeController)
            ctrl = p.makeController();
        proc = std::make_unique<Processor>(p.cfg, &trace, ctrl.get());
    }
    {
        Scoped s("core.warmup", parent);
        proc->run(p.warmup);
        proc->resetStats();
    }
    SimResult r;
    {
        Scoped s("core.measure", parent);
        r = measureWindow(*proc, p.measure);
    }
    if (ctr) {
        ctr->add(*proc);
        ctr->opsGenerated += buffer->size();
    }
    return r;
}

int
runKernel(const Args &a)
{
    std::vector<KernelPoint> points = kernelPoints(a);
    std::printf("ready\n");
    std::fflush(stdout);
    if (a.setupOnly)
        return 0;

    std::vector<SimResult> first;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    Counters ctr;

    std::vector<Rep> reps = repeatFor(a, [&] {
        Rep r;
        double cpu0 = processCpu();
        double t0 = now();
        Scoped rep("bench.rep", -1);
        bool record = first.empty();
        // Each replica grid is one submission; its first result comes
        // after its first point.
        std::size_t grid = points.size() /
                           static_cast<std::size_t>(a.replicas + 1);
        std::vector<double> firsts;
        for (std::size_t i = 0; i < points.size(); i++) {
            double pt0 = now();
            SimResult res =
                runKernelPoint(points[i], rep.id, record ? &ctr : nullptr);
            double pt1 = now();
            if (i % grid == 0)
                firsts.push_back(pt1 - pt0);
            r.pointWalls.push_back(pt1 - pt0);
            r.pointsCpu += pt1 - pt0;
            r.instructions += points[i].point.warmup + res.instructions;
            attempted++;
            if (record)
                first.push_back(res);
            else if (!sameResult(res, first[i]))
                failures.push_back("kernel point " + std::to_string(i) +
                                   " differs between reps");
        }
        r.wall = now() - t0;
        r.cpu = processCpu() - cpu0;
        std::sort(firsts.begin(), firsts.end());
        r.firstResult = firsts[firsts.size() / 2];
        return r;
    });
    double rss = peakRssMb();

    // Output check: each point equals runSimulation on the same inputs.
    std::vector<double> ipcs;
    for (std::size_t i = 0; i < points.size(); i++) {
        const RunPoint &p = points[i].point;
        std::unique_ptr<ReconfigController> ctrl;
        if (p.makeController)
            ctrl = p.makeController();
        SimResult ref = runSimulation(p.cfg, points[i].workload, ctrl.get(),
                                      p.warmup, p.measure);
        if (!sameResult(ref, first[i]))
            failures.push_back("kernel point " + std::to_string(i) + " (" +
                               p.workload.name + "/" + p.label +
                               ") differs from runSimulation");
        ipcs.push_back(first[i].ipc);
    }

    JsonWriter w;
    w.beginObject();
    w.field("threads", 1);
    w.field("peak_rss_mb", rss);
    writeReps(w, reps);
    ctr.write(w);
    writeIpcs(w, ipcs);
    writeChecks(w, attempted, failures);
    spans.write(w);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

// --- tournament --------------------------------------------------------------

/**
 * One tournament preset grid: replica 0 as shipped, replica r >= 1
 * with every benchmark's workload seed replaced by the replica's. The
 * oracle's identity names its seed, so a replica's oracle handle is
 * rebuilt with the new one, exactly as the preset builds it.
 */
std::vector<RunPoint>
tournamentPoints(const Args &a, int replica)
{
    std::vector<RunPoint> points =
        makeSweepPreset("tournament", a.warmup, a.measure);
    if (replica == 0)
        return points;
    for (RunPoint &p : points) {
        WorkloadSpec &w = p.workload;
        w.seed = replicaSeed(a.seed, w.name, replica);
        if (p.label != "oracle")
            continue;
        ControllerHandle h = makeController(
            "oracle",
            {{"bench", w.name},
             {"seed", std::to_string(sweepSeed(w.seed, w.name, p.seedTag))},
             {"horizon", std::to_string(p.warmup + p.measure)},
             {"warmup", std::to_string(p.warmup)},
             {"interval", "1000"}});
        p.makeController = std::move(h.make);
        p.controllerKey = std::move(h.key);
    }
    return points;
}

/** Time every controller construction as a reconfig.make span. */
void
wrapMake(std::vector<RunPoint> &points, int parent)
{
    for (RunPoint &p : points) {
        if (!p.makeController)
            continue;
        auto inner = std::move(p.makeController);
        p.makeController = [inner, parent] {
            Scoped s("reconfig.make", parent);
            return inner();
        };
    }
}

/**
 * A rep submits every replica grid as its own sweep, one after the
 * other, as a user running the preset once per seed would.
 */
int
runTournament(const Args &a)
{
    for (int g = 0; g <= a.replicas; g++)
        planSweep(tournamentPoints(a, g), true);
    std::printf("ready\n");
    std::fflush(stdout);
    if (a.setupOnly)
        return 0;

    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::vector<std::string> firstReports;
    std::vector<SweepRun> firstRuns;

    std::vector<Rep> reps = repeatFor(a, [&] {
        Rep r;
        double cpu0 = processCpu();
        double t0 = now();
        Scoped rep("bench.rep", -1);
        std::vector<double> firsts;
        for (int g = 0; g <= a.replicas; g++) {
            double g0 = now();
            // Fresh handles every rep: the oracle memoizes its probes
            // per handle, and a reused one would skip them.
            std::vector<RunPoint> points;
            {
                Scoped s("sim.plan", rep.id);
                points = tournamentPoints(a, g);
                planSweep(points, true);
            }
            SweepResult res;
            {
                Scoped s("sim.sweep", rep.id);
                wrapMake(points, s.id);
                SweepOptions opts;
                opts.threads = a.threads;
                opts.onComplete = [&](std::size_t, const SimResult &) {
                    if (firsts.size() == static_cast<std::size_t>(g))
                        firsts.push_back(now() - g0);
                };
                res = runSweep(points, opts);
            }
            std::string report;
            {
                Scoped s("sim.report", rep.id);
                report = sweepReportJson("tournament", points, res, false);
            }
            r.pointsCpu += res.cpuSeconds();
            for (std::size_t i = 0; i < points.size(); i++) {
                r.pointWalls.push_back(res.runs[i].wallSeconds);
                r.instructions +=
                    points[i].warmup + res.runs[i].result.instructions;
            }
            attempted += points.size();

            // Output check: the oracle's IPC is >= every reactive
            // policy's on its benchmark (one failed point per losing
            // oracle), and reps repeat exactly.
            for (std::size_t i = 0; i < points.size(); i++) {
                if (points[i].label != "oracle")
                    continue;
                std::string beaten;
                for (std::size_t j = 0; j < points.size(); j++)
                    if (points[j].workload.name == points[i].workload.name &&
                        res.runs[j].result.ipc > res.runs[i].result.ipc)
                        beaten += " " + points[j].label;
                if (!beaten.empty())
                    failures.push_back("replica " + std::to_string(g) +
                                       ": oracle IPC on " +
                                       points[i].workload.name +
                                       " is below" + beaten);
            }
            if (firstReports.size() == static_cast<std::size_t>(g)) {
                firstReports.push_back(report);
                firstRuns.insert(firstRuns.end(), res.runs.begin(),
                                 res.runs.end());
            } else if (report != firstReports[static_cast<std::size_t>(g)]) {
                failures.push_back("tournament replica " + std::to_string(g) +
                                   " report differs between reps");
            }
        }
        r.wall = now() - t0;
        r.cpu = processCpu() - cpu0;
        std::sort(firsts.begin(), firsts.end());
        r.firstResult = firsts[firsts.size() / 2];
        return r;
    });
    double rss = peakRssMb();

    std::uint64_t sum_cycles = 0, sum_committed = 0, sum_reconfigs = 0;
    double sum_active = 0.0;
    std::vector<double> ipcs;
    for (const SweepRun &run : firstRuns) {
        sum_cycles += run.result.cycles;
        sum_committed += run.result.instructions;
        sum_reconfigs += run.result.reconfigurations;
        sum_active += run.result.avgActiveClusters;
        ipcs.push_back(run.result.ipc);
    }

    JsonWriter w;
    w.beginObject();
    w.field("threads", a.threads);
    w.field("peak_rss_mb", rss);
    writeReps(w, reps);
    w.key("counters");
    w.beginObject();
    w.field("core.sim_cycles", sum_cycles);
    w.field("core.committed", sum_committed);
    w.field("reconfig.reconfigurations", sum_reconfigs);
    w.field("reconfig.avg_active_clusters",
            ipcs.empty() ? 0.0
                         : sum_active / static_cast<double>(ipcs.size()));
    w.endObject();
    writeIpcs(w, ipcs);
    writeChecks(w, attempted, failures);
    spans.write(w);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

// --- checkpoint --------------------------------------------------------------

/**
 * The served workloads' in-process layer timing: every fig5 point at
 * the served lengths goes warmup -> snapshot -> serializeSnapshot ->
 * WarmupCheckpointStore store/load -> deserializeSnapshot -> restore
 * -> measure. The measured IPCs let run.py cross-check the served
 * report.
 */
int
runCheckpoint(const Args &a)
{
    spans.enabled = true;
    std::vector<RunPoint> points =
        makeSweepPreset("fig5", a.warmup, a.measure);
    std::vector<PlannedPoint> plan;
    {
        Scoped s("sim.plan", -1);
        plan = planPoints(points, true);
    }
    WarmupCheckpointStore store(a.dir);
    std::vector<std::string> failures;
    std::vector<double> ipcs;
    std::uint64_t ops = 0;

    for (std::size_t i = 0; i < points.size(); i++) {
        const RunPoint &p = points[i];
        Scoped pt("bench.point", -1);
        WorkloadSpec w = p.workload;
        w.seed = plan[i].seed;
        std::shared_ptr<const ReplayBuffer> buffer;
        {
            Scoped s("workload.gen", pt.id);
            buffer = std::make_shared<const ReplayBuffer>(
                w, p.warmup + p.measure + replayMargin(p.cfg));
        }
        ops += buffer->size();
        ReplaySource trace(buffer);
        std::unique_ptr<ReconfigController> ctrl;
        std::unique_ptr<Processor> proc;
        {
            Scoped s("core.construct", pt.id);
            if (p.makeController)
                ctrl = p.makeController();
            proc = std::make_unique<Processor>(p.cfg, &trace, ctrl.get());
        }
        {
            Scoped s("core.warmup", pt.id);
            proc->run(p.warmup);
            proc->resetStats();
        }
        std::optional<Processor::Snapshot> snap;
        {
            Scoped s("core.snapshot", pt.id);
            snap.emplace(proc->snapshot());
        }
        std::string payload;
        {
            Scoped s("checkpoint.serialize", pt.id);
            payload = serializeSnapshot(*snap);
        }
        std::string key = store.keyFor(p, plan[i].seed);
        {
            Scoped s("checkpoint.store", pt.id);
            store.store(key, payload);
        }
        std::optional<std::string> loaded;
        {
            Scoped s("checkpoint.load", pt.id);
            loaded = store.load(key);
        }
        bool ok = loaded && *loaded == payload;
        {
            Scoped s("checkpoint.deserialize", pt.id);
            ok = ok && deserializeSnapshot(*loaded, *snap);
        }
        if (!ok) {
            failures.push_back("checkpoint round trip failed for point " +
                               std::to_string(i));
            ipcs.push_back(0.0);
            continue;
        }
        {
            Scoped s("core.restore", pt.id);
            proc->restore(*snap);
        }
        {
            Scoped s("core.measure", pt.id);
            ipcs.push_back(measureWindow(*proc, p.measure).ipc);
        }
    }

    JsonWriter w;
    w.beginObject();
    w.field("ops_generated", ops);
    writeIpcs(w, ipcs);
    writeChecks(w, points.size(), failures);
    spans.write(w);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

// --- calibrate ---------------------------------------------------------------

/**
 * Fixed host-speed probe, independent of the simulator: the median of
 * five timings of one integer hash chain. Recorded beside each
 * workload so host drift shows as a cause, not as a regression.
 */
int
runCalibrate()
{
    std::vector<double> t;
    std::uint64_t sink = 0;
    for (int r = 0; r < 5; r++) {
        double t0 = now();
        std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<unsigned>(r);
        for (int i = 0; i < 20000000; i++) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x *= 0x2545f4914f6cdd1dULL;
        }
        sink += x;
        t.push_back(now() - t0);
    }
    std::sort(t.begin(), t.end());
    JsonWriter w;
    w.beginObject();
    w.field("calib_s", t[2]);
    w.field("checksum", sink);
    w.field("compiler", CLUSTERBENCH_COMPILER);
    w.field("build_type", CLUSTERBENCH_BUILD_TYPE);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: clusterbench kernel|tournament|checkpoint|"
                 "calibrate [--seed N] [--seconds S] [--trace] "
                 "[--setup-only] [--replicas N] [--threads N] "
                 "[--warmup N] [--measure N] [--dir DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        auto need = [&]() -> const char * {
            if (i + 1 >= argc)
                std::exit(usage());
            return argv[++i];
        };
        if (arg == "--seed")
            a.seed = std::strtoull(need(), nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::atof(need());
        else if (arg == "--trace")
            a.trace = true;
        else if (arg == "--setup-only")
            a.setupOnly = true;
        else if (arg == "--threads")
            a.threads = std::atoi(need());
        else if (arg == "--replicas")
            a.replicas = std::atoi(need());
        else if (arg == "--warmup")
            a.warmup = std::strtoull(need(), nullptr, 10);
        else if (arg == "--measure")
            a.measure = std::strtoull(need(), nullptr, 10);
        else if (arg == "--dir")
            a.dir = need();
        else
            return usage();
    }
    if (a.mode == "kernel")
        return runKernel(a);
    if (a.mode == "tournament")
        return runTournament(a);
    if (a.mode == "checkpoint")
        return runCheckpoint(a);
    if (a.mode == "calibrate")
        return runCalibrate();
    return usage();
}
