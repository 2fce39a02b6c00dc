/**
 * @file
 * Checkpoint/restore and warmup-group sweep correctness.
 *
 * Three layers, each depending on the previous one:
 *  - the ReplayBuffer reproduces the synthetic generator's stream
 *    exactly, and a run fed from it is bit-identical to one fed from
 *    the generator;
 *  - a restored post-warmup snapshot continues bit-identically to the
 *    uninterrupted run, across every controller family and both
 *    interconnect topologies, and restores any number of times;
 *  - runSweep()'s report is byte-for-byte the per-point runSimulation()
 *    reference, including when multi-member warmup groups actually
 *    form (the smoke preset derives a distinct seed per point, so it
 *    never exercises the shared-warmup restore path on its own).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/processor.hh"
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

} // namespace

// ---------------------------------------------------------------------------
// Replay buffer
// ---------------------------------------------------------------------------

TEST(Replay, BufferReproducesGeneratorStream)
{
    WorkloadSpec w = makeBenchmark("parser");
    ReplayBuffer buf(w, 4096);
    SyntheticWorkload gen(w);
    ASSERT_EQ(buf.size(), 4096u);
    for (std::uint64_t i = 0; i < buf.size(); i++) {
        const MicroOp &a = buf.at(i);
        MicroOp b = gen.next();
        ASSERT_EQ(a.pc, b.pc) << i;
        ASSERT_EQ(static_cast<int>(a.op), static_cast<int>(b.op)) << i;
        ASSERT_EQ(a.src1, b.src1) << i;
        ASSERT_EQ(a.src2, b.src2) << i;
        ASSERT_EQ(a.dest, b.dest) << i;
        ASSERT_EQ(a.effAddr, b.effAddr) << i;
        ASSERT_EQ(a.taken, b.taken) << i;
        ASSERT_EQ(a.target, b.target) << i;
    }
}

TEST(Replay, SeekIsExact)
{
    WorkloadSpec w = makeBenchmark("gzip");
    auto buf = std::make_shared<const ReplayBuffer>(w, 64);
    ReplaySource src(buf);
    for (int i = 0; i < 10; i++)
        src.next();
    EXPECT_EQ(src.position(), 10u);
    src.seek(3);
    EXPECT_EQ(src.position(), 3u);
    EXPECT_EQ(src.next().pc, buf->at(3).pc);
    src.seek(0);
    EXPECT_EQ(src.next().pc, buf->at(0).pc);
}

TEST(Replay, RunFromBufferMatchesGeneratorRun)
{
    WorkloadSpec w = makeBenchmark("gzip");
    ProcessorConfig cfg = clusteredConfig(16);

    SyntheticWorkload gen(w);
    Processor a(cfg, &gen, nullptr);
    a.run(kWarmup);
    a.resetStats();
    SimResult direct = measureWindow(a, kMeasure);

    SimResult replayed =
        straightLine(cfg, makeBuffer(w, cfg, kWarmup + kMeasure),
                     nullptr, kWarmup, kMeasure);
    EXPECT_EQ(toJson(direct), toJson(replayed));
}

// ---------------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------------

TEST(Snapshot, RestoredRunMatchesStraightLine)
{
    // The restore() + run(k) == uninterrupted-run(k) property, the
    // foundation of both the batched sweep and perfbench --batched,
    // across every controller family (static, interval-explore,
    // interval-ILP, fine-grained) and both interconnects. The snapshot
    // is restored twice, with a deliberately diverging run in between,
    // so a restore that leaks earlier state cannot pass.
    struct Case {
        const char *name;
        std::function<std::unique_ptr<ReconfigController>()> make;
    };
    const Case cases[] = {
        {"static", nullptr},
        {"explore", [] { return makeExploreController(); }},
        {"ilp", [] { return makeIlpController(10000); }},
        {"finegrain", [] { return makeFinegrainController(); }},
    };
    const std::pair<const char *, InterconnectKind> kinds[] = {
        {"ring", InterconnectKind::Ring},
        {"grid", InterconnectKind::Grid},
    };

    WorkloadSpec w = makeBenchmark("gzip");
    for (const auto &[kind_name, kind] : kinds) {
        ProcessorConfig cfg = clusteredConfig(16, kind);
        auto buf = makeBuffer(w, cfg, kWarmup + kMeasure);
        for (const Case &c : cases) {
            SCOPED_TRACE(std::string(kind_name) + "/" + c.name);

            SimResult straight = straightLine(
                cfg, buf, c.make ? c.make() : nullptr, kWarmup,
                kMeasure);

            ReplaySource src(buf);
            std::unique_ptr<ReconfigController> ctrl;
            if (c.make)
                ctrl = c.make();
            Processor proc(cfg, &src, ctrl.get());
            proc.run(kWarmup);
            proc.resetStats();
            Processor::Snapshot snap = proc.snapshot();

            proc.run(kMeasure / 2); // diverge past the snapshot
            proc.restore(snap);
            SimResult first = measureWindow(proc, kMeasure);
            proc.restore(snap);
            SimResult second = measureWindow(proc, kMeasure);

            EXPECT_EQ(toJson(straight), toJson(first));
            EXPECT_EQ(toJson(first), toJson(second));
        }
    }
}

// ---------------------------------------------------------------------------
// Warmup groups: runSweep() against the per-point reference
// ---------------------------------------------------------------------------

TEST(Batched, SmokePresetReportByteIdenticalToUnbatched)
{
    // Derived seeds make every smoke point's stream unique, so this
    // covers the one-member-group streaming path at both thread counts
    // (the CI thread-count diff runs the same property through the
    // sweep tool).
    std::vector<RunPoint> points = makeSweepPreset("smoke", 5000, 20000);
    std::string reference = perPointReport("smoke", points);
    for (int threads : {1, 4}) {
        SweepOptions opts;
        opts.threads = threads;
        EXPECT_EQ(reference,
                  sweepReportJson("smoke", points,
                                  runSweep(points, opts), false))
            << threads << " thread(s)";
    }
}

TEST(Batched, WarmupSharingGroupsMatchUnbatched)
{
    // One seedTag gives every point the same instruction stream,
    // so the plan forms multi-member warmup groups and runSweep serves
    // the non-lead members through snapshot restores:
    //  - four controller-less points sharing (config, warmup) but
    //    differing in measure length;
    //  - two controller points sharing a non-empty controllerKey (the
    //    controller-clone restore path);
    //  - one controller point with an empty key (must never group);
    //  - one point with a different warmup (its own group).
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
    add("shared-a", 5000, 20000, false, "");
    add("shared-b", 5000, 30000, false, "");
    add("shared-c", 5000, 20000, false, "");
    add("shared-d", 5000, 25000, false, "");
    add("ctrl-a", 5000, 15000, true, "explore-default");
    add("ctrl-b", 5000, 30000, true, "explore-default");
    add("ctrl-unkeyed", 5000, 15000, true, "");
    add("other-warmup", 2000, 20000, false, "");

    SweepPlan plan = planSweep(points, /*derive_seeds=*/true);
    ASSERT_EQ(plan.groups.size(), 4u);
    EXPECT_EQ(plan.groups[0].members,
              (std::vector<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(plan.groups[1].members, (std::vector<std::size_t>{4, 5}));
    EXPECT_EQ(plan.groups[2].members, (std::vector<std::size_t>{6}));
    EXPECT_EQ(plan.groups[3].members, (std::vector<std::size_t>{7}));

    // Grouping must not depend on which worker runs which group.
    std::string reference = perPointReport("grouped", points);
    for (int threads : {1, 4}) {
        SweepOptions opts;
        opts.threads = threads;
        EXPECT_EQ(reference,
                  sweepReportJson("grouped", points,
                                  runSweep(points, opts), false))
            << threads << " thread(s)";
    }
}
