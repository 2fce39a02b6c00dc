#include "check/fuzz.hh"

#include <algorithm>

#include "common/logging.hh"
#include "reconfig/registry.hh"
#include "sim/presets.hh"
#include "sim/simulation.hh"
#include "workload/benchmarks.hh"

namespace clustersim {

namespace {

double
uniformIn(Rng &rng, double lo, double hi)
{
    return lo + (hi - lo) * rng.uniform();
}

int
rangeIn(Rng &rng, int lo, int hi)
{
    return lo + static_cast<int>(rng.range(
        static_cast<std::uint32_t>(hi - lo + 1)));
}

/** A randomized but always-valid phase description. */
PhaseSpec
randomPhase(Rng &rng, int idx)
{
    PhaseSpec p;
    p.name = "fuzz-phase-" + std::to_string(idx);
    p.avgBlockLen = uniformIn(rng, 3.0, 12.0);
    p.codeBlocks = rangeIn(rng, 8, 128);
    p.fracCallBlocks = uniformIn(rng, 0.0, 0.1);
    p.numFunctions = rangeIn(rng, 1, 8);

    p.fracLoad = uniformIn(rng, 0.05, 0.4);
    p.fracStore = uniformIn(rng, 0.02, 0.2);
    p.fracFp = rng.chance(0.4) ? uniformIn(rng, 0.0, 0.8) : 0.0;
    p.fracLongLat = uniformIn(rng, 0.0, 0.2);

    p.chainCount = rangeIn(rng, 1, 24);
    p.pChainDep = uniformIn(rng, 0.2, 0.95);
    p.pSecondSrc = uniformIn(rng, 0.0, 0.6);
    p.pAddrChainDep = uniformIn(rng, 0.0, 0.6);

    p.fracBiased = uniformIn(rng, 0.0, 0.8);
    p.fracPattern = uniformIn(rng, 0.0, 1.0 - p.fracBiased);
    p.biasedTakenProb = uniformIn(rng, 0.5, 0.99);

    p.fracStreamMem = uniformIn(rng, 0.0, 1.0);
    p.streamCount = rangeIn(rng, 1, 8);
    const int strides[] = {4, 8, 16, 64};
    p.streamStride = strides[rng.range(4)];
    p.fracPointerChase = rng.chance(0.3) ? uniformIn(rng, 0.0, 0.3)
                                         : 0.0;
    p.footprintKB = rangeIn(rng, 16, 1024);
    p.streamSpanKB = rangeIn(rng, 4, 64);
    p.hotFraction = uniformIn(rng, 0.3, 0.9);
    p.hotRegionKB = rangeIn(rng, 4, 32);
    p.chaseRegionKB = rangeIn(rng, 8, 64);
    p.uniformBlockMix = rng.chance(0.5);
    p.meanPhaseLen = static_cast<std::uint64_t>(rangeIn(rng, 500, 5000));
    return p;
}

} // namespace

FuzzCase
randomCase(Rng &rng)
{
    FuzzCase c;
    c.workloadSeed = rng.next64() | 1;
    c.numClusters = rangeIn(rng, 2, maxClusters);
    c.grid = rng.chance(0.35);
    c.decentralized = rng.chance(0.35);
    switch (rng.range(6)) {
      case 0: c.controller = FuzzController::None; break;
      case 1: c.controller = FuzzController::Explore; break;
      case 2: c.controller = FuzzController::IntervalIlp; break;
      case 3: c.controller = FuzzController::Finegrain; break;
      case 4: c.controller = FuzzController::Subroutine; break;
      default: c.controller = FuzzController::Ineffectuality; break;
    }
    // Never below the viable minimum: a partition whose register
    // files cannot hold the architectural state deadlocks at rename
    // by construction (see minViableClusters), so it is not a legal
    // machine to fuzz. fuzzConfig() clamps again after shrinking.
    int min_active = minViableClusters(ClusterParams{});
    c.activeAtReset = rng.chance(0.5)
        ? 0
        : rangeIn(rng, std::min(min_active, c.numClusters),
                  c.numClusters);
    c.benchmark = rng.chance(0.5)
        ? static_cast<int>(rng.range(static_cast<std::uint32_t>(
              benchmarkNames().size())))
        : -1;
    c.phaseSeed = rng.next64();
    c.numPhases = rangeIn(rng, 1, 3);
    c.warmup = static_cast<std::uint64_t>(rangeIn(rng, 0, 2000));
    c.measure = static_cast<std::uint64_t>(rangeIn(rng, 500, 4000));
    return c;
}

std::string
describeCase(const FuzzCase &c)
{
    return detail::concat(
        "FuzzCase{seed=", c.workloadSeed, ", clusters=", c.numClusters,
        ", topo=", c.grid ? "grid" : "ring",
        ", cache=", c.decentralized ? "dist" : "central",
        ", controller=", static_cast<int>(c.controller),
        ", active0=", c.activeAtReset,
        ", benchmark=", c.benchmark,
        ", phaseSeed=", c.phaseSeed, ", phases=", c.numPhases,
        ", warmup=", c.warmup, ", measure=", c.measure, "}");
}

ProcessorConfig
fuzzConfig(const FuzzCase &c)
{
    ProcessorConfig cfg = clusteredConfig(
        c.numClusters,
        c.grid ? InterconnectKind::Grid : InterconnectKind::Ring,
        c.decentralized);
    if (c.activeAtReset > 0 &&
        c.controller == FuzzController::None) {
        cfg.activeClustersAtReset = std::clamp(
            c.activeAtReset,
            std::min(minViableClusters(cfg.cluster), cfg.numClusters),
            cfg.numClusters);
        cfg.name += "-a" + std::to_string(cfg.activeClustersAtReset);
    }
    return cfg;
}

WorkloadSpec
fuzzWorkload(const FuzzCase &c)
{
    if (c.benchmark >= 0) {
        const auto &names = benchmarkNames();
        WorkloadSpec w = makeBenchmark(
            names[static_cast<std::size_t>(c.benchmark) % names.size()]);
        w.seed = c.workloadSeed;
        return w;
    }

    Rng rng(c.phaseSeed, 0x66757a7aULL); // independent derivation stream
    WorkloadSpec w;
    w.name = "fuzz-" + std::to_string(c.phaseSeed);
    w.seed = c.workloadSeed;
    for (int i = 0; i < c.numPhases; i++) {
        w.phases.push_back(randomPhase(rng, i));
        w.schedule.push_back({i, 0});
    }
    return w;
}

std::unique_ptr<ReconfigController>
fuzzController(const FuzzCase &c)
{
    switch (c.controller) {
      case FuzzController::None:
        return nullptr;
      case FuzzController::Explore:
        return makeExploreController();
      case FuzzController::IntervalIlp:
        return makeIlpController(1000);
      case FuzzController::Finegrain:
        return makeFinegrainController();
      case FuzzController::Subroutine:
        return makeSubroutineController();
      case FuzzController::Ineffectuality:
        return makeController("ineffectuality").make();
    }
    return nullptr;
}

FuzzOutcome
runFuzzCase(const FuzzCase &c)
{
    InvariantChecker checker(/*fail_fast=*/false);
    FuzzOutcome out;
    {
        CheckScope scope(checker);
        std::unique_ptr<ReconfigController> ctrl = fuzzController(c);
        runSimulation(fuzzConfig(c), fuzzWorkload(c), ctrl.get(),
                      c.warmup, c.measure);
    }
    out.ok = checker.ok();
    out.probes = checker.probeCount();
    out.violations = checker.violations();
    return out;
}

FuzzCase
shrinkCase(const FuzzCase &c)
{
    auto fails = [](const FuzzCase &cand) {
        return !runFuzzCase(cand).ok;
    };
    CSIM_ASSERT(fails(c), "shrinkCase needs a failing case");

    FuzzCase best = c;
    bool progress = true;
    while (progress) {
        progress = false;

        // Candidate mutations, most simplifying first. Each is applied
        // to the current best and kept if the case still fails.
        std::vector<FuzzCase> cands;
        auto push = [&](FuzzCase m) {
            cands.push_back(std::move(m));
        };
        if (best.controller != FuzzController::None) {
            FuzzCase m = best;
            m.controller = FuzzController::None;
            push(m);
        }
        if (best.decentralized) {
            FuzzCase m = best;
            m.decentralized = false;
            push(m);
        }
        if (best.grid) {
            FuzzCase m = best;
            m.grid = false;
            push(m);
        }
        if (best.numClusters > 2) {
            FuzzCase m = best;
            m.numClusters = std::max(2, best.numClusters / 2);
            m.activeAtReset = std::min(m.activeAtReset, m.numClusters);
            push(m);
        }
        if (best.numPhases > 1) {
            FuzzCase m = best;
            m.numPhases = best.numPhases - 1;
            push(m);
        }
        if (best.warmup > 0) {
            FuzzCase m = best;
            m.warmup = best.warmup / 2;
            push(m);
        }
        if (best.measure > 100) {
            FuzzCase m = best;
            m.measure = std::max<std::uint64_t>(100, best.measure / 2);
            push(m);
        }
        if (best.benchmark < 0 && best.numPhases == 1) {
            // Try the curated benchmarks as a simpler stand-in.
            FuzzCase m = best;
            m.benchmark = 0;
            push(m);
        }

        for (const FuzzCase &cand : cands) {
            if (fails(cand)) {
                best = cand;
                progress = true;
                break;
            }
        }
    }
    return best;
}

} // namespace clustersim
