#include "sim/presets.hh"

#include "common/logging.hh"
#include "reconfig/registry.hh"
#include "sim/oracle_policy.hh"
#include "workload/benchmarks.hh"

namespace clustersim {

ProcessorConfig
clusteredConfig(int hw_clusters, InterconnectKind kind,
                bool decentralized)
{
    CSIM_ASSERT(hw_clusters >= 1 && hw_clusters <= maxClusters);
    ProcessorConfig cfg;
    cfg.numClusters = hw_clusters;
    cfg.interconnect = kind;
    cfg.l1.decentralized = decentralized;
    cfg.name = "clustered-" + std::to_string(hw_clusters) +
               (kind == InterconnectKind::Grid ? "-grid" : "-ring") +
               (decentralized ? "-dcache" : "");
    return cfg;
}

ProcessorConfig
staticSubsetConfig(int active, InterconnectKind kind,
                   bool decentralized)
{
    ProcessorConfig cfg = clusteredConfig(maxClusters, kind,
                                          decentralized);
    cfg.activeClustersAtReset = active;
    cfg.name = "static-" + std::to_string(active) +
               (kind == InterconnectKind::Grid ? "-grid" : "-ring") +
               (decentralized ? "-dcache" : "");
    return cfg;
}

ProcessorConfig
fewerResourcesConfig()
{
    ProcessorConfig cfg = clusteredConfig(maxClusters);
    cfg.cluster.intIssueQueue = 10;
    cfg.cluster.fpIssueQueue = 10;
    cfg.cluster.intRegs = 20;
    cfg.cluster.fpRegs = 20;
    cfg.name = "sens-fewer-resources";
    return cfg;
}

ProcessorConfig
moreResourcesConfig()
{
    ProcessorConfig cfg = clusteredConfig(maxClusters);
    cfg.cluster.intIssueQueue = 20;
    cfg.cluster.fpIssueQueue = 20;
    cfg.cluster.intRegs = 40;
    cfg.cluster.fpRegs = 40;
    cfg.name = "sens-more-resources";
    return cfg;
}

ProcessorConfig
moreFusConfig()
{
    ProcessorConfig cfg = clusteredConfig(maxClusters);
    cfg.cluster.intAlus = 2;
    cfg.cluster.intMultDivs = 2;
    cfg.cluster.fpAlus = 2;
    cfg.cluster.fpMultDivs = 2;
    cfg.name = "sens-more-fus";
    return cfg;
}

ProcessorConfig
slowHopsConfig()
{
    ProcessorConfig cfg = clusteredConfig(maxClusters);
    cfg.hopLatency = 2;
    cfg.name = "sens-slow-hops";
    return cfg;
}

// --- Controller factories -------------------------------------------------
// Thin wrappers over the policy registry (reconfig/registry.hh), kept
// for direct construction in tests and tools; presets use registry
// handles so every preset point carries the policy's canonical key.

std::unique_ptr<ReconfigController>
makeExploreController()
{
    // Registry defaults are the paper values (10K initial interval;
    // max interval 1B scaled to 10M with this repo's run lengths).
    return makeController("ivl-explore").make();
}

std::unique_ptr<ReconfigController>
makeIlpController(std::uint64_t interval)
{
    return makeController("ivl-ilp",
                          {{"interval", std::to_string(interval)}})
        .make();
}

std::unique_ptr<ReconfigController>
makeFinegrainController()
{
    return makeController("fg-branch").make();
}

std::unique_ptr<ReconfigController>
makeSubroutineController()
{
    return makeController("fg-subroutine").make();
}

// --- Grid building blocks -------------------------------------------------

SweepVariant
policyVariant(const std::string &label, ProcessorConfig cfg,
              const std::string &policy, const PolicyParams &params)
{
    ControllerHandle h = makeController(policy, params);
    return {label, std::move(cfg), std::move(h.make), std::move(h.key)};
}

void
appendCross(std::vector<RunPoint> &points, const WorkloadSpec &w,
            const std::vector<SweepVariant> &variants,
            std::uint64_t warmup, std::uint64_t measure,
            const std::string &seedTag)
{
    for (const SweepVariant &v : variants) {
        RunPoint p;
        p.label = v.label;
        p.cfg = v.cfg;
        p.workload = w;
        p.makeController = v.makeController;
        p.warmup = warmup;
        p.measure = measure;
        p.controllerKey = v.controllerKey;
        p.seedTag = seedTag;
        points.push_back(std::move(p));
    }
}

// --- Named sweep presets --------------------------------------------------

namespace {

/** Cross every benchmark with every variant, in row-major order. */
std::vector<RunPoint>
crossGrid(const std::vector<SweepVariant> &variants,
          std::uint64_t warmup, std::uint64_t measure)
{
    std::vector<RunPoint> points;
    for (const WorkloadSpec &w : allBenchmarks())
        appendCross(points, w, variants, warmup, measure);
    return points;
}

/**
 * Append one section of a preset: every benchmark crossed with the
 * variants, labelled `section/label`. A non-empty seedTag makes all
 * labels of the section race one instruction stream per benchmark, so
 * their ratios compare the variants alone.
 */
void
appendSection(std::vector<RunPoint> &points, const std::string &section,
              std::vector<SweepVariant> variants, std::uint64_t warmup,
              std::uint64_t measure, const std::string &seedTag)
{
    for (SweepVariant &v : variants)
        v.label = section + "/" + v.label;
    for (const WorkloadSpec &w : allBenchmarks())
        appendCross(points, w, variants, warmup, measure, seedTag);
}

std::vector<SweepVariant>
staticPlusExploreVariants(InterconnectKind kind, bool decentralized)
{
    return {
        {"static-4", staticSubsetConfig(4, kind, decentralized), nullptr,
         ""},
        {"static-16", staticSubsetConfig(16, kind, decentralized),
         nullptr, ""},
        policyVariant("ivl-explore",
                      clusteredConfig(16, kind, decentralized),
                      "ivl-explore"),
    };
}

/**
 * The in-text communication-cost studies (DESIGN.md X1): a 16-cluster
 * machine against itself with one communication cost idealized away,
 * under the centralized and the decentralized cache.
 */
std::vector<RunPoint>
commcostPreset(std::uint64_t warmup, std::uint64_t measure)
{
    ProcessorConfig base = staticSubsetConfig(16);
    ProcessorConfig free_mem = base;
    free_mem.freeMemComm = true;
    ProcessorConfig free_reg = base;
    free_reg.freeRegComm = true;

    ProcessorConfig dbase =
        staticSubsetConfig(16, InterconnectKind::Ring, true);
    ProcessorConfig perfect_bank = dbase;
    perfect_bank.perfectBankPred = true;
    ProcessorConfig dfree_reg = dbase;
    dfree_reg.freeRegComm = true;

    std::vector<RunPoint> points;
    appendSection(points, "central",
                  {{"base", base, nullptr, ""},
                   {"free-mem-comm", free_mem, nullptr, ""},
                   {"free-reg-comm", free_reg, nullptr, ""}},
                  warmup, measure, "commcost/central");
    appendSection(points, "dcache",
                  {{"base", dbase, nullptr, ""},
                   {"perfect-bank-pred", perfect_bank, nullptr, ""},
                   {"free-reg-comm", dfree_reg, nullptr, ""}},
                  warmup, measure, "commcost/dcache");
    return points;
}

/**
 * Ablations of the design choices DESIGN.md calls out, each section
 * led by the configuration this repo ships: the steering heuristic's
 * load-balance override, the no-exploration scheme's distant-ILP
 * threshold (the paper's raw 160/1000 vs. the recalibrated 300), and
 * the fine-grained scheme's branch stride.
 */
std::vector<RunPoint>
ablationPreset(std::uint64_t warmup, std::uint64_t measure)
{
    ProcessorConfig full = staticSubsetConfig(16);
    ProcessorConfig no_balance = full;
    no_balance.loadBalanceThreshold = 1 << 20; // never override
    ProcessorConfig pure_balance = full;
    pure_balance.loadBalanceThreshold = 0; // always least-loaded

    auto ilp = [](const char *label, const char *per_mille) {
        return policyVariant(label, clusteredConfig(16), "ivl-ilp",
                             {{"distant-per-mille", per_mille}});
    };
    auto fg = [](const char *label, const char *stride) {
        return policyVariant(label, clusteredConfig(16), "fg-branch",
                             {{"stride", stride}});
    };

    std::vector<RunPoint> points;
    appendSection(points, "steering",
                  {{"full-heuristic", full, nullptr, ""},
                   {"no-load-balance", no_balance, nullptr, ""},
                   {"pure-load-balance", pure_balance, nullptr, ""}},
                  warmup, measure, "ablation/steering");
    appendSection(points, "threshold",
                  {ilp("ilp-300", "300"), ilp("ilp-160", "160"),
                   ilp("ilp-500", "500")},
                  warmup, measure, "ablation/threshold");
    appendSection(points, "stride",
                  {fg("fg-every-5th", "5"), fg("fg-every-branch", "1"),
                   fg("fg-every-20th", "20")},
                  warmup, measure, "ablation/stride");
    return points;
}

} // namespace

const std::vector<std::string> &
sweepPresetNames()
{
    static const std::vector<std::string> names = {
        "table3", "fig3", "fig5", "fig6", "fig7", "fig8",
        "sensitivity", "commcost", "ablation", "smoke", "tournament",
    };
    return names;
}

std::vector<RunPoint>
makeSweepPreset(const std::string &name, std::uint64_t warmup,
                std::uint64_t measure)
{
    std::uint64_t warm = warmup ? warmup : defaultWarmup;
    auto run = [&](std::uint64_t preset_default) {
        return measure ? measure : preset_default;
    };

    if (name == "table3") {
        std::vector<SweepVariant> variants = {
            {"monolithic-16", monolithicConfig(16), nullptr, ""},
        };
        return crossGrid(variants, warm, run(1000000));
    }
    if (name == "fig3") {
        std::vector<SweepVariant> variants;
        for (int n : {2, 4, 8, 16})
            variants.push_back({"c" + std::to_string(n),
                                staticSubsetConfig(n), nullptr, ""});
        return crossGrid(variants, warm, run(1000000));
    }
    if (name == "fig5") {
        std::vector<SweepVariant> variants = {
            {"static-4", staticSubsetConfig(4), nullptr, ""},
            {"static-16", staticSubsetConfig(16), nullptr, ""},
            policyVariant("ivl-explore", clusteredConfig(16),
                          "ivl-explore"),
            policyVariant("ivl-ilp-1K", clusteredConfig(16), "ivl-ilp",
                          {{"interval", "1000"}}),
            policyVariant("ivl-ilp-10K", clusteredConfig(16), "ivl-ilp",
                          {{"interval", "10000"}}),
            policyVariant("ivl-ilp-100K", clusteredConfig(16), "ivl-ilp",
                          {{"interval", "100000"}}),
        };
        return crossGrid(variants, warm, run(2000000));
    }
    if (name == "fig6") {
        std::vector<SweepVariant> variants = {
            {"static-4", staticSubsetConfig(4), nullptr, ""},
            {"static-16", staticSubsetConfig(16), nullptr, ""},
            policyVariant("ivl-explore", clusteredConfig(16),
                          "ivl-explore"),
            policyVariant("fg-branch", clusteredConfig(16), "fg-branch"),
            policyVariant("fg-subroutine", clusteredConfig(16),
                          "fg-subroutine"),
        };
        return crossGrid(variants, warm, run(2000000));
    }
    if (name == "fig7") {
        std::vector<SweepVariant> variants =
            staticPlusExploreVariants(InterconnectKind::Ring, true);
        variants.push_back(policyVariant(
            "ivl-ilp-1K",
            clusteredConfig(16, InterconnectKind::Ring, true), "ivl-ilp",
            {{"interval", "1000"}}));
        variants.push_back(policyVariant(
            "ivl-ilp-10K",
            clusteredConfig(16, InterconnectKind::Ring, true), "ivl-ilp",
            {{"interval", "10000"}}));
        return crossGrid(variants, warm, run(2000000));
    }
    if (name == "fig8") {
        return crossGrid(
            staticPlusExploreVariants(InterconnectKind::Grid, false),
            warm, run(2000000));
    }
    if (name == "sensitivity") {
        struct SensCase {
            const char *label;
            ProcessorConfig (*make)();
        };
        const SensCase cases[] = {
            {"fewer-resources", &fewerResourcesConfig},
            {"more-resources", &moreResourcesConfig},
            {"more-fus", &moreFusConfig},
            {"slow-hops", &slowHopsConfig},
        };
        std::vector<RunPoint> points;
        for (const SensCase &sc : cases) {
            ProcessorConfig hw = sc.make();
            ProcessorConfig s4 = hw;
            s4.activeClustersAtReset = 4;
            ProcessorConfig s16 = hw;
            s16.activeClustersAtReset = 16;
            appendSection(points, sc.label,
                          {{"static-4", s4, nullptr, ""},
                           {"static-16", s16, nullptr, ""},
                           policyVariant("ivl-explore", hw,
                                         "ivl-explore")},
                          warm, run(1500000), "");
        }
        return points;
    }
    if (name == "commcost")
        return commcostPreset(warm, run(1000000));
    if (name == "ablation")
        return ablationPreset(warm, run(800000));
    if (name == "smoke") {
        std::vector<SweepVariant> variants = {
            {"static-16", staticSubsetConfig(16), nullptr, ""},
            policyVariant("ivl-explore", clusteredConfig(16),
                          "ivl-explore"),
        };
        return crossGrid(variants, warmup ? warmup : 30000,
                         run(120000));
    }
    if (name == "tournament") {
        // Race every dynamic policy on the same 16-cluster machine,
        // per benchmark. Every point of one benchmark carries the same
        // seedTag, so the planner gives all six policies the *same*
        // instruction stream: the ranked table compares them
        // head-to-head, and the oracle -- whose candidates run on the
        // very same tag-derived seed -- bounds the reactive field on
        // the stream it is scored on. runSweep() shares the oracle's
        // reactive candidates with these points; building the grid
        // (e.g. for `sweep --list`) simulates nothing.
        registerOraclePolicy();
        std::uint64_t meas = run(1000000);
        std::vector<RunPoint> points;
        for (const WorkloadSpec &w : allBenchmarks()) {
            std::vector<SweepVariant> variants;
            for (const Competitor &c : reactiveCompetitors())
                variants.push_back(policyVariant(
                    c.label, clusteredConfig(16), c.policy, c.params));
            variants.push_back(policyVariant(
                "oracle", clusteredConfig(16), "oracle",
                {{"bench", w.name},
                 {"seed", std::to_string(
                              sweepSeed(w.seed, w.name, "tournament"))},
                 {"horizon", std::to_string(warm + meas)},
                 {"warmup", std::to_string(warm)},
                 {"interval", "1000"}}));
            appendCross(points, w, variants, warm, meas, "tournament");
        }
        return points;
    }
    CSIM_ASSERT(false, "unknown sweep preset: ", name);
    return {};
}

} // namespace clustersim
