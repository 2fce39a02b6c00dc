/**
 * @file
 * Named processor configurations used across the paper's experiments.
 */

#ifndef CLUSTERSIM_SIM_PRESETS_HH
#define CLUSTERSIM_SIM_PRESETS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/params.hh"
#include "reconfig/registry.hh"
#include "sim/sweep.hh"

namespace clustersim {

/**
 * A clustered machine with `hw_clusters` hardware clusters, all active.
 *
 * @param hw_clusters   Hardware cluster count (2..16).
 * @param kind          Ring (default) or grid interconnect.
 * @param decentralized Decentralized L1 (Section 5) when true.
 */
ProcessorConfig clusteredConfig(int hw_clusters,
                                InterconnectKind kind =
                                    InterconnectKind::Ring,
                                bool decentralized = false);

/**
 * A 16-cluster machine restricted to `active` clusters at reset (the
 * paper's "statically using a fixed subset of clusters", Figure 3).
 */
ProcessorConfig staticSubsetConfig(int active,
                                   InterconnectKind kind =
                                       InterconnectKind::Ring,
                                   bool decentralized = false);

// --- Section 6 sensitivity variants (16-cluster, centralized, ring) -------

/** 10 issue-queue entries / 20 registers per cluster. */
ProcessorConfig fewerResourcesConfig();

/** 20 issue-queue entries / 40 registers per cluster. */
ProcessorConfig moreResourcesConfig();

/** Two FUs of each type per cluster. */
ProcessorConfig moreFusConfig();

/** Two-cycle interconnect hops. */
ProcessorConfig slowHopsConfig();

// --- Controller factories (paper schemes, repo-scaled bounds) -------------

/** Interval + exploration (Figure 4) with this repo's scaled bounds. */
std::unique_ptr<ReconfigController> makeExploreController();

/** Interval controller without exploration at a fixed length. */
std::unique_ptr<ReconfigController>
makeIlpController(std::uint64_t interval);

/** Fine-grained branch-boundary controller (paper defaults). */
std::unique_ptr<ReconfigController> makeFinegrainController();

/** Subroutine call/return variant (3 samples). */
std::unique_ptr<ReconfigController> makeSubroutineController();

// --- Grid building blocks --------------------------------------------------

/** A machine variant of one preset's grid. */
struct SweepVariant {
    std::string label;
    ProcessorConfig cfg;
    /** Fresh controller per run; null for static configurations. */
    std::function<std::unique_ptr<ReconfigController>()> makeController;
    /**
     * Stable identity of makeController's output (RunPoint::
     * controllerKey); empty exactly when makeController is null. It is
     * what makes a point content-addressable in the serve-layer result
     * cache and the warmup-checkpoint store.
     */
    std::string controllerKey;
};

/**
 * A variant whose controller comes from the policy registry: the
 * point's controllerKey is the registry handle's canonical key, so
 * every parameterization is content-addressable without
 * hand-maintained key strings.
 */
SweepVariant policyVariant(const std::string &label, ProcessorConfig cfg,
                           const std::string &policy,
                           const PolicyParams &params = {});

/**
 * Append one benchmark x variants cross to a point list, in variant
 * order. A non-empty `seedTag` makes the variants race one instruction
 * stream (RunPoint::seedTag).
 */
void appendCross(std::vector<RunPoint> &points, const WorkloadSpec &w,
                 const std::vector<SweepVariant> &variants,
                 std::uint64_t warmup, std::uint64_t measure,
                 const std::string &seedTag = "");

// --- Named sweep presets (the paper's result grid) ------------------------

/**
 * Names accepted by makeSweepPreset: the paper's figures/tables
 * (table3, fig3, fig5, fig6, fig7, fig8, sensitivity), the in-text
 * communication-cost studies (commcost), the design ablations
 * (ablation), the controller race (tournament), and "smoke" (a short
 * static-vs-dynamic grid for CI-style regression runs).
 */
const std::vector<std::string> &sweepPresetNames();

/**
 * Build the run points of a named preset: every benchmark model
 * crossed with the machine variants of that figure/table. A label of
 * the form `section/variant` puts the point in a section of the grid
 * (sim/sweep_table.hh renders one table per section).
 *
 * @param name    One of sweepPresetNames() (asserts otherwise).
 * @param warmup  Warmup instructions per run (0 = preset default).
 * @param measure Measured instructions per run (0 = preset default).
 */
std::vector<RunPoint> makeSweepPreset(const std::string &name,
                                      std::uint64_t warmup = 0,
                                      std::uint64_t measure = 0);

} // namespace clustersim

#endif // CLUSTERSIM_SIM_PRESETS_HH
