/**
 * @file
 * Text tables over sweep results: the one renderer behind every paper
 * figure and table the presets (sim/presets.hh) describe.
 *
 * A sweep's labels fall into sections by their `/` prefix
 * ("fewer-resources/static-4" is label "static-4" of section
 * "fewer-resources"; an unprefixed label belongs to the unnamed
 * section). Each section renders as
 *
 *  - a benchmark x label IPC table with AM and GM rows and the best
 *    label per row;
 *  - each label's geomean IPC ratio over the section's first label;
 *  - when the section mixes static labels (points without a
 *    controller) with controller-driven ones: each controller label's
 *    speedup over the best fixed static label and over the
 *    per-benchmark best static label;
 *  - per-label run metrics (active clusters, register-communication
 *    latency, reconfigurations, flush writebacks, mispredict interval,
 *    L1 miss rate); a one-label section lists its runs instead.
 */

#ifndef CLUSTERSIM_SIM_SWEEP_TABLE_HH
#define CLUSTERSIM_SIM_SWEEP_TABLE_HH

#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace clustersim {

/** One `/`-prefix section of a sweep: its benchmark x label grid. */
struct SweepSection {
    std::string name;                 ///< prefix before '/'; "" if none
    std::vector<std::string> labels;  ///< prefix stripped, first seen
    std::vector<bool> isStatic;       ///< per label: no controller
    std::vector<std::string> benchmarks; ///< first-seen order
    /** cells[b][l]: run of benchmarks[b] under labels[l], or null when
     *  the sweep has no such point. Points into the SweepResult. */
    std::vector<std::vector<const SimResult *>> cells;
};

/** Group a sweep's runs into sections, in first-appearance order. */
std::vector<SweepSection> sweepSections(const std::vector<RunPoint> &points,
                                        const SweepResult &res);

/**
 * Geomean over benchmarks of label `l`'s IPC over the single static
 * label with the best geomean IPC: the paper's "better than the best
 * static fixed organization", where one machine serves every program.
 * 0 when the section has no static label.
 */
double speedupOverBestFixed(const SweepSection &s, std::size_t l);

/**
 * Geomean over benchmarks of label `l`'s IPC over the best static
 * label *of that benchmark* (a per-program oracle over the static
 * options). 0 when the section has no static label.
 */
double speedupOverBest(const SweepSection &s, std::size_t l);

/** Render every section of a sweep as text tables. */
std::string renderSweepTables(const std::vector<RunPoint> &points,
                              const SweepResult &res);

} // namespace clustersim

#endif // CLUSTERSIM_SIM_SWEEP_TABLE_HH
