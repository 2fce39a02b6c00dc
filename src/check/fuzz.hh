/**
 * @file
 * Property-based fuzzing of the simulator (validation subsystem,
 * layer 3).
 *
 * A FuzzCase is a small vector of knobs (machine shape, controller,
 * workload choice, run lengths) from which a processor configuration
 * and a workload are derived deterministically. randomCase() draws the
 * knobs from a seeded Rng; runFuzzCase() executes the simulation under
 * a *recording* InvariantChecker (violations are collected instead of
 * panicking, so a failure can be shrunk in-process); shrinkCase()
 * greedily minimizes a failing case while it keeps failing.
 *
 * Workloads come in two flavours: half the cases run one of the nine
 * library benchmark models under a random seed, half run a fully
 * randomized synthetic phase program, so both curated and adversarial
 * instruction streams hit the invariants.
 */

#ifndef CLUSTERSIM_CHECK_FUZZ_HH
#define CLUSTERSIM_CHECK_FUZZ_HH

#include <cstdint>
#include <memory>
#include <string>

#include "check/invariant.hh"
#include "common/random.hh"
#include "core/params.hh"
#include "reconfig/controller.hh"
#include "workload/synthetic.hh"

namespace clustersim {

/** Controller choice of a fuzz case. */
enum class FuzzController : std::uint8_t {
    None,       ///< static configuration
    Explore,    ///< Figure 4 interval + exploration
    IntervalIlp,///< fixed-interval distant-ILP controller
    Finegrain,  ///< branch-boundary controller
    Subroutine, ///< call/return variant
    Ineffectuality, ///< wasted-fetch cluster gating
};

/** Knob vector from which one randomized simulation is derived. */
struct FuzzCase {
    std::uint64_t workloadSeed = 1;
    int numClusters = 16;     ///< 2..16
    bool grid = false;        ///< ring otherwise
    bool decentralized = false;
    FuzzController controller = FuzzController::None;
    /** Active clusters at reset; 0 = all (ignored under a controller). */
    int activeAtReset = 0;
    /** Library benchmark index, or -1 for a random synthetic program. */
    int benchmark = -1;
    std::uint64_t phaseSeed = 0; ///< synthetic-program derivation seed
    int numPhases = 1;           ///< 1..3 (synthetic only)
    std::uint64_t warmup = 500;
    std::uint64_t measure = 2000;
};

/** Draw a random case. Respects cross-knob validity constraints. */
FuzzCase randomCase(Rng &rng);

/** One-line reproduction string for failure reports. */
std::string describeCase(const FuzzCase &c);

/** Derive the processor configuration of a case. */
ProcessorConfig fuzzConfig(const FuzzCase &c);

/** Derive the workload of a case. */
WorkloadSpec fuzzWorkload(const FuzzCase &c);

/** Build the case's controller (null for FuzzController::None). */
std::unique_ptr<ReconfigController> fuzzController(const FuzzCase &c);

/** Result of executing one case under a recording checker. */
struct FuzzOutcome {
    bool ok = true;
    std::uint64_t probes = 0; ///< checker invocations (liveness signal)
    std::vector<InvariantChecker::Violation> violations;
};

/** Run the case to completion under a recording InvariantChecker. */
FuzzOutcome runFuzzCase(const FuzzCase &c);

/**
 * Greedy shrink: repeatedly try simplifying mutations (shorter windows,
 * fewer clusters, no controller, centralized cache, ring, fewer phases)
 * and keep each one that still produces a violation. Returns the
 * smallest failing case found (the input if nothing smaller fails).
 */
FuzzCase shrinkCase(const FuzzCase &c);

} // namespace clustersim

#endif // CLUSTERSIM_CHECK_FUZZ_HH
