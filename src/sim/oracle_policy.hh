/**
 * @file
 * Offline-oracle policy: candidate runs, selection, registry wiring.
 *
 * The DP solver and the schedule-replaying controller live in
 * reconfig/oracle.hh; this layer supplies what they need from the
 * simulation stack. The shipped oracle is *best-of*: a pure selection
 * over a fixed list of candidate runs, all on the 16-cluster machine,
 * the oracle's own stream (its exact seed), its warmup and its measure
 * window. In consideration order:
 *
 *  1. one probe per candidate configuration, pinning it for the whole
 *     horizon while a TimeSeriesRecorder captures per-interval cycle
 *     costs (runOracleProbe());
 *  2. one replay of the schedule solveOracleSchedule() builds from
 *     those rows (ready once every probe has finished);
 *  3. one run of every reactive competitor (reactiveCompetitors()).
 *
 * The candidate with the highest measure-window IPC wins, compared
 * exactly the way the report computes it; equal IPCs go to fewer
 * cycles, then to the earliest candidate (oracleWinner()). The oracle's
 * result *is* the winner's run, so it bounds every reactive competitor
 * by construction, and the DP candidate lets it beat them all wherever
 * an interval-grained mixture wins.
 *
 * runSweep() (sim/sweep.hh) recognises an oracle point from its
 * canonical key alone (parseOracleKey()) and runs the candidates as
 * pool tasks, sharing each reactive candidate with the grid's own
 * identical point; the oracle point itself is never simulated. The
 * registry factory runs the same candidates serially and returns the
 * winner's controller, for standalone use.
 *
 * The canonical key spells out bench, configs, horizon, interval,
 * penalty, seed and warmup. horizon (warmup + measure of the run point)
 * is deliberately part of the identity: the winner depends on it, and
 * warmup checkpoint identities exclude the measure length, so two
 * points differing only in measure must not share a warmup under one
 * key.
 */

#ifndef CLUSTERSIM_SIM_ORACLE_POLICY_HH
#define CLUSTERSIM_SIM_ORACLE_POLICY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "reconfig/registry.hh"
#include "sim/sweep.hh"

namespace clustersim {

/** Identity of one oracle (all of it lands in the key). */
struct OraclePolicyParams {
    std::string bench;         ///< benchmark model name
    std::uint64_t seed = 0;    ///< exact workload seed of the run point
    std::uint64_t horizon = 0; ///< instructions covered: warmup+measure
    /**
     * Instructions before the run point's measure window opens
     * (< horizon). Candidates are scored on the measure window
     * *after* this boundary -- the window the tournament actually
     * reports -- not on the whole horizon, so a candidate cannot win
     * on a fast warmup it is never scored for.
     */
    std::uint64_t warmup = 0;
    std::uint64_t interval = 10000; ///< schedule slot, instructions
    double penaltyCycles = 200.0;   ///< cost per configuration switch
    /** Candidate configurations, ascending. */
    std::vector<int> configs = {2, 4, 8, 16};
};

/** Canonical `oracle{...}` key of the params. */
std::string oracleKey(const OraclePolicyParams &p);

/** The params a canonical oracle key spells out; nullopt for any key
 *  oracleKey() would not have produced. */
std::optional<OraclePolicyParams> parseOracleKey(const std::string &key);

/** One reactive competitor: report label plus registry policy. */
struct Competitor {
    std::string label;
    std::string policy;
    PolicyParams params;
};

/**
 * The reactive field, in grid order. The tournament preset races these
 * and the oracle runs each as a candidate; one list keeps the two
 * identical, which is what lets runSweep() share the runs.
 */
const std::vector<Competitor> &reactiveCompetitors();

/**
 * The run every candidate shares, controller aside: 16-cluster machine,
 * the benchmark at the oracle's exact seed, its warmup, and measure =
 * horizon - warmup. No label, no controller.
 */
RunPoint oracleCandidatePoint(const OraclePolicyParams &p);

/** Simulate one candidate under `ctrl` (not owned). */
SimResult runOracleCandidate(const OraclePolicyParams &p,
                             ReconfigController *ctrl);

/**
 * Simulate the probe pinned at `config` and store its per-interval rows
 * over the whole horizon in `rows` (the DP's input).
 */
SimResult runOracleProbe(const OraclePolicyParams &p, int config,
                         std::vector<TimeSeriesRow> &rows);

/**
 * Index of the winning candidate: the highest IPC (exact rational
 * comparison), then fewer cycles, then the lowest index. Null entries
 * (a DP replay that had no schedule to run) never win; at least one
 * entry must be non-null.
 */
std::size_t oracleWinner(const std::vector<const SimResult *> &candidates);

/**
 * Handle for an oracle with the given identity. Building it is cheap;
 * each make() runs every candidate serially and returns a fresh
 * controller that reproduces the winner's run.
 */
ControllerHandle makeOracleHandle(const OraclePolicyParams &p);

/** Idempotently register "oracle" in the controller registry. Params:
 *  bench, seed, horizon (required); warmup, interval, penalty, configs
 *  (optional; configs is dot-separated, e.g. "2.4.8.16"). */
void registerOraclePolicy();

} // namespace clustersim

#endif // CLUSTERSIM_SIM_ORACLE_POLICY_HH
