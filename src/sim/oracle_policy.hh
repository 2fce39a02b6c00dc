/**
 * @file
 * Offline-oracle policy: probe driver and registry wiring.
 *
 * The DP solver and the schedule-replaying controller live in
 * reconfig/oracle.hh; this layer supplies what they need from the
 * simulation stack. computeOracleSchedule() runs one probe per
 * candidate configuration -- the full horizon on the oracle point's
 * own derived seed, with a pass-through controller pinning the
 * configuration while a TimeSeriesRecorder captures per-interval cycle
 * costs -- and feeds the rows to solveOracleSchedule().
 *
 * The shipped oracle is *best-of*, not DP-only: alongside the DP
 * schedule and the fixed-configuration probes, every reactive policy
 * runs once on the oracle's stream with its per-commit target
 * trajectory recorded, and the candidate with the highest measured
 * IPC over the run point's measure window wins (compared exactly, the
 * way the report computes it; ties go to fewer cycles). Replaying a
 * reactive trajectory keyed on the committed-instruction count
 * reproduces that run exactly (the committed stream is
 * configuration-independent here), so the oracle is >= every reactive
 * policy by construction while the DP component lets it beat them all
 * wherever an interval-grained mixture wins.
 *
 * registerOraclePolicy() publishes the policy as "oracle" in the
 * controller registry (reconfig/registry.hh). The probes are deferred
 * into the returned factory and memoized, so building a preset (or
 * listing presets) stays cheap and the expensive probe pass runs at
 * most once per handle, on the first worker that constructs the
 * controller.
 *
 * The canonical key spells out bench, seed, horizon, interval, and
 * penalty. horizon (warmup + measure of the run point) is deliberately
 * part of the identity: the schedule depends on it, and warmup
 * checkpoint identities exclude the measure length, so two points
 * differing only in measure must not share a warmup under one key.
 */

#ifndef CLUSTERSIM_SIM_ORACLE_POLICY_HH
#define CLUSTERSIM_SIM_ORACLE_POLICY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "reconfig/registry.hh"

namespace clustersim {

/** Identity of one oracle schedule (all of it lands in the key). */
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

/**
 * Run the fixed-configuration probes and solve the DP for the
 * interval-grained oracle schedule (one entry per interval of the
 * horizon). Deterministic in the params. Exposed for the DP-level
 * tests; the shipped policy goes through computeBestOracleSchedule().
 */
std::vector<int> computeOracleSchedule(const OraclePolicyParams &p);

/** A resolved oracle schedule: per-slot targets keyed on the committed
 *  instruction count (slotLength = 1 for a per-commit trajectory). */
struct OracleSchedule {
    std::uint64_t slotLength = 1;
    std::vector<int> targets;
};

/**
 * The best-of oracle: race the DP schedule, every fixed configuration,
 * and every reactive policy's recorded trajectory over the horizon on
 * the oracle point's own stream, and return the schedule with the
 * highest measure-window IPC (exact rational comparison). Deterministic
 * in the params; equal IPCs resolve to fewer cycles, then to the
 * earliest candidate in a fixed order (fixed configs ascending, then
 * the DP mixture, then the reactive trajectories).
 */
OracleSchedule computeBestOracleSchedule(const OraclePolicyParams &p);

/**
 * Handle for an oracle controller with the given identity. Probes are
 * deferred into the factory and memoized (thread-safe), so building
 * the handle is cheap.
 */
ControllerHandle makeOracleHandle(const OraclePolicyParams &p);

/** Idempotently register "oracle" in the controller registry. Params:
 *  bench, seed, horizon (required); warmup, interval, penalty
 *  (optional). */
void registerOraclePolicy();

} // namespace clustersim

#endif // CLUSTERSIM_SIM_ORACLE_POLICY_HH
