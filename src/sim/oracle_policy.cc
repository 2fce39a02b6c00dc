#include "sim/oracle_policy.hh"

#include <cstdlib>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "reconfig/oracle.hh"
#include "sim/presets.hh"
#include "sim/simulation.hh"
#include "trace/timeseries.hh"
#include "workload/benchmarks.hh"

namespace clustersim {

namespace {

/**
 * Pass-through probe: pins one configuration while recording the
 * per-interval time series of the committed stream. Unlike the
 * processor-side trace hooks (compile-time gated), feeding the
 * recorder from a controller works in every build.
 */
class RecordingProbeController : public ReconfigController
{
  public:
    RecordingProbeController(int fixed, std::uint64_t interval)
        : fixed_(fixed)
    {
        recorder_.configure(interval);
    }

    void
    onCommit(const CommitEvent &ev) override
    {
        recorder_.onCommit(ev.op, ev.distant, ev.cycle, fixed_);
    }

    int targetClusters() const override { return fixed_; }
    std::string name() const override { return "oracle-probe"; }

    const std::vector<TimeSeriesRow> &rows() const
    {
        return recorder_.rows();
    }

  private:
    int fixed_;
    TimeSeriesRecorder recorder_;
};

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return !s.empty() && end && *end == '\0';
}

/**
 * Oracle params from registry parameters; on a missing, unknown or
 * unparsable parameter, nullopt with `error` set.
 */
std::optional<OraclePolicyParams>
readParams(const PolicyParams &params, std::string &error)
{
    OraclePolicyParams p;
    for (const auto &[k, v] : params) {
        bool ok = true;
        if (k == "bench") {
            p.bench = v;
        } else if (k == "seed") {
            ok = parseU64(v, p.seed);
        } else if (k == "horizon") {
            ok = parseU64(v, p.horizon);
        } else if (k == "warmup") {
            ok = parseU64(v, p.warmup);
        } else if (k == "interval") {
            ok = parseU64(v, p.interval);
        } else if (k == "penalty") {
            char *end = nullptr;
            p.penaltyCycles = std::strtod(v.c_str(), &end);
            ok = !v.empty() && end && *end == '\0';
        } else if (k == "configs") {
            p.configs.clear();
            std::size_t pos = 0;
            while (ok && pos <= v.size()) {
                std::size_t dot = v.find('.', pos);
                if (dot == std::string::npos)
                    dot = v.size();
                std::uint64_t c = 0;
                ok = parseU64(v.substr(pos, dot - pos), c) && c >= 1 &&
                     c <= maxClusters &&
                     (p.configs.empty() ||
                      static_cast<int>(c) > p.configs.back());
                p.configs.push_back(static_cast<int>(c));
                pos = dot + 1;
            }
        } else {
            error = "unknown parameter '" + k + "'";
            return std::nullopt;
        }
        if (!ok) {
            error = "unparsable '" + k + "': " + v;
            return std::nullopt;
        }
    }
    for (const char *req : {"bench", "seed", "horizon"}) {
        if (!params.count(req)) {
            error = std::string("required parameter '") + req +
                    "' missing";
            return std::nullopt;
        }
    }
    if (p.bench.empty() || p.horizon == 0 || p.interval < 100 ||
        p.warmup >= p.horizon || p.configs.empty()) {
        error = "inconsistent parameters";
        return std::nullopt;
    }
    return p;
}

/** A candidate's measure window, scored as the report scores it. */
bool
betterScore(const SimResult &a, const SimResult &b)
{
    // Higher IPC, compared exactly by cross-multiplying in 128 bits
    // (the reported IPC counts the commit overshoot past the window's
    // end, so fewest cycles alone can pick a lower-IPC candidate); on
    // equal IPC, fewer cycles.
    using Wide = unsigned __int128;
    Wide lhs = static_cast<Wide>(a.instructions) * b.cycles;
    Wide rhs = static_cast<Wide>(b.instructions) * a.cycles;
    if (lhs != rhs)
        return lhs > rhs;
    return a.cycles < b.cycles;
}

/** Run every candidate in consideration order and build a controller
 *  that reproduces the winner's run. */
std::unique_ptr<ReconfigController>
bestController(const OraclePolicyParams &p)
{
    const std::size_t k = p.configs.size();
    std::vector<std::vector<TimeSeriesRow>> rows(k);
    std::vector<SimResult> runs;
    for (std::size_t i = 0; i < k; i++)
        runs.push_back(runOracleProbe(p, p.configs[i], rows[i]));

    std::vector<int> dp = solveOracleSchedule(p.configs, rows,
                                              p.penaltyCycles);
    OracleController replay(p.interval, dp);
    runs.push_back(dp.empty() ? SimResult{}
                              : runOracleCandidate(p, &replay));

    std::vector<ControllerHandle> reactive;
    for (const Competitor &c : reactiveCompetitors()) {
        reactive.push_back(makeController(c.policy, c.params));
        runs.push_back(
            runOracleCandidate(p, reactive.back().make().get()));
    }

    std::vector<const SimResult *> cand;
    for (std::size_t i = 0; i < runs.size(); i++)
        cand.push_back(i == k && dp.empty() ? nullptr : &runs[i]);
    std::size_t win = oracleWinner(cand);
    if (win < k)
        return std::make_unique<OracleController>(
            p.interval, std::vector<int>{p.configs[win]});
    if (win == k)
        return std::make_unique<OracleController>(p.interval,
                                                  std::move(dp));
    return reactive[win - k - 1].make();
}

} // namespace

std::string
oracleKey(const OraclePolicyParams &p)
{
    std::string cfgs;
    for (std::size_t i = 0; i < p.configs.size(); i++) {
        if (i)
            cfgs += '.';
        cfgs += std::to_string(p.configs[i]);
    }
    return "oracle{bench=" + p.bench +
           ";configs=" + cfgs +
           ";horizon=" + std::to_string(p.horizon) +
           ";interval=" + std::to_string(p.interval) +
           ";penalty=" + canonicalNumber(p.penaltyCycles) +
           ";seed=" + std::to_string(p.seed) +
           ";warmup=" + std::to_string(p.warmup) + "}";
}

std::optional<OraclePolicyParams>
parseOracleKey(const std::string &key)
{
    std::string policy;
    PolicyParams params;
    if (!parseControllerKey(key, policy, params) || policy != "oracle")
        return std::nullopt;
    std::string error;
    std::optional<OraclePolicyParams> p = readParams(params, error);
    if (!p || oracleKey(*p) != key)
        return std::nullopt;
    return p;
}

const std::vector<Competitor> &
reactiveCompetitors()
{
    static const std::vector<Competitor> field = {
        {"ivl-explore", "ivl-explore", {}},
        {"ivl-ilp-10K", "ivl-ilp", {{"interval", "10000"}}},
        {"fg-branch", "fg-branch", {}},
        {"fg-subroutine", "fg-subroutine", {}},
        {"ineffectuality", "ineffectuality", {}},
    };
    return field;
}

RunPoint
oracleCandidatePoint(const OraclePolicyParams &p)
{
    RunPoint pt;
    pt.cfg = clusteredConfig(maxClusters);
    pt.workload = makeBenchmark(p.bench);
    pt.workload.seed = p.seed;
    pt.warmup = p.warmup;
    pt.measure = p.horizon - p.warmup;
    return pt;
}

SimResult
runOracleCandidate(const OraclePolicyParams &p, ReconfigController *ctrl)
{
    RunPoint pt = oracleCandidatePoint(p);
    return runSimulation(pt.cfg, pt.workload, ctrl, pt.warmup,
                         pt.measure);
}

SimResult
runOracleProbe(const OraclePolicyParams &p, int config,
               std::vector<TimeSeriesRow> &rows)
{
    // The committed stream is configuration-independent here
    // (fetch-gated mispredicts, no wrong-path commits), so the rows of
    // every probe are aligned at the same committed-instruction
    // boundaries.
    RecordingProbeController probe(config, p.interval);
    SimResult r = runOracleCandidate(p, &probe);
    rows = probe.rows();
    return r;
}

std::size_t
oracleWinner(const std::vector<const SimResult *> &candidates)
{
    // Strictly better only, in consideration order: full ties go to
    // the earliest (simplest) candidate.
    std::size_t best = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); i++)
        if (candidates[i] &&
            (best == candidates.size() ||
             betterScore(*candidates[i], *candidates[best])))
            best = i;
    CSIM_ASSERT(best < candidates.size(), "oracle: no candidate ran");
    return best;
}

ControllerHandle
makeOracleHandle(const OraclePolicyParams &p)
{
    return {oracleKey(p), [p] { return bestController(p); }};
}

void
registerOraclePolicy()
{
    static const bool registered = [] {
        registerControllerPolicy(
            "oracle", [](const PolicyParams &params) {
                std::string error;
                std::optional<OraclePolicyParams> p =
                    readParams(params, error);
                CSIM_ASSERT(p.has_value(), "oracle: ", error);
                return makeOracleHandle(*p);
            });
        return true;
    }();
    (void)registered;
}

} // namespace clustersim
