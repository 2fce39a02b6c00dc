#include "check/golden.hh"

#include <cmath>
#include <cstdio>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/presets.hh"
#include "workload/benchmarks.hh"

namespace clustersim {

namespace {

/** Short windows: the set is a tripwire, not a performance study. */
constexpr std::uint64_t goldenWarmup = 10000;
constexpr std::uint64_t goldenMeasure = 40000;

std::vector<SweepVariant>
goldenVariants()
{
    return {
        {"static-16", staticSubsetConfig(16), nullptr, ""},
        {"static-4", staticSubsetConfig(4), nullptr, ""},
        policyVariant("ivl-explore", clusteredConfig(16), "ivl-explore"),
        policyVariant("ivl-ilp-10K", clusteredConfig(16), "ivl-ilp",
                      {{"interval", "10000"}}),
        policyVariant("fg-branch", clusteredConfig(16), "fg-branch"),
        {"static-16-grid",
         staticSubsetConfig(16, InterconnectKind::Grid), nullptr, ""},
        policyVariant("ivl-explore-dcache",
                      clusteredConfig(16, InterconnectKind::Ring, true),
                      "ivl-explore"),
        {"monolithic-16", monolithicConfig(16), nullptr, ""},
    };
}

} // namespace

std::vector<RunPoint>
goldenRunPoints()
{
    // One int benchmark, one fp-stream benchmark, one pointer/dictionary
    // benchmark: together they exercise steering, bank prediction,
    // cross-cluster forwarding, and reconfiguration.
    const char *benchmarks[] = {"gzip", "swim", "parser"};

    std::vector<RunPoint> points;
    for (const char *b : benchmarks)
        appendCross(points, makeBenchmark(b), goldenVariants(),
                    goldenWarmup, goldenMeasure);
    return points;
}

std::string
goldenFileName()
{
    return "default.json";
}

std::string
goldenReportJson(const std::vector<RunPoint> &points,
                 const SweepResult &res)
{
    CSIM_ASSERT(points.size() == res.runs.size());

    JsonWriter w;
    w.beginObject();
    w.field("schema", "clustersim-golden-v1");
    w.field("run_points", static_cast<std::uint64_t>(points.size()));

    w.key("runs").beginArray();
    for (std::size_t i = 0; i < res.runs.size(); i++) {
        const SweepRun &run = res.runs[i];
        w.beginObject();
        w.field("index", static_cast<std::uint64_t>(i));
        w.field("benchmark", run.result.benchmark);
        w.field("config", run.result.config);
        w.field("seed", run.seed);
        w.field("warmup", points[i].warmup);
        w.field("measure", points[i].measure);
        w.key("metrics");
        toJson(w, run.result);
        w.endObject();
    }
    w.endArray();

    w.endObject();
    return w.str();
}

namespace {

std::string
render(const JsonValue &v)
{
    switch (v.kind()) {
      case JsonValue::Kind::Null:
        return "null";
      case JsonValue::Kind::Bool:
        return v.asBool() ? "true" : "false";
      case JsonValue::Kind::Number: {
        if (v.isIntegral())
            return std::to_string(v.asInt());
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v.asDouble());
        return buf;
      }
      case JsonValue::Kind::String:
        return "\"" + v.asString() + "\"";
      case JsonValue::Kind::Array:
        return "<array>";
      case JsonValue::Kind::Object:
        return "<object>";
    }
    return "?";
}

const char *
kindName(JsonValue::Kind k)
{
    switch (k) {
      case JsonValue::Kind::Null:   return "null";
      case JsonValue::Kind::Bool:   return "bool";
      case JsonValue::Kind::Number: return "number";
      case JsonValue::Kind::String: return "string";
      case JsonValue::Kind::Array:  return "array";
      case JsonValue::Kind::Object: return "object";
    }
    return "?";
}

void
diffValue(const std::string &path, const JsonValue &golden,
          const JsonValue &current, const GoldenTolerance &tol,
          std::vector<GoldenDiff> &out)
{
    if (golden.kind() != current.kind()) {
        out.push_back({path,
                       detail::concat("<", kindName(golden.kind()), "> ",
                                      render(golden)),
                       detail::concat("<", kindName(current.kind()),
                                      "> ", render(current))});
        return;
    }
    switch (golden.kind()) {
      case JsonValue::Kind::Null:
        return;
      case JsonValue::Kind::Bool:
        if (golden.asBool() != current.asBool())
            out.push_back({path, render(golden), render(current)});
        return;
      case JsonValue::Kind::Number: {
        // Counters must match exactly; rates within tolerance.
        if (golden.isIntegral() && current.isIntegral()) {
            if (golden.asInt() != current.asInt())
                out.push_back({path, render(golden), render(current)});
            return;
        }
        double a = golden.asDouble();
        double b = current.asDouble();
        double bound = tol.absTol +
            tol.relTol * std::max(std::abs(a), std::abs(b));
        if (std::abs(a - b) > bound)
            out.push_back({path, render(golden), render(current)});
        return;
      }
      case JsonValue::Kind::String:
        if (golden.asString() != current.asString())
            out.push_back({path, render(golden), render(current)});
        return;
      case JsonValue::Kind::Array: {
        const auto &ga = golden.asArray();
        const auto &ca = current.asArray();
        std::size_t n = std::min(ga.size(), ca.size());
        for (std::size_t i = 0; i < n; i++) {
            diffValue(detail::concat(path, "[", i, "]"), ga[i], ca[i],
                      tol, out);
        }
        for (std::size_t i = n; i < ga.size(); i++)
            out.push_back({detail::concat(path, "[", i, "]"),
                           render(ga[i]), "<missing>"});
        for (std::size_t i = n; i < ca.size(); i++)
            out.push_back({detail::concat(path, "[", i, "]"),
                           "<missing>", render(ca[i])});
        return;
      }
      case JsonValue::Kind::Object: {
        const auto &go = golden.asObject();
        const auto &co = current.asObject();
        for (const auto &[k, gv] : go) {
            std::string sub = path.empty() ? k : path + "." + k;
            auto it = co.find(k);
            if (it == co.end())
                out.push_back({sub, render(gv), "<missing>"});
            else
                diffValue(sub, gv, it->second, tol, out);
        }
        for (const auto &[k, cv] : co) {
            if (go.find(k) == go.end()) {
                std::string sub = path.empty() ? k : path + "." + k;
                out.push_back({sub, "<missing>", render(cv)});
            }
        }
        return;
      }
    }
}

} // namespace

std::vector<GoldenDiff>
diffGoldenReports(const JsonValue &golden, const JsonValue &current,
                  const GoldenTolerance &tol)
{
    std::vector<GoldenDiff> out;
    diffValue("", golden, current, tol, out);
    return out;
}

std::string
formatGoldenDiffs(const std::vector<GoldenDiff> &diffs)
{
    std::string s;
    for (const GoldenDiff &d : diffs) {
        s += d.path + ": golden=" + d.expected + " current=" + d.actual +
             "\n";
    }
    return s;
}

} // namespace clustersim
