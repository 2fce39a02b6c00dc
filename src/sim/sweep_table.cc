#include "sim/sweep_table.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace clustersim {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

/** Index of `v` in `xs`, appending it first when absent. */
std::size_t
indexOf(std::vector<std::string> &xs, const std::string &v)
{
    auto it = std::find(xs.begin(), xs.end(), v);
    if (it != xs.end())
        return static_cast<std::size_t>(it - xs.begin());
    xs.push_back(v);
    return xs.size() - 1;
}

/** Geomean over benchmarks of label `l`'s IPC over `ref`'s IPC
 *  (per-benchmark reference IPCs; benchmarks missing either skip). */
double
ratioGeomean(const SweepSection &s, std::size_t l,
             const std::vector<double> &ref)
{
    std::vector<double> ratios;
    for (std::size_t b = 0; b < s.benchmarks.size(); b++) {
        if (s.cells[b][l] && ref[b] > 0.0)
            ratios.push_back(s.cells[b][l]->ipc / ref[b]);
    }
    return geomean(ratios);
}

/** IPCs of label `l` per benchmark (0 where the cell is missing). */
std::vector<double>
column(const SweepSection &s, std::size_t l)
{
    std::vector<double> col;
    for (const auto &row : s.cells)
        col.push_back(row[l] ? row[l]->ipc : 0.0);
    return col;
}

/** Present IPCs of label `l`, for the AM/GM rows. */
std::vector<double>
presentIpcs(const SweepSection &s, std::size_t l)
{
    std::vector<double> col;
    for (const auto &row : s.cells) {
        if (row[l])
            col.push_back(row[l]->ipc);
    }
    return col;
}

/** The static label with the best geomean IPC, or npos. */
std::size_t
bestFixedStatic(const SweepSection &s)
{
    std::size_t best = npos;
    double best_gm = 0.0;
    for (std::size_t l = 0; l < s.labels.size(); l++) {
        if (!s.isStatic[l])
            continue;
        double gm = geomean(presentIpcs(s, l));
        if (best == npos || gm > best_gm) {
            best = l;
            best_gm = gm;
        }
    }
    return best;
}

std::string
range(std::uint64_t lo, std::uint64_t hi)
{
    return lo == hi ? std::to_string(lo)
                    : std::to_string(lo) + "-" + std::to_string(hi);
}

/** One metrics row over `runs`: means, and ranges for the counters. */
void
metricsRow(Table &t, const std::string &name,
           const std::vector<const SimResult *> &runs)
{
    std::vector<double> active, lat, ivl, miss;
    std::uint64_t rc_lo = ~0ULL, rc_hi = 0, wb_lo = ~0ULL, wb_hi = 0;
    for (const SimResult *r : runs) {
        active.push_back(r->avgActiveClusters);
        lat.push_back(r->avgRegCommLatency);
        ivl.push_back(r->mispredictInterval);
        miss.push_back(r->l1MissRate);
        rc_lo = std::min(rc_lo, r->reconfigurations);
        rc_hi = std::max(rc_hi, r->reconfigurations);
        wb_lo = std::min(wb_lo, r->flushWritebacks);
        wb_hi = std::max(wb_hi, r->flushWritebacks);
    }
    t.startRow();
    t.cell(name);
    t.cell(amean(active), 1);
    t.cell(amean(lat), 2);
    t.cell(range(rc_lo, rc_hi));
    t.cell(range(wb_lo, wb_hi));
    t.cell(amean(ivl), 0);
    t.cell(amean(miss), 3);
}

void
renderSection(std::string &out, const SweepSection &s)
{
    char line[160];
    const std::size_t n = s.labels.size();
    if (!s.name.empty())
        out += "== " + s.name + " ==\n";

    std::vector<std::string> headers = {"benchmark"};
    headers.insert(headers.end(), s.labels.begin(), s.labels.end());
    if (n > 1)
        headers.push_back("best");
    Table ipc(headers);
    auto bestOf = [&](const std::vector<double> &vals) {
        return s.labels[static_cast<std::size_t>(
            std::max_element(vals.begin(), vals.end()) - vals.begin())];
    };
    for (std::size_t b = 0; b < s.benchmarks.size(); b++) {
        ipc.startRow();
        ipc.cell(s.benchmarks[b]);
        std::vector<double> row;
        for (std::size_t l = 0; l < n; l++) {
            row.push_back(s.cells[b][l] ? s.cells[b][l]->ipc : 0.0);
            if (s.cells[b][l])
                ipc.cell(row.back(), 3);
            else
                ipc.cell("-");
        }
        if (n > 1)
            ipc.cell(bestOf(row));
    }
    for (bool geo : {false, true}) {
        std::vector<double> means;
        for (std::size_t l = 0; l < n; l++) {
            std::vector<double> col = presentIpcs(s, l);
            means.push_back(geo ? geomean(col) : amean(col));
        }
        ipc.startRow();
        ipc.cell(geo ? "GM" : "AM");
        for (double m : means)
            ipc.cell(m, 3);
        if (n > 1)
            ipc.cell(bestOf(means));
    }
    out += ipc.format() + "\n";

    if (n > 1) {
        out += "geomean IPC ratio over " + s.labels[0] + ":\n";
        std::vector<double> first = column(s, 0);
        for (std::size_t l = 1; l < n; l++) {
            std::snprintf(line, sizeof(line), "  %-24s %.3f\n",
                          s.labels[l].c_str(),
                          ratioGeomean(s, l, first));
            out += line;
        }
        out += "\n";
    }

    std::size_t fixed = bestFixedStatic(s);
    bool any_dynamic = std::find(s.isStatic.begin(), s.isStatic.end(),
                                 false) != s.isStatic.end();
    if (fixed != npos && any_dynamic) {
        out += "speedup over the best fixed static (" + s.labels[fixed] +
               ") / over the per-benchmark best static:\n";
        for (std::size_t l = 0; l < n; l++) {
            if (s.isStatic[l])
                continue;
            std::snprintf(line, sizeof(line), "  %-24s %.3f / %.3f\n",
                          s.labels[l].c_str(), speedupOverBestFixed(s, l),
                          speedupOverBest(s, l));
            out += line;
        }
        out += "\n";
    }

    Table metrics({n > 1 ? "label" : "benchmark", "active", "reg-lat",
                   "reconfigs", "flush-wb", "mispred-ivl", "L1-miss"});
    if (n > 1) {
        for (std::size_t l = 0; l < n; l++) {
            std::vector<const SimResult *> runs;
            for (const auto &row : s.cells) {
                if (row[l])
                    runs.push_back(row[l]);
            }
            metricsRow(metrics, s.labels[l], runs);
        }
    } else {
        for (std::size_t b = 0; b < s.benchmarks.size(); b++)
            metricsRow(metrics, s.benchmarks[b], {s.cells[b][0]});
    }
    out += metrics.format() + "\n";
}

} // namespace

std::vector<SweepSection>
sweepSections(const std::vector<RunPoint> &points, const SweepResult &res)
{
    std::vector<SweepSection> out;
    std::vector<std::string> names;
    CSIM_ASSERT(points.size() == res.runs.size());
    for (std::size_t i = 0; i < points.size(); i++) {
        const RunPoint &p = points[i];
        std::string label = !p.label.empty() ? p.label : p.cfg.name;
        std::size_t slash = label.find('/');
        std::string section =
            slash == std::string::npos ? "" : label.substr(0, slash);
        if (slash != std::string::npos)
            label = label.substr(slash + 1);

        std::size_t si = indexOf(names, section);
        if (si == out.size()) {
            out.emplace_back();
            out.back().name = section;
        }
        SweepSection &s = out[si];
        std::size_t l = indexOf(s.labels, label);
        if (l == s.isStatic.size()) {
            s.isStatic.push_back(!p.makeController);
            for (auto &row : s.cells)
                row.push_back(nullptr);
        }
        std::size_t b = indexOf(s.benchmarks, p.workload.name);
        if (b == s.cells.size())
            s.cells.emplace_back(s.labels.size(), nullptr);
        s.cells[b][l] = &res.runs[i].result;
    }
    return out;
}

double
speedupOverBestFixed(const SweepSection &s, std::size_t l)
{
    std::size_t fixed = bestFixedStatic(s);
    return fixed == npos ? 0.0 : ratioGeomean(s, l, column(s, fixed));
}

double
speedupOverBest(const SweepSection &s, std::size_t l)
{
    std::vector<double> best(s.benchmarks.size(), 0.0);
    for (std::size_t base = 0; base < s.labels.size(); base++) {
        if (!s.isStatic[base])
            continue;
        std::vector<double> col = column(s, base);
        for (std::size_t b = 0; b < best.size(); b++)
            best[b] = std::max(best[b], col[b]);
    }
    return ratioGeomean(s, l, best);
}

std::string
renderSweepTables(const std::vector<RunPoint> &points,
                  const SweepResult &res)
{
    std::string out;
    for (const SweepSection &s : sweepSections(points, res))
        renderSection(out, s);
    return out;
}

} // namespace clustersim
