/**
 * @file
 * Reference report for sweep-executor tests: every point simulated on
 * its own through runSimulation(), with the label and seed planPoints()
 * assigns. Whatever grouping, replay, snapshot restore or warm start
 * runSweep() applies must reproduce these bytes.
 */

#ifndef CLUSTERSIM_TESTS_SWEEP_REFERENCE_HH
#define CLUSTERSIM_TESTS_SWEEP_REFERENCE_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/plan.hh"
#include "sim/sweep.hh"

namespace clustersim {

inline std::string
perPointReport(const std::string &name, const std::vector<RunPoint> &points)
{
    std::vector<PlannedPoint> plan = planPoints(points, /*derive_seeds=*/true);
    SweepResult ref;
    ref.runs.resize(points.size());
    for (std::size_t i = 0; i < points.size(); i++) {
        const RunPoint &p = points[i];
        WorkloadSpec w = p.workload;
        w.seed = plan[i].seed;
        std::unique_ptr<ReconfigController> ctrl;
        if (p.makeController)
            ctrl = p.makeController();
        SimResult r = runSimulation(p.cfg, w, ctrl.get(), p.warmup,
                                    p.measure);
        r.config = plan[i].label;
        ref.runs[i].result = std::move(r);
        ref.runs[i].seed = plan[i].seed;
    }
    return sweepReportJson(name, points, ref, false);
}

} // namespace clustersim

#endif // CLUSTERSIM_TESTS_SWEEP_REFERENCE_HH
