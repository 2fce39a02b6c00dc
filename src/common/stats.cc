#include "common/stats.hh"

#include <cmath>

namespace clustersim {

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            return 0.0;
        acc += std::log(v);
    }
    return std::exp(acc / values.size());
}

double
amean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += v;
    return acc / values.size();
}

} // namespace clustersim
