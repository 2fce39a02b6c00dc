/**
 * @file
 * Lightweight statistics primitives: counters, averages, and the
 * mean/rate helpers the report writers share.
 */

#ifndef CLUSTERSIM_COMMON_STATS_HH
#define CLUSTERSIM_COMMON_STATS_HH

#include <cstdint>
#include <vector>

namespace clustersim {

/** Simple accumulating counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

    // Checkpointed fields (see core/snapshot_io.hh). Templated on the
    // archive so this header stays dependency-free.
    template <class Self, class A>
    static bool
    io(Self &c, A &a)
    {
        a.field(c.value_);
        return a.ok();
    }

  private:
    std::uint64_t value_ = 0;
};

/** Running mean over samples (Welford-free: sum/count is sufficient). */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        count_++;
    }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Rate with a clamped denominator: count / max(seconds, min_seconds).
 * Guards wall-clock divisions in the benchmarking tools: a very fast
 * run can measure ~0 seconds, and a plain division then yields inf,
 * which the JSON writer spells as null and downstream baseline readers
 * misparse. The clamp turns that into a huge-but-finite rate.
 */
inline double
safeRate(double count, double seconds, double min_seconds = 1e-9)
{
    return count / (seconds > min_seconds ? seconds : min_seconds);
}

/** Geometric mean of a vector of positive values (0 on empty input). */
double geomean(const std::vector<double> &values);

/** Arithmetic mean (0 on empty input). */
double amean(const std::vector<double> &values);

} // namespace clustersim

#endif // CLUSTERSIM_COMMON_STATS_HH
