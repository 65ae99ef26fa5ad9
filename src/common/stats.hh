/**
 * @file
 * Scalar statistics: a counter and a mean/min/max accumulator. Named
 * collections of them live in telemetry::MetricSheet.
 */

#ifndef MITHRIL_COMMON_STATS_HH
#define MITHRIL_COMMON_STATS_HH

#include <cstdint>

namespace mithril
{

/** A single named counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t delta = 1) { value_ += delta; }
    void set(std::uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Accumulates samples and reports their mean/min/max. */
class Average
{
  public:
    void sample(double v);
    void reset();

    /**
     * Fold another Average into this one, preserving count/sum/min/max
     * exactly. Merging the per-shard averages of a partitioned run in
     * any grouping yields the same result as sampling the union on one
     * instance; an empty side never contributes a spurious 0 to the
     * min/max.
     */
    void mergeFrom(const Average &other);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minValue() const { return count_ ? min_ : 0.0; }
    double maxValue() const { return count_ ? max_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace mithril

#endif // MITHRIL_COMMON_STATS_HH
