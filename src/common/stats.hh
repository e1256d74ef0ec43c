/**
 * @file
 * Statistics primitives used by the simulator, telemetry stack, and
 * benchmark harnesses: streaming accumulators, exact quantile samples
 * and CDFs, and timestamped series.
 */

#ifndef TAPAS_COMMON_STATS_HH
#define TAPAS_COMMON_STATS_HH

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace tapas {

class Archive;

/** Streaming count/mean/variance/min/max accumulator (Welford). */
class StatAccumulator
{
  public:
    void add(double value);
    void merge(const StatAccumulator &other);

    std::size_t count() const { return n; }
    double mean() const { return n ? mu : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }
    double sum() const { return total; }

  private:
    std::size_t n = 0;
    double mu = 0.0;
    double m2 = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    double total = 0.0;
};

/**
 * Exact quantile tracker. Stores every sample; queries sort lazily.
 * Appropriate for the sample counts in this library (≤ tens of
 * millions); memory grows with the sample count, so it is not meant
 * for unbounded streams.
 */
class QuantileSample
{
  public:
    void add(double value);
    void reserve(std::size_t n) { values.reserve(n); }

    std::size_t count() const { return values.size(); }

    /** Quantile q in [0, 1]; linear interpolation between ranks. */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p99() const { return quantile(0.99); }
    double max() const { return quantile(1.0); }
    double mean() const;

    /**
     * Empirical CDF with the given number of evenly spaced points,
     * returned as (value, cumulative_fraction) pairs.
     */
    std::vector<std::pair<double, double>> cdf(std::size_t points) const;

    const std::vector<double> &raw() const { return values; }

    /**
     * Serialize/restore samples in insertion-buffer order plus the
     * lazy-sort flag, so a restored tracker sorts at exactly the
     * same future points as the original (bit-exact resume).
     */
    void checkpointState(Archive &ar);

  private:
    void ensureSorted() const;

    mutable std::vector<double> values;
    mutable bool sorted = true;
};

/** A (time, value) series, e.g. per-step peak row power. */
class TimeSeries
{
  public:
    void add(SimTime t, double v);
    void reserve(std::size_t n) { points.reserve(n); }

    std::size_t size() const { return points.size(); }
    bool empty() const { return points.empty(); }

    SimTime timeAt(std::size_t i) const { return points[i].first; }
    double valueAt(std::size_t i) const { return points[i].second; }

    double maxValue() const;
    double minValue() const;
    double mean() const;

    /**
     * Fraction of points whose value satisfies pred-style threshold:
     * value > threshold.
     */
    double fractionAbove(double threshold) const;

    /**
     * Downsample to at most max_points by max-pooling within windows;
     * preserves peaks, which is what the thermal/power plots need.
     */
    TimeSeries downsampleMax(std::size_t max_points) const;

    const std::vector<std::pair<SimTime, double>> &raw() const
    { return points; }

    /** Serialize/restore all points (checkpointing). */
    void checkpointState(Archive &ar);

  private:
    std::vector<std::pair<SimTime, double>> points;
};

/**
 * Lag-k autocorrelation of a sequence. Used by workload tests to
 * verify diurnal periodicity of generated traces.
 */
double autocorrelation(const std::vector<double> &xs, std::size_t lag);

/** Pearson correlation of two equal-length sequences. */
double pearsonCorrelation(const std::vector<double> &xs,
                          const std::vector<double> &ys);

} // namespace tapas

#endif // TAPAS_COMMON_STATS_HH
