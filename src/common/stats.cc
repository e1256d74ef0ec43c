#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace tapas {

void
StatAccumulator::add(double value)
{
    ++n;
    total += value;
    const double delta = value - mu;
    mu += delta / static_cast<double>(n);
    m2 += delta * (value - mu);
    lo = std::min(lo, value);
    hi = std::max(hi, value);
}

void
StatAccumulator::merge(const StatAccumulator &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    const double delta = other.mu - mu;
    const auto total_n = static_cast<double>(n + other.n);
    m2 += other.m2 +
        delta * delta * static_cast<double>(n) *
        static_cast<double>(other.n) / total_n;
    mu += delta * static_cast<double>(other.n) / total_n;
    total += other.total;
    lo = std::min(lo, other.lo);
    hi = std::max(hi, other.hi);
    n += other.n;
}

double
StatAccumulator::variance() const
{
    return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
}

double
StatAccumulator::stddev() const
{
    return std::sqrt(variance());
}

void
QuantileSample::add(double value)
{
    values.push_back(value);
    sorted = false;
}

void
QuantileSample::ensureSorted() const
{
    if (!sorted) {
        std::sort(values.begin(), values.end());
        sorted = true;
    }
}

double
QuantileSample::quantile(double q) const
{
    tapas_assert(!values.empty(), "quantile of empty sample");
    tapas_assert(q >= 0.0 && q <= 1.0, "quantile out of range: %f", q);
    ensureSorted();
    if (values.size() == 1)
        return values.front();
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto below = static_cast<std::size_t>(rank);
    if (below + 1 >= values.size())
        return values.back();
    const double frac = rank - static_cast<double>(below);
    return values[below] * (1.0 - frac) + values[below + 1] * frac;
}

double
QuantileSample::mean() const
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

std::vector<std::pair<double, double>>
QuantileSample::cdf(std::size_t points) const
{
    tapas_assert(points >= 2, "cdf needs at least two points");
    std::vector<std::pair<double, double>> out;
    if (values.empty())
        return out;
    ensureSorted();
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        const double q =
            static_cast<double>(i) / static_cast<double>(points - 1);
        out.emplace_back(quantile(q), q);
    }
    return out;
}

void
TimeSeries::add(SimTime t, double v)
{
    points.emplace_back(t, v);
}

double
TimeSeries::maxValue() const
{
    tapas_assert(!points.empty(), "max of empty series");
    double best = points.front().second;
    for (const auto &[t, v] : points)
        best = std::max(best, v);
    return best;
}

double
TimeSeries::minValue() const
{
    tapas_assert(!points.empty(), "min of empty series");
    double best = points.front().second;
    for (const auto &[t, v] : points)
        best = std::min(best, v);
    return best;
}

double
TimeSeries::mean() const
{
    if (points.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &[t, v] : points)
        sum += v;
    return sum / static_cast<double>(points.size());
}

double
TimeSeries::fractionAbove(double threshold) const
{
    if (points.empty())
        return 0.0;
    std::size_t above = 0;
    for (const auto &[t, v] : points) {
        if (v > threshold)
            ++above;
    }
    return static_cast<double>(above) /
        static_cast<double>(points.size());
}

TimeSeries
TimeSeries::downsampleMax(std::size_t max_points) const
{
    tapas_assert(max_points > 0, "cannot downsample to zero points");
    if (points.size() <= max_points)
        return *this;
    TimeSeries out;
    const std::size_t window =
        (points.size() + max_points - 1) / max_points;
    for (std::size_t i = 0; i < points.size(); i += window) {
        SimTime t = points[i].first;
        double v = points[i].second;
        for (std::size_t j = i; j < std::min(i + window, points.size());
             ++j) {
            if (points[j].second > v) {
                v = points[j].second;
                t = points[j].first;
            }
        }
        out.add(t, v);
    }
    return out;
}

double
autocorrelation(const std::vector<double> &xs, std::size_t lag)
{
    if (xs.size() <= lag + 1)
        return 0.0;
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= static_cast<double>(xs.size());
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double d = xs[i] - mean;
        den += d * d;
        if (i + lag < xs.size())
            num += d * (xs[i + lag] - mean);
    }
    return den > 0.0 ? num / den : 0.0;
}

double
pearsonCorrelation(const std::vector<double> &xs,
                   const std::vector<double> &ys)
{
    tapas_assert(xs.size() == ys.size(), "length mismatch");
    if (xs.size() < 2)
        return 0.0;
    double mx = 0.0;
    double my = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        mx += xs[i];
        my += ys[i];
    }
    mx /= static_cast<double>(xs.size());
    my /= static_cast<double>(ys.size());
    double sxy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    const double den = std::sqrt(sxx * syy);
    return den > 0.0 ? sxy / den : 0.0;
}

void
QuantileSample::checkpointState(Archive &ar)
{
    ar.podVector(values);
    ar.value(sorted);
}

void
TimeSeries::checkpointState(Archive &ar)
{
    ar.each(points, [](Archive &a,
                       std::pair<SimTime, double> &p) {
        a.value(p.first);
        a.value(p.second);
    });
}

} // namespace tapas
