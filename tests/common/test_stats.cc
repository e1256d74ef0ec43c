/**
 * @file
 * Unit tests for statistics primitives.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.hh"

namespace tapas {
namespace {

TEST(StatAccumulator, EmptyDefaults)
{
    StatAccumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(StatAccumulator, BasicMoments)
{
    StatAccumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
    // Sample variance of this classic set is 32/7.
    EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
}

TEST(StatAccumulator, MergeMatchesCombinedStream)
{
    StatAccumulator a;
    StatAccumulator b;
    StatAccumulator all;
    for (int i = 0; i < 50; ++i) {
        const double v = std::sin(i) * 10.0;
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatAccumulator, MergeWithEmpty)
{
    StatAccumulator a;
    a.add(1.0);
    a.add(3.0);
    StatAccumulator empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);

    StatAccumulator target;
    target.merge(a);
    EXPECT_EQ(target.count(), 2u);
    EXPECT_DOUBLE_EQ(target.mean(), 2.0);
}

TEST(QuantileSample, MedianOfOddSample)
{
    QuantileSample q;
    for (double v : {5.0, 1.0, 3.0})
        q.add(v);
    EXPECT_DOUBLE_EQ(q.p50(), 3.0);
}

TEST(QuantileSample, InterpolatesBetweenRanks)
{
    QuantileSample q;
    for (double v : {0.0, 10.0})
        q.add(v);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.25), 2.5);
}

TEST(QuantileSample, ExtremesAreMinMax)
{
    QuantileSample q;
    for (int i = 100; i >= 1; --i)
        q.add(i);
    EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
}

TEST(QuantileSample, P99OfUniformRamp)
{
    QuantileSample q;
    for (int i = 0; i < 1000; ++i)
        q.add(i);
    EXPECT_NEAR(q.p99(), 989.0, 1.0);
}

TEST(QuantileSample, AddAfterQueryKeepsCorrectness)
{
    QuantileSample q;
    q.add(1.0);
    q.add(2.0);
    EXPECT_DOUBLE_EQ(q.p50(), 1.5);
    q.add(100.0);
    EXPECT_DOUBLE_EQ(q.p50(), 2.0);
}

TEST(QuantileSample, CdfEndpoints)
{
    QuantileSample q;
    for (int i = 1; i <= 10; ++i)
        q.add(i);
    const auto cdf = q.cdf(5);
    ASSERT_EQ(cdf.size(), 5u);
    EXPECT_DOUBLE_EQ(cdf.front().first, 1.0);
    EXPECT_DOUBLE_EQ(cdf.front().second, 0.0);
    EXPECT_DOUBLE_EQ(cdf.back().first, 10.0);
    EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(TimeSeries, MaxMinMean)
{
    TimeSeries ts;
    ts.add(0, 1.0);
    ts.add(60, 5.0);
    ts.add(120, 3.0);
    EXPECT_DOUBLE_EQ(ts.maxValue(), 5.0);
    EXPECT_DOUBLE_EQ(ts.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(ts.mean(), 3.0);
}

TEST(TimeSeries, FractionAbove)
{
    TimeSeries ts;
    for (int i = 0; i < 10; ++i)
        ts.add(i, i);
    EXPECT_DOUBLE_EQ(ts.fractionAbove(6.5), 0.3);
    EXPECT_DOUBLE_EQ(ts.fractionAbove(100.0), 0.0);
}

TEST(TimeSeries, DownsamplePreservesPeak)
{
    TimeSeries ts;
    for (int i = 0; i < 1000; ++i)
        ts.add(i, i == 567 ? 99.0 : 1.0);
    const TimeSeries down = ts.downsampleMax(10);
    EXPECT_LE(down.size(), 10u);
    EXPECT_DOUBLE_EQ(down.maxValue(), 99.0);
}

TEST(TimeSeries, DownsampleNoopWhenSmall)
{
    TimeSeries ts;
    ts.add(0, 1.0);
    ts.add(1, 2.0);
    const TimeSeries down = ts.downsampleMax(10);
    EXPECT_EQ(down.size(), 2u);
}

TEST(Autocorrelation, PeriodicSignalPeaksAtPeriod)
{
    std::vector<double> xs;
    const std::size_t period = 24;
    for (std::size_t i = 0; i < 24 * 20; ++i)
        xs.push_back(std::sin(2.0 * M_PI * i / period));
    EXPECT_GT(autocorrelation(xs, period), 0.9);
    EXPECT_LT(autocorrelation(xs, period / 2), -0.9);
}

TEST(Autocorrelation, ShortSequenceIsZero)
{
    std::vector<double> xs = {1.0};
    EXPECT_DOUBLE_EQ(autocorrelation(xs, 5), 0.0);
}

TEST(PearsonCorrelation, PerfectAndInverse)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearsonCorrelation(xs, ys), 1.0, 1e-12);
    std::vector<double> zs = {10, 8, 6, 4, 2};
    EXPECT_NEAR(pearsonCorrelation(xs, zs), -1.0, 1e-12);
}

TEST(PearsonCorrelation, ConstantSeriesIsZero)
{
    std::vector<double> xs = {1, 2, 3};
    std::vector<double> ys = {5, 5, 5};
    EXPECT_DOUBLE_EQ(pearsonCorrelation(xs, ys), 0.0);
}

} // namespace
} // namespace tapas
