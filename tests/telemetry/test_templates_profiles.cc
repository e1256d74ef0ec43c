/**
 * @file
 * Unit tests for the telemetry store, power templates (Fig. 14
 * machinery), and the fitted ProfileBank (paper's MAE < 1C claim).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "dcsim/layout.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"
#include "telemetry/history.hh"
#include "telemetry/profiles.hh"
#include "telemetry/templates.hh"

namespace tapas {
namespace {

TEST(TelemetryStore, RecordAndQuery)
{
    TelemetryStore store;
    store.recordRowPower(RowId(0), 0, 100.0);
    store.recordRowPower(RowId(0), kHour, 200.0);
    store.recordRowPower(RowId(1), 0, 50.0);
    EXPECT_EQ(store.rowPowerSeries(RowId(0)).size(), 2u);
    EXPECT_EQ(store.rowPowerSeries(RowId(1)).size(), 1u);
    EXPECT_TRUE(store.rowPowerSeries(RowId(9)).empty());
    EXPECT_EQ(store.rowsWithData().size(), 2u);
}

TEST(TelemetryStore, LoadDigestTracksSpanAndPeak)
{
    TelemetryStore store;
    EXPECT_DOUBLE_EQ(store.customerPredictedPeak(CustomerId(3), 0),
                     1.0);
    store.recordVmLoad(VmId(0), CustomerId(3), EndpointId(), 0, 0.4);
    store.recordVmLoad(VmId(0), CustomerId(3), EndpointId(),
                       2 * kDay, 0.8);
    // Two days of history: the running peak once the span gate is
    // met, the conservative 1.0 while it is not.
    EXPECT_DOUBLE_EQ(
        store.customerPredictedPeak(CustomerId(3), 2 * kDay), 0.8);
    EXPECT_DOUBLE_EQ(
        store.customerPredictedPeak(CustomerId(3), 2 * kDay + 1), 1.0);
    // A lower slot materialized by id 3 but never recorded is absent.
    EXPECT_DOUBLE_EQ(store.customerPredictedPeak(CustomerId(1), 0),
                     1.0);
    // Endpoint side untouched.
    EXPECT_DOUBLE_EQ(store.endpointPredictedPeak(EndpointId(0), 0),
                     1.0);
}

TEST(PowerTemplates, HourOfWeekPrediction)
{
    // Two weeks of a deterministic diurnal signal; the template
    // learned from it must reproduce the hour-of-week pattern.
    TelemetryStore store;
    auto signal = [](SimTime t) {
        const double hour = static_cast<double>(t % kDay) / kHour;
        return 1000.0 + 500.0 * std::sin(2.0 * M_PI * hour / 24.0);
    };
    for (SimTime t = 0; t < 2 * kWeek; t += 10 * kMinute)
        store.recordRowPower(RowId(0), t, signal(t));

    const PowerTemplates templates =
        PowerTemplates::build(store, TemplateQuantiles{});
    ASSERT_TRUE(templates.hasRow(RowId(0)));
    for (SimTime t = 2 * kWeek; t < 2 * kWeek + kDay; t += kHour) {
        const double predicted = templates.predictRow(
            RowId(0), t, PowerTemplates::Level::P50);
        EXPECT_NEAR(predicted, signal(t), 60.0);
    }
}

TEST(PowerTemplates, QuantileOrdering)
{
    TelemetryStore store;
    Rng rng(12);
    for (SimTime t = 0; t < kWeek; t += 10 * kMinute) {
        store.recordRowPower(RowId(0), t,
                             1000.0 + rng.gaussian(0.0, 100.0));
    }
    const PowerTemplates templates =
        PowerTemplates::build(store, TemplateQuantiles{});
    const double p50 = templates.predictRow(
        RowId(0), kHour, PowerTemplates::Level::P50);
    const double p90 = templates.predictRow(
        RowId(0), kHour, PowerTemplates::Level::P90);
    const double p99 = templates.predictRow(
        RowId(0), kHour, PowerTemplates::Level::P99);
    EXPECT_LT(p50, p90);
    EXPECT_LE(p90, p99);
}

TEST(PowerTemplates, P99OverpredictsMostHours)
{
    // The conservative-template property the paper relies on: P99
    // templates rarely underpredict (Fig. 14a: < 4% of row-hours).
    TelemetryStore store;
    Rng rng(13);
    auto signal = [&](SimTime t) {
        const double hour = static_cast<double>(t % kDay) / kHour;
        return 1000.0 + 300.0 * std::sin(2.0 * M_PI * hour / 24.0) +
            rng.gaussian(0.0, 50.0);
    };
    for (SimTime t = 0; t < 8 * kWeek; t += 10 * kMinute)
        store.recordRowPower(RowId(0), t, signal(t));
    const PowerTemplates templates =
        PowerTemplates::build(store, TemplateQuantiles{});

    int under = 0;
    int total = 0;
    for (SimTime t = 8 * kWeek; t < 9 * kWeek; t += kHour) {
        const double predicted = templates.predictRow(
            RowId(0), t, PowerTemplates::Level::P99);
        const double actual = signal(t);
        if (actual > predicted)
            ++under;
        ++total;
    }
    // Paper reports < 4% on production-scale history; our synthetic
    // buckets hold ~48 samples, so allow modest estimator noise.
    EXPECT_LT(static_cast<double>(under) / total, 0.08);
}

TEST(PowerTemplates, CustomerTemplatesUseHourOfDay)
{
    TelemetryStore store;
    for (int day = 0; day < 7; ++day) {
        for (int h = 0; h < 24; ++h) {
            store.recordCustomerVmPower(
                CustomerId(2), day * kDay + h * kHour,
                h < 12 ? 100.0 : 300.0);
        }
    }
    const PowerTemplates templates =
        PowerTemplates::build(store, TemplateQuantiles{});
    EXPECT_NEAR(templates.predictCustomerVm(
                    CustomerId(2), 6 * kHour,
                    PowerTemplates::Level::P50),
                100.0, 1.0);
    EXPECT_NEAR(templates.predictCustomerVm(
                    CustomerId(2), 18 * kHour,
                    PowerTemplates::Level::P50),
                300.0, 1.0);
}

TEST(PowerTemplates, RowTemplatePeak)
{
    TelemetryStore store;
    for (SimTime t = 0; t < 2 * kWeek; t += 10 * kMinute) {
        const bool spike_hour = (t / kHour) % 168 == 3;
        store.recordRowPower(RowId(0), t,
                             spike_hour ? 999.0 : 100.0);
    }
    const PowerTemplates templates =
        PowerTemplates::build(store, TemplateQuantiles{});
    EXPECT_NEAR(templates.rowTemplatePeak(RowId(0)), 999.0, 1.0);
}

class ProfileBankTest : public ::testing::Test
{
  protected:
    ProfileBankTest()
        : dc(makeConfig()), thermal(dc, ThermalConfig{}, 21),
          power(PowerConfig{}), bank(dc)
    {
        bank.offlineProfile(thermal, power, 99);
    }

    static LayoutConfig
    makeConfig()
    {
        LayoutConfig cfg;
        cfg.aisleCount = 2;
        cfg.rowsPerAisle = 2;
        cfg.racksPerRow = 4;
        cfg.serversPerRack = 3;
        return cfg;
    }

    DatacenterLayout dc;
    ThermalModel thermal;
    PowerModel power;
    ProfileBank bank;
};

TEST_F(ProfileBankTest, InletFitWithinOneDegree)
{
    // The paper's bar: piecewise polynomial fits inlet with MAE < 1C.
    std::vector<double> truth;
    std::vector<double> pred;
    for (const Server &server : dc.servers()) {
        for (double outside : {8.0, 14.0, 19.0, 23.0, 27.0, 33.0}) {
            for (double load : {0.3, 0.6, 0.9}) {
                truth.push_back(
                    thermal
                        .inletTemperature(server.id,
                                          Celsius(outside), load, 0.0)
                        .value());
                pred.push_back(bank.predictInletC(server.id, outside,
                                                  load));
            }
        }
    }
    EXPECT_LT(meanAbsoluteError(truth, pred), 1.0);
}

TEST_F(ProfileBankTest, GpuTempFitWithinOneDegree)
{
    std::vector<double> truth;
    std::vector<double> pred;
    for (const Server &server : dc.servers()) {
        for (int g = 0; g < 8; ++g) {
            for (double inlet : {20.0, 25.0, 29.0}) {
                for (double watts : {100.0, 300.0, 390.0}) {
                    truth.push_back(
                        thermal
                            .gpuTemperature(server.id, g,
                                            Celsius(inlet),
                                            Watts(watts))
                            .value());
                    pred.push_back(bank.predictGpuTempC(
                        server.id, g, inlet, watts));
                }
            }
        }
    }
    EXPECT_LT(meanAbsoluteError(truth, pred), 1.0);
}

TEST_F(ProfileBankTest, HottestGpuDominatesIndividuals)
{
    const ServerId sid(0);
    const double hottest =
        bank.predictHottestGpuC(sid, 25.0, 350.0);
    for (int g = 0; g < 8; ++g)
        EXPECT_GE(hottest, bank.predictGpuTempC(sid, g, 25.0, 350.0));
}

TEST_F(ProfileBankTest, PowerFitTracksGroundTruth)
{
    const ServerSpec &spec = dc.specOf(ServerId(0));
    for (double load : {0.1, 0.4, 0.7, 0.95}) {
        const double truth =
            power.serverPowerAtLoad(spec, load).value();
        const double pred =
            bank.predictServerPowerW(ServerId(0), load);
        EXPECT_NEAR(pred / truth, 1.0, 0.03);
    }
}

TEST_F(ProfileBankTest, AirflowFitTracksGroundTruth)
{
    for (double load : {0.2, 0.5, 0.8}) {
        const double truth =
            thermal.serverAirflow(ServerId(3), load).value();
        const double pred =
            bank.predictServerAirflowCfm(ServerId(3), load);
        EXPECT_NEAR(pred / truth, 1.0, 0.03);
    }
}

TEST_F(ProfileBankTest, ThermalClassesAreTerciles)
{
    int cold = 0;
    int medium = 0;
    int warm = 0;
    for (const Server &server : dc.servers()) {
        switch (bank.thermalClass(server.id)) {
          case ThermalClass::Cold:
            ++cold;
            break;
          case ThermalClass::Medium:
            ++medium;
            break;
          case ThermalClass::Warm:
            ++warm;
            break;
        }
    }
    const int n = static_cast<int>(dc.serverCount());
    EXPECT_EQ(cold, n / 3);
    EXPECT_EQ(warm, n / 3);
    EXPECT_EQ(cold + medium + warm, n);
}

TEST_F(ProfileBankTest, ClassesTrackTrueSpatialOffsets)
{
    // Servers classified Warm must have genuinely higher ground-truth
    // offsets than Cold ones, on average.
    double cold_sum = 0.0;
    double warm_sum = 0.0;
    int cold_n = 0;
    int warm_n = 0;
    for (const Server &server : dc.servers()) {
        const double truth = thermal.spatialOffset(server.id);
        if (bank.thermalClass(server.id) == ThermalClass::Cold) {
            cold_sum += truth;
            ++cold_n;
        } else if (bank.thermalClass(server.id) ==
                   ThermalClass::Warm) {
            warm_sum += truth;
            ++warm_n;
        }
    }
    ASSERT_GT(cold_n, 0);
    ASSERT_GT(warm_n, 0);
    EXPECT_GT(warm_sum / warm_n, cold_sum / cold_n + 0.5);
}

TEST_F(ProfileBankTest, ProfileNewServersAfterOversubscription)
{
    const std::size_t before = bank.profiledServerCount();
    dc.addRack(RowId(0));
    // Mirror the production oversubscription sequence (sim/cluster.cc):
    // the thermal model must materialize the new servers before anyone
    // profiles against it, or its per-server offset reads run past the
    // arrays sized at construction.
    thermal.extend();
    bank.profileNewServers(thermal, power, 123);
    EXPECT_EQ(bank.profiledServerCount(), before + 3);
    // New server predictions work.
    const ServerId fresh(static_cast<std::uint32_t>(before));
    EXPECT_GT(bank.predictInletC(fresh, 25.0, 0.5), 15.0);
}

TEST_F(ProfileBankTest, UnprofiledServerPanics)
{
    dc.addRack(RowId(0));
    const ServerId fresh(
        static_cast<std::uint32_t>(dc.serverCount() - 1));
    EXPECT_DEATH(bank.predictInletC(fresh, 25.0, 0.5),
                 "not profiled");
}

} // namespace
} // namespace tapas
