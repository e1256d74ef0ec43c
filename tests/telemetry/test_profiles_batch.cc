/**
 * @file
 * Batched-vs-scalar predictor equivalence for every fitted model in
 * the ProfileBank. The batched passes are the only call path the
 * risk/allocator/configurator hot loops may use, so they must be
 * bit-identical to the scalar predict* calls they replace (the
 * batch bodies evaluate the exact same expression per element —
 * EXPECT_EQ on doubles below means bitwise equality, not a
 * tolerance).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "dcsim/layout.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"
#include "telemetry/profiles.hh"

namespace tapas {
namespace {

class ProfileBatchTest : public ::testing::Test
{
  protected:
    ProfileBatchTest()
        : dc(makeLayout()), thermal(dc, ThermalConfig{}, 91),
          powerModel(PowerConfig{}), bank(dc)
    {
        bank.offlineProfile(thermal, powerModel, 17);
    }

    static LayoutConfig
    makeLayout()
    {
        LayoutConfig cfg;
        cfg.aisleCount = 2;
        cfg.rowsPerAisle = 2;
        cfg.racksPerRow = 3;
        cfg.serversPerRack = 4;
        return cfg;
    }

    DatacenterLayout dc;
    ThermalModel thermal;
    PowerModel powerModel;
    ProfileBank bank;
};

TEST_F(ProfileBatchTest, InletBatchMatchesScalar)
{
    const std::size_t n = dc.serverCount();
    std::vector<double> out(n);
    // Cover both hinge knots (15 C and 25 C) and beyond.
    for (double outside : {5.0, 15.0, 20.0, 25.0, 34.0, 40.0}) {
        for (double dc_load : {0.0, 0.5, 1.0}) {
            bank.predictInletBatch(outside, dc_load, n, out.data());
            for (std::size_t s = 0; s < n; ++s) {
                EXPECT_EQ(out[s],
                          bank.predictInletC(
                              ServerId(static_cast<std::uint32_t>(s)),
                              outside, dc_load));
            }
        }
    }
}

TEST_F(ProfileBatchTest, PowerBatchesMatchScalar)
{
    const std::size_t n = dc.serverCount();
    Rng rng(5);
    std::vector<double> loads(n);
    for (double &l : loads)
        l = rng.uniform(-0.2, 1.3); // exercises the clamp too
    std::vector<double> out(n);
    bank.predictPowerBatch(loads.data(), n, out.data());
    for (std::size_t s = 0; s < n; ++s) {
        EXPECT_EQ(out[s],
                  bank.predictServerPowerW(
                      ServerId(static_cast<std::uint32_t>(s)),
                      loads[s]));
    }

    bank.predictPowerUniformBatch(0.45, n, out.data());
    for (std::size_t s = 0; s < n; ++s) {
        EXPECT_EQ(out[s],
                  bank.predictServerPowerW(
                      ServerId(static_cast<std::uint32_t>(s)),
                      0.45));
    }
}

TEST_F(ProfileBatchTest, AirflowBatchesMatchScalar)
{
    const std::size_t n = dc.serverCount();
    Rng rng(6);
    std::vector<double> loads(n);
    for (double &l : loads)
        l = rng.uniform(-0.2, 1.3);
    std::vector<double> out(n);
    bank.predictAirflowBatch(loads.data(), n, out.data());
    for (std::size_t s = 0; s < n; ++s) {
        EXPECT_EQ(out[s],
                  bank.predictServerAirflowCfm(
                      ServerId(static_cast<std::uint32_t>(s)),
                      loads[s]));
    }

    bank.predictAirflowUniformBatch(0.0, n, out.data());
    for (std::size_t s = 0; s < n; ++s) {
        EXPECT_EQ(out[s],
                  bank.predictServerAirflowCfm(
                      ServerId(static_cast<std::uint32_t>(s)), 0.0));
    }
}

TEST_F(ProfileBatchTest, GatherVariantsMatchScalar)
{
    // An arbitrary non-contiguous, unordered server subset.
    const std::vector<ServerId> ids = {ServerId(7), ServerId(0),
                                       ServerId(23), ServerId(11),
                                       ServerId(47)};
    const std::vector<double> loads = {0.9, 0.0, 0.33, 1.0, 0.61};
    std::vector<double> out(ids.size());
    bank.predictPowerGather(ids.data(), loads.data(), ids.size(),
                            out.data());
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(out[i],
                  bank.predictServerPowerW(ids[i], loads[i]));

    bank.predictAirflowGather(ids.data(), loads.data(), ids.size(),
                              out.data());
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(out[i],
                  bank.predictServerAirflowCfm(ids[i], loads[i]));

    // One shared load (placement what-ifs), clamped like the scalar.
    for (double load : {-0.2, 0.0, 0.45, 1.0, 1.3}) {
        bank.predictPowerUniformGather(load, ids.data(), ids.size(),
                                       out.data());
        for (std::size_t i = 0; i < ids.size(); ++i)
            EXPECT_EQ(out[i], bank.predictServerPowerW(ids[i], load));
        bank.predictAirflowUniformGather(load, ids.data(), ids.size(),
                                         out.data());
        for (std::size_t i = 0; i < ids.size(); ++i)
            EXPECT_EQ(out[i],
                      bank.predictServerAirflowCfm(ids[i], load));
    }
}

TEST_F(ProfileBatchTest, HottestGpuBatchesMatchScalar)
{
    const std::size_t n = dc.serverCount();
    const std::size_t gpus = static_cast<std::size_t>(
        dc.specs().front().gpusPerServer);
    Rng rng(7);

    std::vector<double> inlet(n);
    for (double &v : inlet)
        v = rng.uniform(18.0, 38.0);

    // Measured per-GPU powers (risk-refresh shape).
    std::vector<double> gpu_w(n * gpus);
    for (double &v : gpu_w)
        v = rng.uniform(60.0, 420.0);
    std::vector<double> out(n);
    bank.predictHottestGpuBatch(inlet.data(), gpu_w.data(), n,
                                out.data());
    for (std::size_t s = 0; s < n; ++s) {
        EXPECT_EQ(out[s],
                  bank.predictHottestGpuC(
                      ServerId(static_cast<std::uint32_t>(s)),
                      inlet[s], &gpu_w[s * gpus]));
    }

    // One per-GPU power per server over an unordered subset of odd
    // length (placement-projection shape: paired and tail servers).
    const std::vector<ServerId> ids = {ServerId(7), ServerId(0),
                                       ServerId(23), ServerId(11),
                                       ServerId(47)};
    std::vector<double> per_gpu(ids.size());
    for (double &v : per_gpu)
        v = rng.uniform(60.0, 420.0);
    bank.predictHottestGpuGather(ids.data(), inlet.data(),
                                 per_gpu.data(), ids.size(), out.data());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(out[i], bank.predictHottestGpuC(ids[i], inlet[i],
                                                  per_gpu[i]));
    }
}

TEST_F(ProfileBatchTest, CandidateBatchesMatchScalar)
{
    // One server's model streamed over many candidate operating
    // points (the configurator's scoring shape).
    const ServerId server(13);
    Rng rng(8);
    std::vector<double> powers(32);
    std::vector<double> heats(32);
    for (std::size_t i = 0; i < powers.size(); ++i) {
        powers[i] = rng.uniform(60.0, 420.0);
        heats[i] = rng.uniform(-0.1, 1.2);
    }
    std::vector<double> out(powers.size());
    bank.predictHottestGpuCandidates(server, 27.5, powers.data(),
                                     powers.size(), out.data());
    for (std::size_t i = 0; i < powers.size(); ++i) {
        EXPECT_EQ(out[i],
                  bank.predictHottestGpuC(server, 27.5, powers[i]));
    }

    bank.predictAirflowCandidates(server, heats.data(), heats.size(),
                                  out.data());
    for (std::size_t i = 0; i < heats.size(); ++i) {
        EXPECT_EQ(out[i],
                  bank.predictServerAirflowCfm(server, heats[i]));
    }
}

TEST_F(ProfileBatchTest, BatchesCoverNewlyProfiledServers)
{
    // Servers profiled after construction (oversubscription racks)
    // must be reachable by the batches too.
    const std::size_t before = dc.serverCount();
    dc.addRack(RowId(0));
    thermal.extend();
    bank.profileNewServers(thermal, powerModel, 21);
    const std::size_t after = dc.serverCount();
    ASSERT_GT(after, before);

    std::vector<double> out(after);
    bank.predictInletBatch(30.0, 0.8, after, out.data());
    for (std::size_t s = 0; s < after; ++s) {
        EXPECT_EQ(out[s],
                  bank.predictInletC(
                      ServerId(static_cast<std::uint32_t>(s)), 30.0,
                      0.8));
    }
}

} // namespace
} // namespace tapas
