/**
 * @file
 * Property tests for the structure-of-arrays VM table: on a mixed
 * IaaS/SaaS scenario, the hot arrays must stay exactly what a fresh
 * AoS-style scan of the cold records would produce (server map,
 * kind/active flags, engine mirrors, cached predicted peaks), in
 * both fidelity modes, at every point of the run — and the SoA
 * simulator must stay deterministic per seed.
 */

#include <gtest/gtest.h>

#include "sim/cluster.hh"
#include "sim/scenario.hh"

namespace tapas {
namespace {

class VmTableSoa : public ::testing::TestWithParam<int>
{
};

TEST_P(VmTableSoa, HotArraysMatchColdRecordsThroughoutTheRun)
{
    const int seed = GetParam();
    SimConfig cfg = smallTestScenario(
        static_cast<std::uint64_t>(seed));
    cfg.horizon = 8 * kHour;
    // Mixed fleet with churn: both kinds, placements, departures.
    cfg.vmTrace.saasFraction = 0.5;
    ClusterSim sim(seed % 2 == 0 ? cfg.asTapas()
                                 : cfg.asBaseline());

    while (!sim.finished()) {
        sim.runSteps(7);
        ASSERT_TRUE(sim.verifyVmTable());
    }

    // The run actually exercised a mixed population.
    const VmTable &vms = sim.vms();
    std::size_t saas = 0;
    std::size_t iaas = 0;
    for (std::size_t i = 0; i < vms.size(); ++i) {
        if (vms.isSaas(i))
            ++saas;
        if (vms.isIaas(i))
            ++iaas;
        if (vms.active(i)) {
            EXPECT_EQ(vms.record(i).id.index, i);
            EXPECT_EQ(vms.isSaas(i),
                      vms.record(i).kind == VmKind::SaaS);
            EXPECT_EQ(vms.engineAt(i) != nullptr, vms.isSaas(i));
        }
    }
    EXPECT_GT(saas, 0u);
    EXPECT_GT(iaas, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmTableSoa,
                         ::testing::Values(3, 4, 7, 10));

TEST(VmTableSoa2, RequestModeKeepsTableConsistent)
{
    SimConfig cfg = realClusterScenario(19).asTapas();
    cfg.horizon = 30 * kMinute;
    ClusterSim sim(cfg);
    while (!sim.finished()) {
        sim.runSteps(5);
        ASSERT_TRUE(sim.verifyVmTable());
    }
    EXPECT_GT(sim.metrics().requestsCompleted, 0u);
}

TEST(VmTableSoa2, DeterministicAcrossRuns)
{
    SimConfig cfg = smallTestScenario(31).asTapas();
    cfg.horizon = 6 * kHour;
    ClusterSim a(cfg);
    a.run();
    ClusterSim b(cfg);
    b.run();
    EXPECT_DOUBLE_EQ(a.metrics().totalTokens,
                     b.metrics().totalTokens);
    EXPECT_EQ(a.metrics().vmsPlaced, b.metrics().vmsPlaced);
    EXPECT_EQ(a.metrics().reconfigs, b.metrics().reconfigs);
    const VmTable &va = a.vms();
    const VmTable &vb = b.vms();
    ASSERT_EQ(va.size(), vb.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
        EXPECT_EQ(va.slot[i], vb.slot[i]);
        EXPECT_EQ(va.serverOf[i], vb.serverOf[i]);
        EXPECT_DOUBLE_EQ(va.load[i], vb.load[i]);
        EXPECT_DOUBLE_EQ(va.demandEmaTps[i], vb.demandEmaTps[i]);
    }
}

} // namespace
} // namespace tapas
