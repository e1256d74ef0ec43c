/**
 * @file
 * Property tests for the simulator's incrementally maintained VM
 * membership: under random place/depart/migrate churn, the SoA VM
 * table, the active-VM list and the server->VM map must stay
 * identical to a fresh scan — in both fidelity modes, with migration
 * on and off, at every point of the run. (Routing candidates need no
 * such check: each step derives them from the VM table.)
 */

#include <gtest/gtest.h>

#include "sim/cluster.hh"
#include "sim/scenario.hh"

namespace tapas {
namespace {

void
expectConsistent(const ClusterSim &sim)
{
    ASSERT_TRUE(sim.verifyVmTable());
}

class MembershipChurn : public ::testing::TestWithParam<int>
{
};

TEST_P(MembershipChurn, MatchesFreshScanUnderChurn)
{
    const int seed = GetParam();
    SimConfig cfg = smallTestScenario(
        static_cast<std::uint64_t>(seed));
    cfg.horizon = 8 * kHour;
    cfg.vmTrace.saasFraction = 0.5;
    if (seed % 3 == 0) {
        // Exercise the migration planner's moves as well.
        cfg.policy.migrationEnabled = true;
        cfg.policy.migrationPeriod = kHour;
    }
    ClusterSim sim(seed % 2 == 0 ? cfg.asTapas()
                                 : cfg.asBaseline());

    expectConsistent(sim);
    while (!sim.finished()) {
        sim.runSteps(5);
        expectConsistent(sim);
    }
    EXPECT_GT(sim.metrics().vmsPlaced, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MembershipChurn,
                         ::testing::Values(2, 3, 5, 9, 12));

TEST(MembershipChurnModes, RequestModeStaysConsistent)
{
    SimConfig cfg = realClusterScenario(23).asTapas();
    cfg.horizon = 30 * kMinute;
    ClusterSim sim(cfg);
    while (!sim.finished()) {
        sim.runSteps(3);
        expectConsistent(sim);
    }
}

TEST(MembershipChurnModes, OversubscribedLayoutStaysConsistent)
{
    // Oversubscription racks are appended after plant provisioning;
    // the server->VM map must cover them from construction on.
    SimConfig cfg = smallTestScenario(37).asTapas();
    cfg.horizon = 6 * kHour;
    cfg.oversubscriptionPct = 25;
    ClusterSim sim(cfg);
    expectConsistent(sim);
    while (!sim.finished()) {
        sim.runSteps(7);
        expectConsistent(sim);
    }
}

} // namespace
} // namespace tapas
