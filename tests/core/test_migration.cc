/**
 * @file
 * Unit tests for the SaaS migration planner (Section 4.1).
 */

#include "fixture.hh"

#include "core/migration.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"

namespace tapas {
namespace {

class MigrationTest : public CoreFixture
{
  protected:
    MigrationPlanner planner{TapasPolicyConfig{}};
};

TEST_F(MigrationTest, EmptyClusterPlansNothing)
{
    EXPECT_TRUE(planner.plan(view, 3).empty());
}

TEST_F(MigrationTest, RelievesTheHottestRow)
{
    // Pack row 0 with high-peak VMs (half SaaS) while other rows
    // stay empty: the planner must move SaaS VMs out of row 0.
    const Row &row = dc.row(RowId(0));
    for (std::size_t i = 0; i < row.servers.size(); ++i) {
        occupy(row.servers[i],
               i % 2 == 0 ? VmKind::SaaS : VmKind::IaaS, 0.95, 0.8);
    }
    const auto plans = planner.plan(view, 2);
    ASSERT_FALSE(plans.empty());
    for (const MigrationPlan &plan : plans) {
        EXPECT_EQ(dc.server(plan.from).row, RowId(0));
        EXPECT_NE(dc.server(plan.to).row, RowId(0));
        EXPECT_LT(plan.donorRowAfterW, plan.donorRowPeakW);
    }
}

TEST_F(MigrationTest, NeverMovesIaas)
{
    // Row 0 all-IaaS: nothing is movable.
    for (ServerId sid : dc.row(RowId(0)).servers)
        occupy(sid, VmKind::IaaS, 1.0, 0.9);
    EXPECT_TRUE(planner.plan(view, 3).empty());
}

TEST_F(MigrationTest, PlansLeaveTheCallersTablesUntouched)
{
    // What-ifs run on the planner's own copy of the server map: the
    // caller's tables are unchanged, so every plan reads against
    // them (the simulator applies the plans itself).
    const Row &row = dc.row(RowId(0));
    for (ServerId sid : row.servers)
        occupy(sid, VmKind::SaaS, 0.95, 0.8);
    const std::vector<double> loads_before = serverLoads;
    const std::vector<std::uint32_t> server_vm_before = serverVm;
    const std::vector<VmSlot> slots_before = vmSlot;
    const std::vector<double> peaks_before = vmPeakLoad;
    const auto plans = planner.plan(view, 2);
    ASSERT_FALSE(plans.empty());
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const MigrationPlan &plan = plans[i];
        EXPECT_EQ(view.serverVm[plan.from.index], plan.vm.index);
        EXPECT_FALSE(view.occupied(plan.to.index));
        for (std::size_t j = i + 1; j < plans.size(); ++j) {
            EXPECT_NE(plans[j].vm, plan.vm);
            EXPECT_NE(plans[j].to, plan.to);
        }
    }
    EXPECT_EQ(serverLoads, loads_before);
    EXPECT_EQ(serverVm, server_vm_before);
    EXPECT_EQ(vmSlot, slots_before);
    EXPECT_EQ(vmPeakLoad, peaks_before);
}

TEST_F(MigrationTest, EqualPeaksMoveTheLowestVmIdFirst)
{
    // Row 0 is the donor (IaaS at full peak). Its two SaaS VMs share
    // a predicted peak; the lower VM id sits on the higher server
    // index, so a scan that keeps the first maximum in server order
    // would pick the other one.
    const Row &row = dc.row(RowId(0));
    occupy(row.servers.back(), VmKind::SaaS, 0.95, 0.8); // VM 0
    occupy(row.servers.front(), VmKind::SaaS, 0.95, 0.8); // VM 1
    for (std::size_t i = 1; i + 1 < row.servers.size(); ++i)
        occupy(row.servers[i], VmKind::IaaS, 1.0, 0.9);
    const auto plans = planner.plan(view, 1);
    ASSERT_EQ(plans.size(), 1u);
    EXPECT_EQ(plans[0].vm, VmId(0));
    EXPECT_EQ(plans[0].from, row.servers.back());
}

TEST_F(MigrationTest, RespectsMaxMoves)
{
    const Row &row = dc.row(RowId(0));
    for (ServerId sid : row.servers)
        occupy(sid, VmKind::SaaS, 0.95, 0.8);
    const auto plans = planner.plan(view, 1);
    EXPECT_LE(plans.size(), 1u);
}

TEST_F(MigrationTest, SequentialPlansTargetDistinctServers)
{
    const Row &row = dc.row(RowId(0));
    for (ServerId sid : row.servers)
        occupy(sid, VmKind::SaaS, 0.9, 0.7);
    const auto plans = planner.plan(view, 3);
    for (std::size_t i = 0; i < plans.size(); ++i) {
        for (std::size_t j = i + 1; j < plans.size(); ++j) {
            EXPECT_NE(plans[i].to, plans[j].to);
            EXPECT_NE(plans[i].vm, plans[j].vm);
        }
    }
}

TEST(MigrationSim, PeriodicMigrationRunsInSimulator)
{
    SimConfig cfg = smallTestScenario(41).asTapas();
    cfg.policy.migrationEnabled = true;
    cfg.policy.migrationPeriod = 2 * kHour;
    cfg.horizon = kDay;
    ClusterSim sim(cfg);
    sim.run();
    // Migration is an optimization, not a requirement; but the
    // machinery must never corrupt placement state.
    const VmTable &vms = sim.vms();
    for (std::size_t i = 0; i < vms.size(); ++i) {
        if (vms.active(i)) {
            EXPECT_TRUE(vms.server(i).valid());
        }
    }
    EXPECT_TRUE(sim.verifyVmTable());
    EXPECT_GT(sim.metrics().sloAttainment(), 0.90);
}

} // namespace
} // namespace tapas
