/**
 * @file
 * End-to-end integration tests of the cluster simulator: the
 * evaluation-level claims that must hold on every build (TAPAS at
 * least matches Baseline on peaks, oversubscription safety,
 * emergency behavior, determinism, and cross-fidelity agreement).
 */

#include <gtest/gtest.h>

#include "sim/cluster.hh"
#include "sim/scenario.hh"

namespace tapas {
namespace {

TEST(SimIntegration, SmallScenarioRunsToCompletion)
{
    SimConfig cfg = smallTestScenario(5).asTapas();
    ClusterSim sim(cfg);
    sim.run();
    EXPECT_TRUE(sim.finished());
    EXPECT_GT(sim.metrics().totalSteps, 0u);
    EXPECT_GT(sim.metrics().vmsPlaced, 0u);
    EXPECT_GT(sim.activeVmCount(), 0u);
    EXPECT_GT(sim.metrics().saasServedTps.mean(), 0.0);
}

TEST(SimIntegration, DeterministicForSeed)
{
    SimConfig cfg = smallTestScenario(9).asTapas();
    ClusterSim a(cfg);
    a.run();
    ClusterSim b(cfg);
    b.run();
    EXPECT_DOUBLE_EQ(a.metrics().maxGpuTempC.maxValue(),
                     b.metrics().maxGpuTempC.maxValue());
    EXPECT_DOUBLE_EQ(a.metrics().peakRowPowerFrac.maxValue(),
                     b.metrics().peakRowPowerFrac.maxValue());
    EXPECT_DOUBLE_EQ(a.metrics().totalTokens,
                     b.metrics().totalTokens);
    EXPECT_EQ(a.metrics().reconfigs, b.metrics().reconfigs);
}

TEST(SimIntegration, SeedsChangeOutcomes)
{
    ClusterSim a(smallTestScenario(1).asBaseline());
    a.run();
    ClusterSim b(smallTestScenario(2).asBaseline());
    b.run();
    EXPECT_NE(a.metrics().totalTokens, b.metrics().totalTokens);
}

TEST(SimIntegration, TapasReducesPeaksVersusBaseline)
{
    const SimConfig cfg = smallTestScenario(7);
    ClusterSim baseline(cfg.asBaseline());
    baseline.run();
    ClusterSim tapas(cfg.asTapas());
    tapas.run();
    // The headline claim, at small scale: peak row power and mean
    // datacenter power improve; quality holds.
    EXPECT_LT(tapas.metrics().peakRowPowerFrac.maxValue(),
              baseline.metrics().peakRowPowerFrac.maxValue());
    EXPECT_LT(tapas.metrics().datacenterPowerW.mean(),
              baseline.metrics().datacenterPowerW.mean());
    EXPECT_NEAR(tapas.metrics().meanQuality(), 1.0, 1e-9);
    EXPECT_GT(tapas.metrics().sloAttainment(), 0.95);
}

TEST(SimIntegration, NoCappingWithoutOversubscription)
{
    SimConfig cfg = smallTestScenario(11);
    for (const SimConfig &variant :
         {cfg.asBaseline(), cfg.asTapas()}) {
        ClusterSim sim(variant);
        sim.run();
        EXPECT_LT(sim.metrics().powerCappedFraction(), 0.02);
        EXPECT_LT(sim.metrics().thermalCappedFraction(), 0.05);
    }
}

TEST(SimIntegration, OversubscriptionCapsBaselineNotTapas)
{
    SimConfig cfg = smallTestScenario(13);
    cfg.oversubscriptionPct = 40;
    ClusterSim baseline(cfg.asBaseline());
    baseline.run();
    ClusterSim tapas(cfg.asTapas());
    tapas.run();
    EXPECT_GT(baseline.metrics().powerCappedFraction(), 0.02);
    EXPECT_LT(tapas.metrics().powerCappedFraction(),
              baseline.metrics().powerCappedFraction());
}

TEST(SimIntegration, OversubscriptionAddsServers)
{
    SimConfig cfg = smallTestScenario(15);
    cfg.oversubscriptionPct = 25;
    ClusterSim sim(cfg.asBaseline());
    // 48 base servers + ceil(12 racks * 25%) = 3 racks = 12 servers.
    EXPECT_EQ(sim.datacenter().serverCount(), 60u);
    EXPECT_EQ(sim.profiles().profiledServerCount(), 60u);
}

TEST(SimIntegration, PowerEmergencySparesIaasUnderTapas)
{
    SimConfig cfg = smallTestScenario(17);
    cfg.horizon = kDay;
    ScriptedFault event;
    event.at = 10 * kHour;
    event.until = 14 * kHour;
    event.kind = FaultKind::Ups;
    event.target = 0;
    event.remainingFrac = 0.70;
    cfg.faults.scripted.push_back(event);

    ClusterSim baseline(cfg.asBaseline());
    baseline.run();
    ClusterSim tapas(cfg.asTapas());
    tapas.run();

    auto window_mean = [&](const TimeSeries &series) {
        double total = 0.0;
        int n = 0;
        for (std::size_t i = 0; i < series.size(); ++i) {
            if (series.timeAt(i) >= event.at &&
                series.timeAt(i) < event.until) {
                total += series.valueAt(i);
                ++n;
            }
        }
        return n ? total / n : 0.0;
    };

    const double base_iaas =
        window_mean(baseline.metrics().iaasPerfPenalty);
    const double tapas_iaas =
        window_mean(tapas.metrics().iaasPerfPenalty);
    // Baseline caps IaaS along with everything else; TAPAS absorbs
    // the cut in the SaaS fleet.
    EXPECT_GT(base_iaas, 0.01);
    EXPECT_LT(tapas_iaas, base_iaas * 0.5);
}

TEST(SimIntegration, EmergencyQualityDipsOnlyUnderTapas)
{
    SimConfig cfg = smallTestScenario(19);
    cfg.horizon = kDay;
    ScriptedFault event;
    event.at = 10 * kHour;
    event.until = 14 * kHour;
    event.kind = FaultKind::Ups;
    event.target = 0;
    event.remainingFrac = 0.70;
    cfg.faults.scripted.push_back(event);

    ClusterSim baseline(cfg.asBaseline());
    baseline.run();
    ClusterSim tapas(cfg.asTapas());
    tapas.run();
    // Baseline never touches quality; TAPAS may spend quality
    // during the window (never below the emergency floor).
    EXPECT_NEAR(baseline.metrics().saasQuality.minValue(), 1.0,
                1e-9);
    EXPECT_GE(tapas.metrics().saasQuality.minValue(), 0.60);
}

TEST(SimIntegration, FailureStateClearsAfterWindow)
{
    SimConfig cfg = smallTestScenario(21);
    cfg.horizon = 6 * kHour;
    ScriptedFault event;
    event.at = 2 * kHour;
    event.until = 4 * kHour;
    event.kind = FaultKind::Ahu;
    event.target = -1;
    event.remainingFrac = 0.9;
    cfg.faults.scripted.push_back(event);
    ClusterSim sim(cfg.asTapas());
    sim.runSteps(static_cast<int>(3 * kHour / cfg.stepLength));
    EXPECT_EQ(sim.failures().active(), EmergencyKind::Thermal);
    sim.run();
    EXPECT_EQ(sim.failures().active(), EmergencyKind::None);
}

TEST(SimIntegration, RequestAndFlowModesAgree)
{
    // The paper validates its simulator against the real cluster at
    // ~4% absolute error; we require our two fidelity modes to land
    // within 10% relative on the power envelope.
    SimConfig cfg = realClusterScenario(23).asBaseline();
    ClusterSim request_mode(cfg);
    request_mode.run();
    SimConfig flow_cfg = cfg;
    flow_cfg.mode = SimMode::FlowLevel;
    ClusterSim flow_mode(flow_cfg);
    flow_mode.run();

    const double rq =
        request_mode.metrics().peakRowPowerFrac.mean();
    const double fl = flow_mode.metrics().peakRowPowerFrac.mean();
    // Absolute error on the provision fraction, matching how the
    // paper states its 4% simulator validation.
    EXPECT_NEAR(rq, fl, 0.08);
}

TEST(SimIntegration, RequestModeProducesLatencySamples)
{
    SimConfig cfg = realClusterScenario(25).asBaseline();
    cfg.horizon = 10 * kMinute;
    ClusterSim sim(cfg);
    sim.run();
    EXPECT_GT(sim.metrics().ttftS.count(), 100u);
    EXPECT_GT(sim.metrics().tbtS.count(), 100u);
    EXPECT_GT(sim.metrics().ttftS.p99(), 0.0);
}

TEST(SimIntegration, TelemetryAccumulates)
{
    SimConfig cfg = smallTestScenario(27).asBaseline();
    cfg.horizon = 6 * kHour;
    ClusterSim sim(cfg);
    sim.run();
    const TelemetryStore &store = sim.telemetry();
    EXPECT_FALSE(store.rowsWithData().empty());
    EXPECT_FALSE(store.customersWithData().empty());
    EXPECT_FALSE(store.endpointsWithData().empty());
    // 10-minute cadence over 6 hours = 36 samples per row.
    EXPECT_EQ(store.rowPowerSeries(RowId(0)).size(), 36u);
    EXPECT_EQ(store.serverSeries(ServerId(0)).size(), 36u);
}

TEST(SimIntegration, PopulationTracksTrace)
{
    SimConfig cfg = smallTestScenario(29).asBaseline();
    ClusterSim sim(cfg);
    sim.run();
    // Auto target = 85% of 48 servers = 40 VMs.
    EXPECT_GE(sim.activeVmCount(), 30u);
    EXPECT_LE(sim.activeVmCount(), 48u);
    EXPECT_EQ(sim.metrics().vmsRejected, 0u);
}

TEST(SimIntegration, EnginesFollowConfiguratorDecisions)
{
    SimConfig cfg = smallTestScenario(31).asTapas();
    cfg.horizon = 12 * kHour;
    ClusterSim sim(cfg);
    sim.run();
    // The configurator right-sizes at least part of the fleet away
    // from the reference configuration.
    EXPECT_GT(sim.metrics().reconfigs, 0u);
    bool any_non_reference = false;
    const VmTable &vms = sim.vms();
    for (std::size_t i = 0; i < vms.size(); ++i) {
        if (vms.isSaas(i) &&
            !(vms.engineAt(i)->profile().config ==
              referenceConfig())) {
            any_non_reference = true;
        }
    }
    EXPECT_TRUE(any_non_reference);
}

TEST(SimIntegration, MixSensitivityAllIaasStillImproves)
{
    // All-IaaS fleets only benefit from placement (paper Fig. 20's
    // right-most group): TAPAS must not be worse than baseline.
    SimConfig cfg = smallTestScenario(33);
    cfg.vmTrace.saasFraction = 0.0;
    ClusterSim baseline(cfg.asBaseline());
    baseline.run();
    ClusterSim tapas(cfg.asTapas());
    tapas.run();
    EXPECT_LE(tapas.metrics().peakRowPowerFrac.mean(),
              baseline.metrics().peakRowPowerFrac.mean() * 1.02);
}

TEST(SimIntegration, WeekLongFlowRunIsStable)
{
    SimConfig cfg = smallTestScenario(35).asTapas();
    cfg.horizon = kWeek;
    ClusterSim sim(cfg);
    sim.run();
    EXPECT_EQ(sim.metrics().totalSteps,
              static_cast<std::uint64_t>(kWeek / cfg.stepLength));
    EXPECT_GT(sim.metrics().sloAttainment(), 0.93);
    EXPECT_NEAR(sim.metrics().meanQuality(), 1.0, 1e-6);
}

} // namespace
} // namespace tapas
