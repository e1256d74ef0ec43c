/**
 * @file
 * Robustness integration tests on the compound-emergency fault drill:
 * TAPAS must strictly beat the baseline on thermal excursions while
 * the plant is derated, sensor quarantine must isolate faulty sensors
 * without perturbing decisions for healthy servers (bit-identical
 * risk entries), and the quarantine machinery must be a no-op on
 * fault-free runs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/fixture.hh"
#include "core/risk.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"

namespace tapas {
namespace {

TEST(FaultDrill, TapasDominatesBaselineOnCompoundDrill)
{
    const SimConfig cfg = faultDrillScenario(41);
    ClusterSim baseline(cfg.asBaseline());
    baseline.run();
    ClusterSim tapas(cfg.asTapas());
    tapas.run();

    const SimMetrics &base = baseline.metrics();
    const SimMetrics &tap = tapas.metrics();

    // The drill actually bites: the chiller derate + heat wave +
    // demand peak push the baseline into inlet excursions.
    EXPECT_GT(base.inletExcursionSteps, 0u);
    // The headline robustness claim: TAPAS spends strictly less time
    // in thermal excursion than the baseline under the same compound
    // emergency.
    EXPECT_LT(tap.inletExcursionSteps, base.inletExcursionSteps);

    // Both runs replay the same scripted fault timeline.
    EXPECT_GT(base.faultSteps, 0u);
    EXPECT_EQ(tap.faultSteps, base.faultSteps);
    EXPECT_EQ(tap.faultActiveS, base.faultActiveS);
    EXPECT_EQ(tap.faultActiveS, 7 * kHour);

    // The fault window ends inside the horizon, so both runs record
    // a recovery measurement.
    EXPECT_GE(base.recoveries, 1u);
    EXPECT_GE(tap.recoveries, 1u);
    EXPECT_GE(tap.maxRecoveryS, tap.meanRecoveryS());

    // Quality floor holds for TAPAS even through the emergency.
    EXPECT_GE(tap.saasQuality.minValue(), 0.60);
}

TEST(FaultDrill, DrillIsDeterministicForSeed)
{
    const SimConfig cfg = faultDrillScenario(43).asTapas();
    ClusterSim a(cfg);
    a.run();
    ClusterSim b(cfg);
    b.run();
    EXPECT_EQ(a.metrics().inletExcursionSteps,
              b.metrics().inletExcursionSteps);
    EXPECT_EQ(a.metrics().powerViolationSteps,
              b.metrics().powerViolationSteps);
    EXPECT_EQ(a.metrics().recoverySumS, b.metrics().recoverySumS);
    EXPECT_DOUBLE_EQ(a.metrics().faultDemandTokens,
                     b.metrics().faultDemandTokens);
    EXPECT_DOUBLE_EQ(a.metrics().faultServedTokens,
                     b.metrics().faultServedTokens);
    EXPECT_DOUBLE_EQ(a.metrics().totalTokens,
                     b.metrics().totalTokens);
}

TEST(FaultDrill, QuarantineIsNoOpOnHealthyRun)
{
    // The divergence detector reconstructs expected GPU power from
    // the server load identity, so with every sensor healthy the
    // enabled gate must not move a single decision.
    const SimConfig cfg = smallTestScenario(45).asTapas();
    ClusterSim off(cfg);
    off.run();

    SimConfig guarded_cfg = cfg;
    guarded_cfg.policy.sensorQuarantineEnabled = true;
    ClusterSim on(guarded_cfg);
    on.run();

    EXPECT_EQ(on.controller().riskAssessor()->quarantineEvents(),
              0u);
    EXPECT_EQ(on.metrics().quarantinedServerSteps, 0u);
    EXPECT_DOUBLE_EQ(on.metrics().totalTokens,
                     off.metrics().totalTokens);
    EXPECT_DOUBLE_EQ(on.metrics().datacenterPowerW.mean(),
                     off.metrics().datacenterPowerW.mean());
    EXPECT_DOUBLE_EQ(on.metrics().maxGpuTempC.maxValue(),
                     off.metrics().maxGpuTempC.maxValue());
    EXPECT_EQ(on.metrics().reconfigs, off.metrics().reconfigs);
    EXPECT_EQ(on.metrics().migrations, off.metrics().migrations);
    EXPECT_EQ(on.metrics().vmsPlaced, off.metrics().vmsPlaced);
}

TEST(FaultDrill, DriftingSensorIsQuarantinedAndReleased)
{
    SimConfig cfg = smallTestScenario(47).asTapas();
    cfg.policy.sensorQuarantineEnabled = true;
    ScriptedFault fault;
    fault.kind = FaultKind::Sensor;
    fault.target = 5;
    fault.at = 2 * kHour;
    fault.until = 10 * kHour;
    fault.sensor = SensorFaultKind::BiasDrift;
    // Fast drift so the divergence clears the detection envelope
    // well inside the fault window.
    fault.driftWPerHour = 400.0;
    cfg.faults.scripted.push_back(fault);

    ClusterSim sim(cfg);
    sim.run();

    const RiskAssessor *risk =
        sim.controller().riskAssessor();
    ASSERT_NE(risk, nullptr);
    // The drift was caught...
    EXPECT_GE(risk->quarantineEvents(), 1u);
    EXPECT_GT(sim.metrics().quarantinedServerSteps, 0u);
    // ...and with the sensor healthy again for the rest of the day,
    // the quarantine automatically released.
    EXPECT_EQ(risk->quarantinedNow(), 0u);
    // Sensor faults never touch the plant.
    EXPECT_EQ(sim.metrics().faultSteps, 0u);
}

/** RiskAssessor-level isolation: corrupt one server's readings and
 *  compare every other server's risk entry bit-for-bit against a
 *  clean assessor. */
class QuarantineIsolation : public CoreFixture
{
  protected:
    QuarantineIsolation()
    {
        policy.sensorQuarantineEnabled = true;
        policy.sensorQuarantineAfter = 2;
        policy.sensorRecoverAfter = 3;
        gpus = dc.specs().front().gpusPerServer;

        // Give the fleet a mixed, nontrivial load pattern.
        for (std::size_t s = 0; s < dc.serverCount(); ++s)
            serverLoads[s] = 0.15 + 0.6 * ((s * 7) % 10) / 10.0;
    }

    /** Per-GPU power exactly consistent with the load identity (what
     *  healthy sensors report in the simulator). */
    std::vector<double>
    healthyPower() const
    {
        const ServerSpec &spec = dc.specs().front();
        std::vector<double> out(dc.serverCount() * gpus);
        for (std::size_t s = 0; s < dc.serverCount(); ++s) {
            const double per_gpu = spec.gpuIdlePower.value() +
                serverLoads[s] *
                    (spec.gpuMaxPower.value() -
                     spec.gpuIdlePower.value());
            for (int g = 0; g < gpus; ++g)
                out[s * gpus + g] = per_gpu;
        }
        return out;
    }

    void
    expectEqualRisk(const RiskAssessor &a, const RiskAssessor &b,
                    ServerId id)
    {
        const ServerRisk &ra = a.risk(id);
        const ServerRisk &rb = b.risk(id);
        EXPECT_EQ(ra.thermalRisk, rb.thermalRisk) << id.index;
        EXPECT_EQ(ra.powerRisk, rb.powerRisk) << id.index;
        EXPECT_EQ(ra.airflowRisk, rb.airflowRisk) << id.index;
        EXPECT_DOUBLE_EQ(ra.predictedHottestGpuC,
                         rb.predictedHottestGpuC) << id.index;
        EXPECT_DOUBLE_EQ(ra.rowHeadroomW, rb.rowHeadroomW)
            << id.index;
        EXPECT_DOUBLE_EQ(ra.aisleHeadroomCfm, rb.aisleHeadroomCfm)
            << id.index;
    }

    TapasPolicyConfig policy;
    int gpus = 0;
};

TEST_F(QuarantineIsolation, StuckSensorNeverPerturbsOtherServers)
{
    const ServerId bad(9);
    RiskAssessor clean(policy);
    RiskAssessor guarded(policy);

    const std::vector<double> truth = healthyPower();
    // The bad server's sensor reads stuck at idle while the server
    // actually runs loaded — far outside the detection envelope.
    std::vector<double> corrupted = truth;
    for (int g = 0; g < gpus; ++g) {
        corrupted[bad.index * gpus + g] =
            dc.specs().front().gpuIdlePower.value();
    }

    // Drive both assessors through the detection window and beyond.
    for (int pass = 0; pass < 4; ++pass) {
        view.now = pass * 5 * kMinute;
        clean.refresh(view, truth);
        guarded.refresh(view, corrupted);
        // At no refresh — before, during, or after quarantine entry
        // — does the corruption leak into any other server's entry.
        for (const Server &server : dc.servers()) {
            if (server.id.index == bad.index)
                continue;
            expectEqualRisk(clean, guarded, server.id);
        }
    }

    // The bad server itself was quarantined after the streak.
    EXPECT_TRUE(guarded.quarantined(bad));
    EXPECT_TRUE(guarded.risk(bad).quarantined);
    EXPECT_EQ(guarded.quarantineEvents(), 1u);
    EXPECT_EQ(guarded.quarantinedNow(), 1u);
    EXPECT_FALSE(clean.quarantined(bad));

    // Sensor repaired: healthy readings release the quarantine and
    // the whole fleet converges back to bit-equality.
    for (int pass = 4; pass < 8; ++pass) {
        view.now = pass * 5 * kMinute;
        clean.refresh(view, truth);
        guarded.refresh(view, truth);
    }
    EXPECT_FALSE(guarded.quarantined(bad));
    EXPECT_EQ(guarded.quarantinedNow(), 0u);
    for (const Server &server : dc.servers())
        expectEqualRisk(clean, guarded, server.id);
}

} // namespace
} // namespace tapas
