/**
 * @file
 * Unit tests for the failure manager and TapasController facade.
 */

#include "fixture.hh"

#include <memory>

#include "core/failure.hh"
#include "core/tapas.hh"
#include "llm/engine.hh"

namespace tapas {
namespace {

class TapasControllerTest : public CoreFixture
{
  protected:
    TapasControllerTest()
        : refProfile(perf.profile(referenceConfig()))
    {
        gpuPower.assign(dc.serverCount() * 8, 60.0);
    }

    TapasPolicyConfig
    allOn()
    {
        TapasPolicyConfig cfg;
        cfg.placeEnabled = true;
        cfg.routeEnabled = true;
        cfg.configEnabled = true;
        return cfg;
    }

    SaasInstanceRef
    makeInstance(std::uint32_t id, ServerId server, double demand)
    {
        engines.push_back(std::make_unique<InferenceEngine>(
            refProfile, perf.slo()));
        occupy(server, VmKind::SaaS, 0.8, 0.5);
        SaasInstanceRef ref;
        ref.id = VmId(id);
        ref.server = server;
        ref.engine = engines.back().get();
        ref.demandTps = demand;
        return ref;
    }

    ConfigProfile refProfile;
    std::vector<std::unique_ptr<InferenceEngine>> engines;
    std::vector<double> gpuPower;
};

TEST_F(TapasControllerTest, FailureManagerThermalEmergency)
{
    FailureManager manager(cooling, hierarchy, dc);
    EXPECT_EQ(manager.active(), EmergencyKind::None);
    manager.triggerThermalEmergency(0.9);
    EXPECT_EQ(manager.active(), EmergencyKind::Thermal);
    EXPECT_NEAR(cooling.effectiveProvision(AisleId(0)).value() /
                    cooling.provision(AisleId(0)).value(),
                0.9, 1e-9);
    manager.clearAll();
    EXPECT_EQ(manager.active(), EmergencyKind::None);
}

TEST_F(TapasControllerTest, FailureManagerPowerEmergency)
{
    FailureManager manager(cooling, hierarchy, dc);
    manager.triggerPowerEmergency(0.75);
    EXPECT_EQ(manager.active(), EmergencyKind::Power);
    EXPECT_NEAR(hierarchy.effectiveRowProvision(RowId(0)).value() /
                    hierarchy.rowProvision(RowId(0)).value(),
                0.75, 1e-9);
    manager.triggerThermalEmergency(0.9);
    EXPECT_EQ(manager.active(), EmergencyKind::Both);
    manager.clearAll();
}

TEST_F(TapasControllerTest, PolicyFlagsSelectImplementations)
{
    TapasPolicyConfig baseline;
    baseline.placeEnabled = false;
    baseline.routeEnabled = false;
    baseline.configEnabled = false;
    TapasController base(baseline, dc, cooling, hierarchy, &bank,
                         &perf);
    EXPECT_STREQ(base.allocator().name(), "baseline");
    EXPECT_STREQ(base.router().name(), "baseline");
    EXPECT_EQ(base.riskAssessor(), nullptr);
    EXPECT_FALSE(base.capIaasFirst());

    TapasController full(allOn(), dc, cooling, hierarchy, &bank,
                         &perf);
    EXPECT_STREQ(full.allocator().name(), "tapas");
    EXPECT_STREQ(full.router().name(), "tapas");
    EXPECT_NE(full.riskAssessor(), nullptr);
    EXPECT_TRUE(full.capIaasFirst());
}

TEST_F(TapasControllerTest, RiskRefreshGoesThroughController)
{
    TapasController controller(allOn(), dc, cooling, hierarchy,
                               &bank, &perf);
    view.now = 0;
    controller.maybeRefreshRisk(view, gpuPower);
    ASSERT_NE(controller.riskAssessor(), nullptr);
    EXPECT_TRUE(controller.riskAssessor()->fresh());
}

TEST_F(TapasControllerTest, ConfigurePassIsNoopWhenDisabled)
{
    TapasPolicyConfig cfg = allOn();
    cfg.configEnabled = false;
    TapasController controller(cfg, dc, cooling, hierarchy, &bank,
                               &perf);
    std::vector<SaasInstanceRef> instances;
    instances.push_back(makeInstance(0, ServerId(0), 100.0));
    controller.configurePass(view, instances);
    EXPECT_EQ(controller.reconfigsIssued(), 0u);
    EXPECT_EQ(engines[0]->profile().config, referenceConfig());
}

TEST_F(TapasControllerTest, ConfigurePassRightSizesUnderSlack)
{
    TapasController controller(allOn(), dc, cooling, hierarchy,
                               &bank, &perf);
    std::vector<SaasInstanceRef> instances;
    instances.push_back(makeInstance(0, ServerId(0), 100.0));
    controller.configurePass(view, instances);
    // Plenty of row headroom and low demand: the instance is
    // right-sized to a cheaper same-quality config without a
    // reload blackout.
    EXPECT_DOUBLE_EQ(engines[0]->profile().quality, 1.0);
    EXPECT_TRUE(engines[0]->accepting());
    EXPECT_GE(engines[0]->profile().goodputTps, 100.0 * 1.5);
}

TEST_F(TapasControllerTest, PowerEmergencyTriggersReconfigs)
{
    TapasController controller(allOn(), dc, cooling, hierarchy,
                               &bank, &perf);
    FailureManager manager(cooling, hierarchy, dc);

    // Fill row 0: one SaaS instance per server, all loaded.
    std::vector<SaasInstanceRef> instances;
    std::uint32_t id = 0;
    for (ServerId sid : dc.row(RowId(0)).servers) {
        instances.push_back(makeInstance(
            id++, sid, 0.9 * refProfile.goodputTps));
        serverLoads[sid.index] = 0.9;
    }

    manager.triggerPowerEmergency(0.60);
    controller.configurePass(view, instances);
    // Budgets dropped sharply: at least some instances must be
    // reconfigured down.
    EXPECT_GT(controller.reconfigsIssued(), 0u);
}

TEST_F(TapasControllerTest, ConfigurePassSkipsReconfiguringEngines)
{
    TapasController controller(allOn(), dc, cooling, hierarchy,
                               &bank, &perf);
    std::vector<SaasInstanceRef> instances;
    instances.push_back(makeInstance(0, ServerId(0), 100.0));
    InstanceConfig smaller = referenceConfig();
    smaller.model = ModelSize::B13;
    engines[0]->requestReconfig(perf.profile(smaller), 30.0);
    ASSERT_TRUE(engines[0]->reconfiguring());
    controller.configurePass(view, instances);
    EXPECT_EQ(controller.reconfigsIssued(), 0u);
}

TEST_F(TapasControllerTest, ControllerWithoutProfilesPanics)
{
    EXPECT_DEATH(TapasController(allOn(), dc, cooling, hierarchy,
                                 nullptr, &perf),
                 "profiles");
}

} // namespace
} // namespace tapas
