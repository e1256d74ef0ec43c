/**
 * @file
 * Unit tests for the risk assessor and routing policies.
 */

#include "fixture.hh"

#include <algorithm>
#include <memory>

#include "core/router.hh"
#include "llm/engine.hh"

namespace tapas {
namespace {

class RouterTest : public CoreFixture
{
  protected:
    RouterTest()
        : refProfile(perf.profile(referenceConfig()))
    {
        gpuPower.assign(dc.serverCount() * 8, 60.0);
    }

    /** Create an engine-backed candidate on a server (reference
     *  configuration unless @p profile is given). */
    RouteCandidate
    makeCandidate(std::uint32_t vm_id, ServerId server,
                  const ConfigProfile *profile = nullptr)
    {
        engines.push_back(std::make_unique<InferenceEngine>(
            profile ? *profile : refProfile, perf.slo()));
        RouteCandidate cand;
        cand.vm = VmId(vm_id);
        cand.server = server;
        cand.engine = engines.back().get();
        return cand;
    }

    Request
    makeRequest(std::uint32_t customer)
    {
        Request req;
        req.id = RequestId(nextId++);
        req.endpoint = EndpointId(0);
        req.customer = CustomerId(customer);
        req.arrivalS = 0.0;
        req.promptTokens = 512;
        req.outputTokens = 128;
        return req;
    }

    /** Stop an engine accepting (a pending model reload). */
    void
    stopAccepting(InferenceEngine *engine)
    {
        InstanceConfig smaller = referenceConfig();
        smaller.model = ModelSize::B7;
        engine->requestReconfig(perf.profile(smaller), 30.0);
        ASSERT_FALSE(engine->accepting());
    }

    static double
    capacity(const RouteCandidate &cand)
    {
        return cand.engine->profile().goodputTps;
    }

    /** Load an engine with n standard requests. */
    void
    loadEngine(InferenceEngine *engine, int n)
    {
        for (int i = 0; i < n; ++i)
            engine->enqueue(makeRequest(900 + i));
    }

    ConfigProfile refProfile;
    std::vector<std::unique_ptr<InferenceEngine>> engines;
    std::vector<double> gpuPower;
    std::uint32_t nextId = 0;
};

TEST_F(RouterTest, RiskAssessorCleanClusterHasNoFlags)
{
    RiskAssessor assessor{TapasPolicyConfig{}};
    assessor.refresh(view, gpuPower);
    EXPECT_EQ(assessor.flaggedCount(), 0u);
    EXPECT_TRUE(assessor.fresh());
}

TEST_F(RouterTest, RiskAssessorFlagsHotServer)
{
    RiskAssessor assessor{TapasPolicyConfig{}};
    // Push one server's GPUs to implausible power -> projected
    // temperature above the margin.
    for (int g = 0; g < 8; ++g)
        gpuPower[3 * 8 + g] = 1200.0;
    assessor.refresh(view, gpuPower);
    EXPECT_TRUE(assessor.risk(ServerId(3)).thermalRisk);
    EXPECT_FALSE(assessor.risk(ServerId(4)).thermalRisk);
}

TEST_F(RouterTest, RiskAssessorFlagsPowerTightRow)
{
    RiskAssessor assessor{TapasPolicyConfig{}};
    // Load every server in row 0 to full: predicted power equals the
    // row budget, leaving less than the margin.
    for (ServerId sid : dc.row(RowId(0)).servers)
        occupy(sid, VmKind::IaaS, 1.0, 1.0);
    assessor.refresh(view, gpuPower);
    const ServerId in_row = dc.row(RowId(0)).servers.front();
    EXPECT_TRUE(assessor.risk(in_row).powerRisk);
    const ServerId out_row = dc.row(RowId(1)).servers.front();
    EXPECT_FALSE(assessor.risk(out_row).powerRisk);
}

TEST_F(RouterTest, RiskCacheRespectsRefreshPeriod)
{
    TapasPolicyConfig cfg;
    cfg.riskRefreshPeriod = 5 * kMinute;
    RiskAssessor assessor{cfg};
    view.now = 0;
    EXPECT_TRUE(assessor.maybeRefresh(view, gpuPower));
    view.now = kMinute;
    EXPECT_FALSE(assessor.maybeRefresh(view, gpuPower));
    view.now = 6 * kMinute;
    EXPECT_TRUE(assessor.maybeRefresh(view, gpuPower));
}

TEST_F(RouterTest, BaselinePicksLeastLoaded)
{
    BaselineRouter router;
    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    candidates.push_back(makeCandidate(1, ServerId(1)));
    loadEngine(candidates[0].engine, 10);
    const VmId pick =
        router.route(makeRequest(5), candidates, nullptr);
    EXPECT_EQ(pick, VmId(1));
}

TEST_F(RouterTest, BaselineSkipsNonAcceptingEngines)
{
    BaselineRouter router;
    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    candidates.push_back(makeCandidate(1, ServerId(1)));
    // Reconfigure candidate 1 so it stops accepting.
    InstanceConfig smaller = referenceConfig();
    smaller.model = ModelSize::B7;
    candidates[1].engine->requestReconfig(perf.profile(smaller),
                                          30.0);
    const VmId pick =
        router.route(makeRequest(5), candidates, nullptr);
    EXPECT_EQ(pick, VmId(0));
}

TEST_F(RouterTest, BaselineReturnsInvalidWhenNothingAccepts)
{
    BaselineRouter router;
    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    InstanceConfig smaller = referenceConfig();
    smaller.model = ModelSize::B7;
    candidates[0].engine->requestReconfig(perf.profile(smaller),
                                          30.0);
    EXPECT_FALSE(
        router.route(makeRequest(5), candidates, nullptr).valid());
}

TEST_F(RouterTest, TapasFiltersRiskyServers)
{
    TapasPolicyConfig cfg;
    TapasRouter router{cfg};
    RiskAssessor assessor{cfg};
    // Server 0 runs hot.
    for (int g = 0; g < 8; ++g)
        gpuPower[0 * 8 + g] = 1200.0;
    assessor.refresh(view, gpuPower);

    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    candidates.push_back(makeCandidate(1, ServerId(1)));
    // Make the risky VM otherwise more attractive (less loaded is
    // irrelevant; concentration prefers loaded VMs, so load VM 0).
    loadEngine(candidates[0].engine, 2);
    const VmId pick =
        router.route(makeRequest(5), candidates, &assessor);
    EXPECT_EQ(pick, VmId(1));
}

TEST_F(RouterTest, TapasFallsBackWhenAllFiltered)
{
    TapasPolicyConfig cfg;
    TapasRouter router{cfg};
    RiskAssessor assessor{cfg};
    for (std::size_t i = 0; i < gpuPower.size(); ++i)
        gpuPower[i] = 1200.0;
    assessor.refresh(view, gpuPower);

    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    candidates.push_back(makeCandidate(1, ServerId(1)));
    const VmId pick =
        router.route(makeRequest(5), candidates, &assessor);
    EXPECT_TRUE(pick.valid());
}

TEST_F(RouterTest, TapasAffinityRoutesRepeatCustomers)
{
    TapasPolicyConfig cfg;
    TapasRouter router{cfg};
    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    candidates.push_back(makeCandidate(1, ServerId(1)));

    const VmId first =
        router.route(makeRequest(42), candidates, nullptr);
    // Tilt loads: without affinity the other VM would win.
    for (const RouteCandidate &cand : candidates) {
        if (cand.vm == first)
            loadEngine(cand.engine, 2);
    }
    const VmId second =
        router.route(makeRequest(42), candidates, nullptr);
    EXPECT_EQ(second, first);
    EXPECT_GE(router.affinityEntries(), 1u);
}

TEST_F(RouterTest, TapasConcentratesLoadUnderCeiling)
{
    TapasPolicyConfig cfg;
    cfg.concentrationCeiling = 0.7;
    TapasRouter router{cfg};
    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    candidates.push_back(makeCandidate(1, ServerId(1)));
    // VM 0 lightly loaded (projected TTFT under the concentration
    // bar), VM 1 idle: the energy policy concentrates onto VM 0.
    loadEngine(candidates[0].engine, 1);
    const double ttft0 = candidates[0].engine->estimatedTtftS();
    ASSERT_LT(ttft0, 0.7 * perf.slo().ttftS);
    ASSERT_GT(ttft0, 0.0);
    const VmId pick =
        router.route(makeRequest(77), candidates, nullptr);
    EXPECT_EQ(pick, VmId(0));
}

TEST_F(RouterTest, TapasSpreadsWhenEverythingAboveCeiling)
{
    TapasPolicyConfig cfg;
    cfg.concentrationCeiling = 0.001; // force stage 3
    TapasRouter router{cfg};
    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    candidates.push_back(makeCandidate(1, ServerId(1)));
    loadEngine(candidates[0].engine, 8);
    loadEngine(candidates[1].engine, 2);
    const VmId pick =
        router.route(makeRequest(88), candidates, nullptr);
    EXPECT_EQ(pick, VmId(1));
}

TEST_F(RouterTest, TapasSkipsOverloadedVms)
{
    TapasPolicyConfig cfg;
    cfg.perfRiskLoad = 0.1;
    TapasRouter router{cfg};
    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    candidates.push_back(makeCandidate(1, ServerId(1)));
    loadEngine(candidates[0].engine, 100); // way past perf risk
    const VmId pick =
        router.route(makeRequest(9), candidates, nullptr);
    EXPECT_EQ(pick, VmId(1));
}

// ----------------------------------------------------------------
// split(): the flow-level entry point.

TEST_F(RouterTest, BaselineSplitsInProportionToCapacity)
{
    InstanceConfig small = referenceConfig();
    small.model = ModelSize::B7;
    const ConfigProfile small_profile = perf.profile(small);
    BaselineRouter router;
    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    candidates.push_back(makeCandidate(1, ServerId(1), &small_profile));
    const double cap0 = capacity(candidates[0]);
    const double cap1 = capacity(candidates[1]);
    ASSERT_NE(cap0, cap1);

    const double demand = 0.5 * (cap0 + cap1);
    std::vector<double> shares(2);
    router.split(candidates, demand, view, nullptr, shares);
    EXPECT_DOUBLE_EQ(shares[0], demand * cap0 / (cap0 + cap1));
    EXPECT_DOUBLE_EQ(shares[1], demand * cap1 / (cap0 + cap1));
}

TEST_F(RouterTest, TapasSplitGivesRiskyServersNothing)
{
    TapasPolicyConfig cfg;
    TapasRouter router{cfg};
    RiskAssessor assessor{cfg};
    for (int g = 0; g < 8; ++g)
        gpuPower[0 * 8 + g] = 1200.0;
    assessor.refresh(view, gpuPower);
    ASSERT_TRUE(assessor.risk(ServerId(0)).any());
    ASSERT_FALSE(assessor.risk(ServerId(1)).any());

    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    candidates.push_back(makeCandidate(1, ServerId(1)));
    const double demand = 0.5 * capacity(candidates[1]);
    std::vector<double> shares(2);
    router.split(candidates, demand, view, &assessor, shares);
    EXPECT_EQ(shares[0], RequestRouter::kUnrouted);
    EXPECT_DOUBLE_EQ(shares[1], demand);
}

TEST_F(RouterTest, TapasSplitFallsBackWhenEveryServerIsRisky)
{
    TapasPolicyConfig cfg;
    TapasRouter router{cfg};
    RiskAssessor assessor{cfg};
    for (double &w : gpuPower)
        w = 1200.0;
    assessor.refresh(view, gpuPower);

    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    candidates.push_back(makeCandidate(1, ServerId(1)));
    candidates.push_back(makeCandidate(2, ServerId(2)));
    stopAccepting(candidates[2].engine);
    for (const RouteCandidate &cand : candidates)
        ASSERT_TRUE(assessor.risk(cand.server).any());

    const double demand = 0.5 * capacity(candidates[0]);
    std::vector<double> shares(3);
    router.split(candidates, demand, view, &assessor, shares);
    // Every accepting VM is routed again; the reloading one is not.
    EXPECT_GT(shares[0], 0.0);
    EXPECT_GT(shares[1], 0.0);
    EXPECT_DOUBLE_EQ(shares[0] + shares[1], demand);
    EXPECT_EQ(shares[2], RequestRouter::kUnrouted);
}

TEST_F(RouterTest, SplitReportsNonAcceptingVmsUnrouted)
{
    TapasPolicyConfig cfg;
    BaselineRouter baseline;
    TapasRouter tapas{cfg};
    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    candidates.push_back(makeCandidate(1, ServerId(1)));
    stopAccepting(candidates[1].engine);

    const double demand = 0.5 * capacity(candidates[0]);
    for (RequestRouter *router :
         {static_cast<RequestRouter *>(&baseline),
          static_cast<RequestRouter *>(&tapas)}) {
        std::vector<double> shares(2);
        router->split(candidates, demand, view, nullptr, shares);
        EXPECT_DOUBLE_EQ(shares[0], demand) << router->name();
        EXPECT_EQ(shares[1], RequestRouter::kUnrouted)
            << router->name();
    }
}

TEST_F(RouterTest, TapasSplitClampsRowSlackAtFivePercent)
{
    // Margins below zero flag nothing, so both VMs stay routable
    // while row 0 runs with (almost) no power headroom.
    TapasPolicyConfig cfg;
    cfg.rowPowerMarginFrac = -1.0;
    cfg.airflowMarginFrac = -1.0;
    TapasRouter router{cfg};
    RiskAssessor assessor{cfg};
    for (ServerId sid : dc.row(RowId(0)).servers)
        occupy(sid, VmKind::IaaS, 1.0, 1.0);
    assessor.refresh(view, gpuPower);

    const ServerId tight = dc.row(RowId(0)).servers.front();
    const ServerId roomy = dc.row(RowId(1)).servers.front();
    auto raw_slack = [&](ServerId sid) {
        return assessor.risk(sid).rowHeadroomW /
            hierarchy.effectiveRowProvision(dc.server(sid).row)
                .value();
    };
    ASSERT_FALSE(assessor.risk(tight).any());
    ASSERT_FALSE(assessor.risk(roomy).any());
    ASSERT_LT(raw_slack(tight), 0.05);
    const double roomy_slack = std::clamp(raw_slack(roomy), 0.05, 1.0);
    ASSERT_GT(roomy_slack, 0.05);

    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, tight));
    candidates.push_back(makeCandidate(1, roomy));
    const double demand = 0.5 * capacity(candidates[0]);
    std::vector<double> shares(2);
    router.split(candidates, demand, view, &assessor, shares);
    const double total = 0.05 + roomy_slack;
    EXPECT_DOUBLE_EQ(shares[0], demand * 0.05 / total);
    EXPECT_DOUBLE_EQ(shares[1], demand * roomy_slack / total);
}

TEST_F(RouterTest, SplitSpillsOverloadEvenlyUpToTheCap)
{
    InstanceConfig small = referenceConfig();
    small.model = ModelSize::B7;
    const ConfigProfile small_profile = perf.profile(small);
    BaselineRouter router;
    std::vector<RouteCandidate> candidates;
    candidates.push_back(makeCandidate(0, ServerId(0)));
    candidates.push_back(makeCandidate(1, ServerId(1), &small_profile));
    const double cap0 = capacity(candidates[0]);
    const double cap1 = capacity(candidates[1]);
    const double total_cap = cap0 + cap1;
    std::vector<double> shares(2);

    // A small overload: each VM fills up and takes half the excess.
    const double excess = 0.1 * std::min(cap0, cap1);
    router.split(candidates, total_cap + excess, view, nullptr,
                 shares);
    EXPECT_DOUBLE_EQ(shares[0], cap0 + 0.5 * excess);
    EXPECT_DOUBLE_EQ(shares[1], cap1 + 0.5 * excess);

    // A large one: nobody gets more than 1.2x its capacity.
    router.split(candidates, 10.0 * total_cap, view, nullptr, shares);
    EXPECT_DOUBLE_EQ(shares[0], 1.2 * cap0);
    EXPECT_DOUBLE_EQ(shares[1], 1.2 * cap1);
}

} // namespace
} // namespace tapas
