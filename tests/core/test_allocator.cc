/**
 * @file
 * Unit tests for the placement policies.
 */

#include "fixture.hh"

#include <algorithm>
#include <map>
#include <string>

#include "common/random.hh"
#include "core/allocator.hh"
#include "placement_oracle.hh"

namespace tapas {
namespace {

class AllocatorTest : public CoreFixture
{
  protected:
    PlacementRequest
    makeRequest(VmKind kind, double peak = 0.9)
    {
        PlacementRequest req;
        req.id = VmId(1000);
        req.kind = kind;
        req.predictedPeakLoad = peak;
        return req;
    }
};

TEST_F(AllocatorTest, BaselinePlacesOnEmptyCluster)
{
    BaselineAllocator alloc;
    const auto pick = alloc.place(makeRequest(VmKind::IaaS), view);
    ASSERT_TRUE(pick.has_value());
    EXPECT_FALSE(view.occupied(pick->index));
}

TEST_F(AllocatorTest, BaselinePacksIntoPartialRacks)
{
    BaselineAllocator alloc;
    // Occupy one server in rack 5; the next placement must land in
    // the same rack (packing preference).
    const RackId target(5);
    occupy(dc.rack(target).servers[0], VmKind::IaaS, 0.9);
    const auto pick = alloc.place(makeRequest(VmKind::IaaS), view);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(dc.server(*pick).rack, target);
}

TEST_F(AllocatorTest, BaselineBreaksRackTiesInLayoutOrder)
{
    BaselineAllocator alloc;
    // Racks 2 and 5 hold one VM each; rack 2's is on its last
    // server. The tie goes to the first free server in layout order.
    occupy(dc.rack(RackId(5)).servers[0], VmKind::IaaS, 0.9);
    occupy(dc.rack(RackId(2)).servers.back(), VmKind::IaaS, 0.9);
    const auto pick = alloc.place(makeRequest(VmKind::IaaS), view);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, dc.rack(RackId(2)).servers[0]);
}

TEST_F(AllocatorTest, BaselineReturnsNulloptWhenFull)
{
    BaselineAllocator alloc;
    for (const Server &server : dc.servers())
        occupy(server.id, VmKind::IaaS, 0.5);
    EXPECT_FALSE(
        alloc.place(makeRequest(VmKind::IaaS), view).has_value());
}

TEST_F(AllocatorTest, TapasPrefersColdServersForIaas)
{
    TapasAllocator alloc{TapasPolicyConfig{}};
    const auto pick = alloc.place(makeRequest(VmKind::IaaS), view);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(bank.thermalClass(*pick), ThermalClass::Cold);
}

TEST_F(AllocatorTest, TapasPrefersWarmServersForSaas)
{
    TapasAllocator alloc{TapasPolicyConfig{}};
    const auto pick =
        alloc.place(makeRequest(VmKind::SaaS, 0.6), view);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(bank.thermalClass(*pick), ThermalClass::Warm);
}

TEST_F(AllocatorTest, TapasValidatorBlocksOverdrawnRow)
{
    TapasAllocator alloc{TapasPolicyConfig{}};
    // Fill one row with peak-load VMs and add an oversubscription
    // rack to it so the row cannot admit more peak load.
    const RowId crowded(0);
    for (ServerId sid : dc.row(crowded).servers)
        occupy(sid, VmKind::IaaS, 1.0, 1.0);
    dc.addRack(crowded);
    // Mirror the production oversubscription sequence (sim/cluster.cc):
    // materialize the new servers in the thermal model before
    // profiling them.
    thermal.extend();
    bank.profileNewServers(thermal, powerModel, 9);
    growServers();

    const auto pick = alloc.place(makeRequest(VmKind::IaaS, 1.0),
                                  view);
    ASSERT_TRUE(pick.has_value());
    EXPECT_NE(dc.server(*pick).row, crowded);
}

TEST_F(AllocatorTest, TapasSpreadsPeakAcrossRows)
{
    // Placing a stream of high-peak VMs must not concentrate them in
    // one row the way packing does.
    TapasAllocator tapas{TapasPolicyConfig{}};
    BaselineAllocator baseline;

    std::map<std::uint32_t, int> tapas_rows;
    for (int i = 0; i < 12; ++i) {
        const auto pick =
            tapas.place(makeRequest(VmKind::IaaS, 0.95), view);
        ASSERT_TRUE(pick.has_value());
        occupy(*pick, VmKind::IaaS, 0.95);
        ++tapas_rows[dc.server(*pick).row.index];
    }
    // 12 VMs across 4 rows: spread means every row got some.
    EXPECT_EQ(tapas_rows.size(), dc.rowCount());
}

TEST_F(AllocatorTest, TapasBalancesIaasAndSaasWithinRows)
{
    TapasAllocator alloc{TapasPolicyConfig{}};
    for (int i = 0; i < 16; ++i) {
        const VmKind kind =
            i % 2 == 0 ? VmKind::IaaS : VmKind::SaaS;
        const auto pick = alloc.place(makeRequest(kind, 0.8), view);
        ASSERT_TRUE(pick.has_value());
        occupy(*pick, kind, 0.8);
    }
    // Every row that hosts VMs should host both kinds.
    std::map<std::uint32_t, std::pair<int, int>> mix;
    for (const Server &server : dc.servers()) {
        const std::uint32_t vm = serverVm[server.id.index];
        if (vm == VmId::invalidIndex)
            continue;
        auto &entry = mix[server.row.index];
        if (vmSlot[vm] == VmSlot::Iaas) {
            ++entry.first;
        } else {
            ++entry.second;
        }
    }
    for (const auto &[row, counts] : mix) {
        EXPECT_GT(counts.first, 0) << "row " << row;
        EXPECT_GT(counts.second, 0) << "row " << row;
    }
}

TEST_F(AllocatorTest, PredictedRowPowerCountsIdleServers)
{
    // An empty row still draws idle power for provisioned servers.
    const double empty_row =
        predictedRowPower(view, RowId(0), ServerId(), 0.0);
    const double idle_draw =
        bank.predictServerPowerW(ServerId(0), 0.0);
    EXPECT_GT(empty_row, 0.8 * idle_draw *
              static_cast<double>(dc.row(RowId(0)).servers.size()));
}

TEST_F(AllocatorTest, PredictedAirflowGrowsWithExtraVm)
{
    const AisleId aisle(0);
    const ServerId target = dc.aisle(aisle).servers.front();
    const double before =
        predictedAisleAirflow(view, aisle, ServerId(), 0.0);
    const double after = predictedAisleAirflow(view, aisle, target, 1.0);
    EXPECT_GT(after, before);
}

TEST_F(AllocatorTest, TapasRejectionDependsOnlyOnAdmissionLoad)
{
    // The rejection memo's contract: free servers remain, but the
    // derated row budgets refuse one more VM at the controllable
    // floor on every one of them while still admitting a lighter VM.
    const double rejected = TapasAllocator::kSaasControllableLoad;
    const double lighter = 0.1;
    double lighter_frac = 0.0;
    double rejected_frac = 1e18;
    for (const Row &row : dc.rows()) {
        const double budget =
            hierarchy.effectiveRowProvision(row.id).value();
        for (ServerId sid : row.servers) {
            lighter_frac = std::max(
                lighter_frac,
                predictedRowPower(view, row.id, sid, lighter) / budget);
            rejected_frac = std::min(
                rejected_frac,
                predictedRowPower(view, row.id, sid, rejected) / budget);
        }
    }
    const double derate = 0.5 * (lighter_frac + rejected_frac);
    ASSERT_LT(lighter_frac, rejected_frac);
    ASSERT_LE(derate, 1.0);
    hierarchy.failUps(UpsId(0), derate);

    TapasAllocator alloc{TapasPolicyConfig{}};
    PlacementRequest iaas = makeRequest(VmKind::IaaS, rejected);
    iaas.id = VmId(2000);
    PlacementRequest saas_floor = makeRequest(VmKind::SaaS, rejected);
    saas_floor.id = VmId(2001);
    PlacementRequest saas_peak = makeRequest(VmKind::SaaS, 0.9);
    saas_peak.id = VmId(2002);
    for (const PlacementRequest &req : {iaas, saas_floor, saas_peak}) {
        SCOPED_TRACE("VM " + std::to_string(req.id.index));
        EXPECT_EQ(alloc.admissionLoad(req), rejected);
        EXPECT_FALSE(alloc.place(req, view).has_value());
    }

    // A lower admission load is a different key: it still places.
    const PlacementRequest light = makeRequest(VmKind::IaaS, lighter);
    EXPECT_LT(alloc.admissionLoad(light), rejected);
    EXPECT_TRUE(alloc.place(light, view).has_value());
}

TEST_F(AllocatorTest, BaselineRejectsAFullClusterWhateverTheRequest)
{
    BaselineAllocator alloc;
    for (const Server &server : dc.servers())
        occupy(server.id, VmKind::IaaS, 0.5);
    const PlacementRequest requests[] = {
        makeRequest(VmKind::IaaS, 0.1), makeRequest(VmKind::IaaS, 1.0),
        makeRequest(VmKind::SaaS, 0.3), makeRequest(VmKind::SaaS, 0.9)};
    for (const PlacementRequest &req : requests) {
        EXPECT_EQ(alloc.admissionLoad(req),
                  alloc.admissionLoad(requests[0]));
        EXPECT_FALSE(alloc.place(req, view).has_value());
    }
}

TEST_F(AllocatorTest, TapasReturnsNulloptWhenAllRowsBlocked)
{
    TapasAllocator alloc{TapasPolicyConfig{}};
    for (const Server &server : dc.servers())
        occupy(server.id, VmKind::IaaS, 1.0, 1.0);
    EXPECT_FALSE(
        alloc.place(makeRequest(VmKind::IaaS, 1.0), view)
            .has_value());
}

TEST_F(AllocatorTest, RoundMatchesReference)
{
    // Every in-round pick equals a fresh allocator's (a basis built
    // from scratch on the same view) and the whole-fleet reference;
    // after every commit the basis sums equal the oracle sums.
    // Tight budgets: a failed AHU and a UPS derate on its rows.
    cooling.failAhu(AisleId(1), 0.5);
    hierarchy.failUps(UpsId(0), 0.6);
    const TapasPolicyConfig policy{};
    int requests = 0;
    int rejections = 0;
    int fallbacks = 0;
    int ties = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::fill(serverVm.begin(), serverVm.end(), VmId::invalidIndex);
        vmSlot.clear();
        vmPeakLoad.clear();
        bindView();
        TapasAllocator alloc{policy};
        Rng rng(seed);
        for (int round = 0; round < 12; ++round) {
            // Departures between rounds, then a new design day.
            for (std::uint32_t &vm : serverVm) {
                if (vm != VmId::invalidIndex && rng.bernoulli(0.15))
                    vm = VmId::invalidIndex;
            }
            bindView();
            view.outsideC = rng.uniform(15.0, 60.0);
            alloc.beginRound();
            for (int i = 0; i < 8; ++i) {
                PlacementRequest req;
                req.id = VmId(static_cast<std::uint32_t>(vmSlot.size()));
                req.kind = rng.bernoulli(0.5) ? VmKind::SaaS
                                              : VmKind::IaaS;
                // The last request of a round has a zero peak: its
                // what-if deltas vanish, so scores tie exactly.
                req.predictedPeakLoad =
                    i == 7 ? 0.0 : rng.uniform(0.2, 1.0);
                const auto in_round = alloc.place(req, view);
                const auto fresh =
                    TapasAllocator{policy}.place(req, view);
                const ReferencePlacement ref =
                    referencePlace(policy, req, view);
                ASSERT_EQ(in_round, fresh)
                    << "round " << round << " request " << i;
                ASSERT_EQ(in_round, ref.pick)
                    << "round " << round << " request " << i;
                ++requests;
                rejections += ref.pick.has_value() ? 0 : 1;
                fallbacks += ref.fallback ? 1 : 0;
                ties += ref.tiedAtBest > 1 ? 1 : 0;
                if (!in_round.has_value())
                    continue;
                occupy(*in_round, req.kind, req.predictedPeakLoad);
                alloc.commit(*in_round, view);
                // Basis sums equal the whole-aisle/row oracle sums.
                for (const Aisle &aisle : dc.aisles()) {
                    ASSERT_EQ(alloc.roundAisleDemand()[aisle.id.index],
                              predictedAisleAirflow(view, aisle.id,
                                                    ServerId(), 0.0));
                }
                for (const Row &row : dc.rows()) {
                    ASSERT_EQ(alloc.roundRowDemand()[row.id.index],
                              predictedRowPower(view, row.id,
                                                ServerId(), 0.0));
                }
            }
            alloc.endRound();
        }
    }
    EXPECT_GE(requests, 200);
    EXPECT_GT(rejections, 0);
    EXPECT_GT(fallbacks, 0);
    EXPECT_GT(ties, 0);
}

} // namespace
} // namespace tapas
