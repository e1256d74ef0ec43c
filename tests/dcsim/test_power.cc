/**
 * @file
 * Unit and property tests for the power model and hierarchy.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dcsim/layout.hh"
#include "dcsim/power.hh"

namespace tapas {
namespace {

LayoutConfig
mediumConfig()
{
    LayoutConfig cfg;
    cfg.aisleCount = 2;
    cfg.rowsPerAisle = 2;
    cfg.racksPerRow = 5;
    cfg.serversPerRack = 4;
    return cfg;
}

class PowerTest : public ::testing::Test
{
  protected:
    PowerTest()
        : dc(mediumConfig()), model(PowerConfig{}),
          hierarchy(dc, model), spec(ServerSpec::a100())
    {}

    DatacenterLayout dc;
    PowerModel model;
    PowerHierarchy hierarchy;
    ServerSpec spec;
};

TEST_F(PowerTest, GpuIdleAndPeak)
{
    EXPECT_DOUBLE_EQ(model.gpuPower(spec, 0.0).value(), 60.0);
    EXPECT_DOUBLE_EQ(model.gpuPower(spec, 1.0).value(), 400.0);
}

TEST_F(PowerTest, GpuPowerMonotonicInLoad)
{
    double prev = 0.0;
    for (double load = 0.0; load <= 1.0; load += 0.05) {
        const double w = model.gpuPower(spec, load).value();
        EXPECT_GE(w, prev);
        prev = w;
    }
}

TEST_F(PowerTest, FrequencyCapCutsDynamicPowerSuperlinearly)
{
    const double full = model.gpuPower(spec, 1.0, 1.0).value();
    const double capped = model.gpuPower(spec, 1.0, 0.7).value();
    const double dynamic_full = full - 60.0;
    const double dynamic_capped = capped - 60.0;
    // f*V^2 law: 0.7^2.4 ~ 0.425.
    EXPECT_NEAR(dynamic_capped / dynamic_full, 0.425, 0.01);
}

TEST_F(PowerTest, ServerIdlePowerIsSubstantial)
{
    // The paper stresses that idle GPU servers still draw a lot.
    const double idle = model.serverPowerAtLoad(spec, 0.0).value();
    EXPECT_GT(idle, 1000.0);
    EXPECT_LT(idle, 0.45 * spec.tdp().value());
}

TEST_F(PowerTest, ServerPeakMatchesTdp)
{
    EXPECT_NEAR(model.serverPeakPower(spec).value(),
                spec.tdp().value(), 1.0);
}

TEST_F(PowerTest, ServerPowerCountsEveryGpu)
{
    std::vector<Watts> draws(8, Watts(100.0));
    const double total = model.serverPower(spec, draws, 0.2).value();
    draws[3] = Watts(400.0);
    const double more = model.serverPower(spec, draws, 0.2).value();
    EXPECT_NEAR(more - total, 300.0, 1e-9);
}

TEST_F(PowerTest, RowProvisionEqualsPeakSum)
{
    for (const Row &row : dc.rows()) {
        const double expected =
            static_cast<double>(row.servers.size()) *
            model.serverPeakPower(spec).value();
        EXPECT_NEAR(hierarchy.rowProvision(row.id).value(), expected,
                    1e-6);
    }
}

TEST_F(PowerTest, TotalProvisionSumsRows)
{
    double sum = 0.0;
    for (const Row &row : dc.rows())
        sum += hierarchy.rowProvision(row.id).value();
    EXPECT_NEAR(hierarchy.totalProvision().value(), sum, 1e-6);
}

TEST_F(PowerTest, AssessFindsNoViolationAtFullDesignLoad)
{
    std::vector<double> draws(dc.serverCount(),
                              model.serverPeakPower(spec).value());
    const PowerAssessment result = hierarchy.assess(draws);
    EXPECT_FALSE(result.anyViolation());
}

TEST_F(PowerTest, AssessFlagsOverBudgetRow)
{
    std::vector<double> draws(dc.serverCount(),
                              model.serverPeakPower(spec).value());
    // Push every server in row 0 over its share.
    for (ServerId sid : dc.row(RowId(0)).servers) {
        draws[sid.index] = model.serverPeakPower(spec).value() * 1.2;
    }
    const PowerAssessment result = hierarchy.assess(draws);
    ASSERT_EQ(result.overBudgetRows.size(), 1u);
    EXPECT_EQ(result.overBudgetRows.front(), RowId(0));
    EXPECT_LT(result.rowHeadroomW(RowId(0)), 0.0);
    EXPECT_GT(result.rowHeadroomW(RowId(1)), -1e-9);
}

TEST_F(PowerTest, UpsFailureDeratesBudgets)
{
    const double before =
        hierarchy.effectiveRowProvision(RowId(0)).value();
    hierarchy.failUps(UpsId(0), 0.75);
    EXPECT_TRUE(hierarchy.anyFailure());
    EXPECT_NEAR(hierarchy.effectiveRowProvision(RowId(0)).value(),
                before * 0.75, 1e-6);

    // Full design load now violates everywhere.
    std::vector<double> draws(dc.serverCount(),
                              model.serverPeakPower(spec).value());
    const PowerAssessment result = hierarchy.assess(draws);
    EXPECT_EQ(result.overBudgetRows.size(), dc.rowCount());

    hierarchy.restoreUps(UpsId(0));
    EXPECT_FALSE(hierarchy.anyFailure());
    EXPECT_NEAR(hierarchy.effectiveRowProvision(RowId(0)).value(),
                before, 1e-6);
}

TEST_F(PowerTest, OversubscriptionSharesFrozenBudget)
{
    const double budget = hierarchy.rowProvision(RowId(0)).value();
    dc.addRack(RowId(0));
    // Budget unchanged after adding a rack.
    EXPECT_DOUBLE_EQ(hierarchy.rowProvision(RowId(0)).value(), budget);
    // Full load on the grown row now violates.
    std::vector<double> draws(dc.serverCount(),
                              model.serverPeakPower(spec).value());
    const PowerAssessment result = hierarchy.assess(draws);
    ASSERT_FALSE(result.overBudgetRows.empty());
    EXPECT_EQ(result.overBudgetRows.front(), RowId(0));
}

TEST_F(PowerTest, H100DrawsMoreThanA100)
{
    const ServerSpec h100 = ServerSpec::h100();
    EXPECT_GT(model.serverPeakPower(h100).value(),
              model.serverPeakPower(spec).value());
}

} // namespace
} // namespace tapas
