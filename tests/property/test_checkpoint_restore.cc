/**
 * @file
 * Checkpoint restore-equivalence property suite: for N randomly
 * chosen step boundaries, under both policies, with stochastic
 * faults and sensor corruption live, a run restored at that boundary
 * must be bit-identical to the straight-through run — on
 * stateDigest() at the restore point, on stateDigest() at the
 * horizon, and on the full serialized metric state. An
 * oversubscribed backlog input keeps VMs waiting, so the placement
 * retry path (and its per-step rejection memo) runs across every
 * restore point; a migration input keeps the TAPAS planner moving
 * SaaS VMs across them.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "common/serialize.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"

namespace tapas {
namespace {

std::string
tmpPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + name;
}

std::vector<std::uint8_t>
metricsBytes(const SimMetrics &metrics)
{
    SimMetrics copy = metrics;
    Archive ar = Archive::writer();
    copy.checkpointState(ar);
    EXPECT_TRUE(ar.ok());
    return {ar.buffer().begin(), ar.buffer().end()};
}

/** 4h small-cluster scenario with every fault class live. */
SimConfig
faultyScenario(std::uint64_t seed)
{
    SimConfig cfg = smallTestScenario(seed);
    cfg.horizon = 4 * kHour;
    cfg.vmTrace.horizon = 4 * kHour;
    cfg.policy.sensorQuarantineEnabled = true;
    // Aggressive rates so faults actually fire inside 4 hours.
    cfg.faults.ahu.mtbfS = 4.0 * static_cast<double>(kHour);
    cfg.faults.ahu.mttrS = static_cast<double>(kHour);
    cfg.faults.sensor.mtbfS = 2.0 * static_cast<double>(kHour);
    cfg.faults.sensor.mttrS = static_cast<double>(kHour);
    ScriptedFault chiller;
    chiller.kind = FaultKind::Chiller;
    chiller.at = kHour;
    chiller.until = 3 * kHour;
    chiller.remainingFrac = 0.8;
    cfg.faults.scripted.push_back(chiller);
    return cfg;
}

/**
 * faultyScenario with 40% extra racks and more VMs than servers:
 * both policies hold a waiting backlog that is retried every step.
 * Short-lived VMs average ~2.4 h, so departures keep freeing servers
 * for the backlog; a rejection memo carried across steps or
 * restores would then diverge.
 */
SimConfig
backlogScenario(std::uint64_t seed)
{
    SimConfig cfg = faultyScenario(seed);
    cfg.oversubscriptionPct = 40;
    cfg.vmTrace.targetVmCount = 96;
    cfg.vmTrace.shortMeanDays = 0.1;
    return cfg;
}

/**
 * faultyScenario with the SaaS migration planner running every 15
 * minutes. Migration needs a row whose relief fits elsewhere, which
 * the small cluster offers only on some traces: seeds 605 and 607
 * migrate (5 and 1 moves), 601 does not, so config() shifts the
 * suite's seeds 601/603 by 4 for this input.
 */
SimConfig
migrationScenario(std::uint64_t seed)
{
    SimConfig cfg = faultyScenario(seed);
    cfg.policy.migrationEnabled = true;
    cfg.policy.migrationPeriod = 15 * kMinute;
    cfg.policy.migrationMaxMoves = 2;
    return cfg;
}

enum class Input { Faulty, Backlog, Migration };

/** (TAPAS policy?, input) */
using Case = std::tuple<bool, Input>;

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    const auto [tapas_policy, input] = info.param;
    return std::string(tapas_policy ? "Tapas" : "Baseline") +
        (input == Input::Backlog         ? "Backlog"
             : input == Input::Migration ? "Migration"
                                         : "");
}

class CheckpointRestoreEquivalence
    : public ::testing::TestWithParam<Case>
{
  protected:
    static SimConfig
    config(std::uint64_t seed)
    {
        const auto [tapas_policy, input] = GetParam();
        const SimConfig cfg = input == Input::Backlog
            ? backlogScenario(seed)
            : input == Input::Migration ? migrationScenario(seed + 4)
                                        : faultyScenario(seed);
        return tapas_policy ? cfg.asTapas() : cfg.asBaseline();
    }

    /** Each input must actually exercise the path it is for. */
    static void
    expectExercised(const ClusterSim &reference)
    {
        switch (std::get<1>(GetParam())) {
        case Input::Backlog:
            EXPECT_GT(reference.metrics().vmsRejected, 0u);
            break;
        case Input::Migration:
            EXPECT_GT(reference.metrics().migrations, 0u);
            break;
        case Input::Faulty:
            break;
        }
    }

    static std::string
    tag()
    {
        return caseName({GetParam(), 0});
    }
};

TEST_P(CheckpointRestoreEquivalence, RestoreAtRandomEpochsIsExact)
{
    const SimConfig cfg = config(601);
    const int total =
        static_cast<int>(cfg.horizon / cfg.stepLength);

    // Straight-through reference plus its per-boundary digests.
    ClusterSim reference(cfg);
    reference.run();
    expectExercised(reference);
    const std::uint64_t final_digest = reference.stateDigest();
    const std::vector<std::uint8_t> final_metrics =
        metricsBytes(reference.metrics());

    // N random interior step boundaries (deterministic stream so
    // failures reproduce).
    Rng rng(std::get<0>(GetParam()) ? 0xc0ffee01u : 0xc0ffee02u);
    constexpr int kBoundaries = 6;
    for (int trial = 0; trial < kBoundaries; ++trial) {
        const int boundary = 1 + static_cast<int>(
            rng.uniformInt(0, total - 2));
        SCOPED_TRACE("restore at step " +
                     std::to_string(boundary));
        const std::string path = tmpPath("ckpt_prop_" + tag() + "_" +
                                         std::to_string(trial) +
                                         ".tapasckp");

        ClusterSim writer(cfg);
        writer.runSteps(boundary);
        ASSERT_TRUE(writer.saveCheckpoint(path).ok());

        ClusterSim restored(cfg);
        ASSERT_TRUE(restored.restoreCheckpoint(path).ok());
        ASSERT_EQ(restored.stateDigest(), writer.stateDigest());

        restored.runSteps(total - boundary);
        ASSERT_TRUE(restored.finished());
        EXPECT_EQ(restored.stateDigest(), final_digest);
        EXPECT_EQ(metricsBytes(restored.metrics()), final_metrics);
        removeFileIfExists(path);
    }
}

TEST_P(CheckpointRestoreEquivalence, ChainedRestoresStayExact)
{
    // Restore-of-a-restore: checkpoint at T1, restore, run to T2,
    // checkpoint again, restore again, finish. Error would compound
    // if any restore were only approximately faithful.
    const SimConfig cfg = config(603);
    const int total =
        static_cast<int>(cfg.horizon / cfg.stepLength);
    const int t1 = total / 3;
    const int t2 = 2 * total / 3;
    const std::string path =
        tmpPath("ckpt_chain_" + tag() + ".tapasckp");

    ClusterSim reference(cfg);
    reference.run();
    expectExercised(reference);

    ClusterSim first(cfg);
    first.runSteps(t1);
    ASSERT_TRUE(first.saveCheckpoint(path).ok());

    ClusterSim second(cfg);
    ASSERT_TRUE(second.restoreCheckpoint(path).ok());
    second.runSteps(t2 - t1);
    ASSERT_TRUE(second.saveCheckpoint(path).ok());

    ClusterSim third(cfg);
    ASSERT_TRUE(third.restoreCheckpoint(path).ok());
    third.runSteps(total - t2);
    ASSERT_TRUE(third.finished());

    EXPECT_EQ(third.stateDigest(), reference.stateDigest());
    EXPECT_EQ(metricsBytes(third.metrics()),
              metricsBytes(reference.metrics()));
    removeFileIfExists(path);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CheckpointRestoreEquivalence,
    ::testing::Combine(::testing::Values(false, true),
                       ::testing::Values(Input::Faulty,
                                         Input::Backlog)),
    caseName);

// Migration is a TAPAS-only planner (it re-places through the TAPAS
// allocator), so the input runs under that policy alone.
INSTANTIATE_TEST_SUITE_P(
    Migration, CheckpointRestoreEquivalence,
    ::testing::Values(Case{true, Input::Migration}), caseName);

} // namespace
} // namespace tapas
