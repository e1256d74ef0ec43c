/**
 * @file
 * Cross-module property sweeps (TEST_P): invariants that must hold
 * for every point of a parameter grid, not just hand-picked cases —
 * engine token conservation, allocator placement safety, router
 * liveness, and thermal monotonicity.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/serialize.hh"
#include "common/threadpool.hh"
#include "core/allocator.hh"
#include "core/placement_oracle.hh"
#include "core/router.hh"
#include "dcsim/layout.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"
#include "llm/engine.hh"
#include "sim/scenario.hh"
#include "sim/sweep.hh"
#include "telemetry/profiles.hh"

namespace tapas {
namespace {

// --- Engine conservation across request shapes ---------------------

using EngineParam = std::tuple<int, int, int>; // prompt, output, count

class EngineConservation
    : public ::testing::TestWithParam<EngineParam>
{
};

TEST_P(EngineConservation, TokensInEqualTokensOut)
{
    const auto [prompt, output, count] = GetParam();
    const PerfModel perf = PerfModel::withReferenceSlo(
        ServerSpec::a100(), PerfParams::forSku(GpuSku::A100));
    InferenceEngine engine(perf.profile(referenceConfig()),
                           perf.slo());

    for (int i = 0; i < count; ++i) {
        Request request;
        request.id = RequestId(static_cast<std::uint32_t>(i));
        request.endpoint = EndpointId(0);
        request.customer = CustomerId(0);
        request.arrivalS = 0.1 * i;
        request.promptTokens = prompt;
        request.outputTokens = output;
        engine.enqueue(request);
    }
    double t = 0.0;
    while (engine.stats().completed <
           static_cast<std::uint64_t>(count)) {
        engine.step(t, t + 10.0);
        t += 10.0;
        ASSERT_LT(t, 24.0 * 3600.0) << "engine failed to drain";
    }

    // Processed work = prompts + (output - 1) decode tokens each
    // (the first output token is produced by prefill completion).
    const double expected = static_cast<double>(count) *
        (prompt + std::max(0, output - 1));
    EXPECT_NEAR(engine.stats().totalTokens, expected,
                expected * 1e-6 + 1.0);
    EXPECT_EQ(engine.stats().completed,
              static_cast<std::uint64_t>(count));
    EXPECT_EQ(engine.outstanding(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RequestShapes, EngineConservation,
    ::testing::Values(EngineParam{16, 8, 5},
                      EngineParam{512, 128, 12},
                      EngineParam{2048, 32, 4},
                      EngineParam{4096, 1, 3},
                      EngineParam{64, 1024, 6},
                      EngineParam{1024, 512, 80}));

// --- Allocator safety across random workloads ----------------------

class AllocatorSafety : public ::testing::TestWithParam<int>
{
};

TEST_P(AllocatorSafety, PlacementsRespectBudgetsAndOccupancy)
{
    const int seed = GetParam();
    LayoutConfig layout_cfg;
    layout_cfg.aisleCount = 2;
    layout_cfg.rowsPerAisle = 2;
    layout_cfg.racksPerRow = 4;
    layout_cfg.serversPerRack = 4;
    DatacenterLayout dc(layout_cfg);
    ThermalModel thermal(dc, ThermalConfig{},
                         static_cast<std::uint64_t>(seed));
    PowerModel power{PowerConfig{}};
    CoolingPlant cooling(dc, thermal);
    PowerHierarchy hierarchy(dc, power);
    ProfileBank bank(dc);
    bank.offlineProfile(thermal, power,
                        static_cast<std::uint64_t>(seed) + 1);

    ClusterView view;
    view.layout = &dc;
    view.cooling = &cooling;
    view.power = &hierarchy;
    view.profiles = &bank;
    view.outsideC = 27.0;
    view.dcLoadFrac = 0.7;
    constexpr int kRequests = 40;
    const std::vector<double> loads(dc.serverCount(), 0.0);
    std::vector<std::uint32_t> server_vm(dc.serverCount(),
                                         VmId::invalidIndex);
    std::vector<VmSlot> slots(kRequests, VmSlot::Empty);
    std::vector<double> peaks(kRequests, 0.0);
    view.serverLoads = loads;
    view.serverVm = server_vm;
    view.vmSlot = slots;
    view.vmPeakLoad = peaks;

    TapasAllocator allocator{TapasPolicyConfig{}};
    Rng rng(static_cast<std::uint64_t>(seed) * 7 + 3);
    int placed = 0;
    for (int i = 0; i < kRequests; ++i) {
        PlacementRequest request;
        request.id = VmId(static_cast<std::uint32_t>(i));
        request.kind =
            rng.bernoulli(0.5) ? VmKind::SaaS : VmKind::IaaS;
        request.predictedPeakLoad = rng.uniform(0.3, 1.0);
        const auto pick = allocator.place(request, view);
        if (!pick.has_value())
            continue;
        // Never an occupied server.
        ASSERT_FALSE(view.occupied(pick->index));
        server_vm[pick->index] = request.id.index;
        slots[request.id.index] =
            request.kind == VmKind::SaaS ? VmSlot::Saas : VmSlot::Iaas;
        peaks[request.id.index] = request.predictedPeakLoad;
        ++placed;
    }
    EXPECT_GT(placed, 30);

    // Predicted peaks stay within every budget after the run.
    for (const Row &row : dc.rows()) {
        EXPECT_LE(predictedRowPower(view, row.id, ServerId(), 0.0),
                  hierarchy.effectiveRowProvision(row.id).value() *
                      1.0001);
    }
    for (const Aisle &aisle : dc.aisles()) {
        EXPECT_LE(predictedAisleAirflow(view, aisle.id, ServerId(), 0.0),
                  cooling.effectiveProvision(aisle.id).value() *
                      1.0001);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorSafety,
                         ::testing::Range(1, 9));

// --- Router liveness across load patterns ---------------------------

class RouterLiveness : public ::testing::TestWithParam<int>
{
};

TEST_P(RouterLiveness, AlwaysPicksAnAcceptingEngine)
{
    const int seed = GetParam();
    const PerfModel perf = PerfModel::withReferenceSlo(
        ServerSpec::a100(), PerfParams::forSku(GpuSku::A100));
    const ConfigProfile profile = perf.profile(referenceConfig());

    std::vector<std::unique_ptr<InferenceEngine>> engines;
    std::vector<RouteCandidate> candidates;
    for (std::uint32_t i = 0; i < 6; ++i) {
        engines.push_back(std::make_unique<InferenceEngine>(
            profile, perf.slo()));
        candidates.push_back(
            {VmId(i), ServerId(i), engines.back().get()});
    }
    // Randomly reconfigure some engines away (non-accepting).
    Rng rng(static_cast<std::uint64_t>(seed));
    InstanceConfig smaller = referenceConfig();
    smaller.model = ModelSize::B13;
    bool any_accepting = false;
    for (auto &engine : engines) {
        if (rng.bernoulli(0.5)) {
            engine->requestReconfig(perf.profile(smaller), 60.0);
        } else {
            any_accepting = true;
        }
    }

    TapasRouter router{TapasPolicyConfig{}};
    for (std::uint32_t r = 0; r < 50; ++r) {
        Request request;
        request.id = RequestId(r);
        request.customer = CustomerId(r % 9);
        request.promptTokens = 256;
        request.outputTokens = 64;
        const VmId pick = router.route(request, candidates, nullptr);
        if (!any_accepting) {
            EXPECT_FALSE(pick.valid());
            continue;
        }
        ASSERT_TRUE(pick.valid());
        EXPECT_TRUE(engines[pick.index]->accepting());
        engines[pick.index]->enqueue(request);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterLiveness,
                         ::testing::Range(1, 9));

// --- Thermal monotonicity across the fleet --------------------------

class ThermalMonotonicity : public ::testing::TestWithParam<int>
{
};

TEST_P(ThermalMonotonicity, TempsIncreaseWithPowerAndOutside)
{
    const int server = GetParam();
    LayoutConfig layout_cfg;
    layout_cfg.aisleCount = 2;
    layout_cfg.rowsPerAisle = 2;
    layout_cfg.racksPerRow = 4;
    layout_cfg.serversPerRack = 4;
    DatacenterLayout dc(layout_cfg);
    ThermalModel thermal(dc, ThermalConfig{}, 99);
    const ServerId sid(static_cast<std::uint32_t>(server));

    for (int g = 0; g < 8; ++g) {
        double prev = -1e9;
        for (double watts = 60.0; watts <= 400.0; watts += 20.0) {
            const double t =
                thermal
                    .gpuTemperature(sid, g, Celsius(24.0),
                                    Watts(watts))
                    .value();
            EXPECT_GT(t, prev);
            prev = t;
        }
    }
    double prev_inlet = -1e9;
    for (double outside = 0.0; outside <= 40.0; outside += 2.0) {
        const double t =
            thermal.inletTemperature(sid, Celsius(outside), 0.5, 0.0)
                .value();
        EXPECT_GE(t, prev_inlet);
        prev_inlet = t;
    }
}

INSTANTIATE_TEST_SUITE_P(Servers, ThermalMonotonicity,
                         ::testing::Values(0, 7, 15, 23, 31, 47,
                                           55, 63));

// --- Parallel scenario sweeps match serial replications -------------

SimConfig
sweepScenario(std::uint64_t seed)
{
    SimConfig cfg = smallTestScenario(seed);
    cfg.horizon = 4 * kHour; // keep the grid fast
    return cfg;
}

TEST(ScenarioSweepDeterminism, ParallelMatchesSerialRuns)
{
    // 2 policy variants x 2 seeds, swept in parallel.
    std::vector<SweepJob> variants;
    variants.push_back({"baseline", sweepScenario(1).asBaseline()});
    variants.push_back({"tapas", sweepScenario(1).asTapas()});
    const auto jobs = ScenarioSweep::crossSeeds(variants, {3, 11});
    ASSERT_EQ(jobs.size(), 4u);

    ThreadPool pool(4);
    ScenarioSweep sweep(pool);
    const auto outcomes = sweep.run(jobs);
    ASSERT_EQ(outcomes.size(), jobs.size());

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].name);
        ClusterSim serial(jobs[i].config);
        serial.run();
        const SimMetrics &sm = serial.metrics();
        const SimMetrics &pm = outcomes[i].metrics;

        EXPECT_EQ(outcomes[i].seed, jobs[i].config.seed);
        EXPECT_EQ(pm.totalSteps, sm.totalSteps);
        EXPECT_EQ(pm.vmsPlaced, sm.vmsPlaced);
        EXPECT_EQ(pm.requestsCompleted, sm.requestsCompleted);
        EXPECT_DOUBLE_EQ(pm.totalTokens, sm.totalTokens);
        EXPECT_DOUBLE_EQ(pm.datacenterPowerW.mean(),
                         sm.datacenterPowerW.mean());
        EXPECT_DOUBLE_EQ(pm.maxGpuTempC.maxValue(),
                         sm.maxGpuTempC.maxValue());
    }

    // Distinct seeds really are distinct replications.
    EXPECT_NE(outcomes[0].metrics.datacenterPowerW.mean(),
              outcomes[1].metrics.datacenterPowerW.mean());
}

TEST(ScenarioSweepGrids, PolicyMatrixBuildsNamedCombinations)
{
    const auto jobs = ScenarioSweep::crossPolicies(
        {{"base", sweepScenario(1)}},
        ScenarioSweep::ablationMatrix());
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs.front().name, "base/Baseline");
    EXPECT_FALSE(jobs.front().config.policy.placeEnabled);
    EXPECT_EQ(jobs.back().name, "base/TAPAS");
    EXPECT_TRUE(jobs.back().config.policy.placeEnabled);
    EXPECT_TRUE(jobs.back().config.policy.routeEnabled);
    EXPECT_TRUE(jobs.back().config.policy.configEnabled);
    // All eight combinations are distinct.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        for (std::size_t j = i + 1; j < jobs.size(); ++j) {
            const TapasPolicyConfig &a = jobs[i].config.policy;
            const TapasPolicyConfig &b = jobs[j].config.policy;
            EXPECT_FALSE(a.placeEnabled == b.placeEnabled &&
                         a.routeEnabled == b.routeEnabled &&
                         a.configEnabled == b.configEnabled);
        }
    }
}

TEST(ScenarioSweepGrids, OversubscriptionRangeComposesWithSeeds)
{
    const auto jobs = ScenarioSweep::crossSeeds(
        ScenarioSweep::crossOversubscription(
            {{"grid", sweepScenario(1).asTapas()}}, {0, 20, 40}),
        {5, 9});
    ASSERT_EQ(jobs.size(), 6u);
    EXPECT_EQ(jobs[0].name, "grid/os0/s5");
    EXPECT_EQ(jobs[0].config.oversubscriptionPct, 0);
    EXPECT_EQ(jobs[0].config.seed, 5u);
    EXPECT_EQ(jobs[5].name, "grid/os40/s9");
    EXPECT_EQ(jobs[5].config.oversubscriptionPct, 40);
    EXPECT_EQ(jobs[5].config.seed, 9u);
}

TEST(ScenarioSweepGrids, SweepBenchEmitterWritesTrajectoryJson)
{
    std::vector<SweepJob> jobs;
    SimConfig cfg = sweepScenario(3).asTapas();
    cfg.horizon = kHour;
    jobs.push_back({"emit", cfg});
    ThreadPool pool(2);
    const auto outcomes = ScenarioSweep(pool).run(jobs);
    const std::string path = "BENCH_test_sweep_emitter.json";
    ASSERT_TRUE(
        writeSweepBenchJson(path, "test_sweep", "test", outcomes));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string json = buffer.str();
    EXPECT_NE(json.find("\"bench\": \"test_sweep\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"emit\""), std::string::npos);
    EXPECT_NE(json.find("\"steps_per_s\": "), std::string::npos);
    EXPECT_NE(json.find("\"peak_row_power_frac\": "),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(ScenarioSweepDeterminism, ThreadCountDoesNotChangeResults)
{
    // One Fig. 20 row: all eight policy combinations of one
    // scenario, so jobs share workers and run concurrently.
    const auto jobs = ScenarioSweep::crossPolicies(
        {{"row", sweepScenario(5)}}, ScenarioSweep::ablationMatrix());
    ASSERT_EQ(jobs.size(), 8u);

    // Each job's full state digest, captured on its worker thread
    // into the job's own slot.
    auto run = [&](unsigned threads,
                   std::vector<std::uint64_t> &digests) {
        digests.assign(jobs.size(), 0);
        ThreadPool pool(threads);
        return ScenarioSweep(pool).run(
            jobs, [&](const SweepJob &job, ClusterSim &sim) {
                digests[static_cast<std::size_t>(&job - jobs.data())] =
                    sim.stateDigest();
            });
    };
    std::vector<std::uint64_t> digests_one;
    std::vector<std::uint64_t> digests_many;
    const auto a = run(1, digests_one);
    const auto b = run(3, digests_many);
    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].name);
        EXPECT_NE(digests_one[i], 0u);
        EXPECT_EQ(digests_one[i], digests_many[i]);
        EXPECT_EQ(a[i].metrics.totalSteps, b[i].metrics.totalSteps);
        EXPECT_DOUBLE_EQ(a[i].metrics.datacenterPowerW.mean(),
                         b[i].metrics.datacenterPowerW.mean());
        EXPECT_DOUBLE_EQ(a[i].metrics.maxGpuTempC.maxValue(),
                         b[i].metrics.maxGpuTempC.maxValue());
    }
}

// --- Fault-path determinism across the thread pool ------------------

/** sweepScenario with every stochastic fault process enabled plus
 *  sensor quarantine and online refits — the full robustness path. */
SimConfig
faultSweepScenario(std::uint64_t seed)
{
    SimConfig cfg = sweepScenario(seed);
    cfg.policy.sensorQuarantineEnabled = true;
    cfg.profileRefitPeriod = 2 * kHour;
    cfg.faults.ahu = {3.0 * kHour, 1.0 * kHour, 0.85};
    cfg.faults.ups = {4.0 * kHour, 1.0 * kHour, 0.8};
    cfg.faults.chiller = {6.0 * kHour, 2.0 * kHour, 0.9};
    cfg.faults.sensor = {2.0 * kHour, 1.0 * kHour, 1.0};
    return cfg;
}

TEST(ScenarioSweepDeterminism, FaultPathParallelMatchesSerial)
{
    // Same seed + same fault plan => bit-identical metrics whether
    // the replication ran serially or inside the parallel sweep,
    // including every robustness counter.
    std::vector<SweepJob> variants;
    variants.push_back(
        {"baseline", faultSweepScenario(1).asBaseline()});
    variants.push_back({"tapas", faultSweepScenario(1).asTapas()});
    const auto jobs = ScenarioSweep::crossSeeds(variants, {3, 11});

    ThreadPool pool(4);
    const auto outcomes = ScenarioSweep(pool).run(jobs);
    ASSERT_EQ(outcomes.size(), jobs.size());

    bool any_faults = false;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].name);
        ClusterSim serial(jobs[i].config);
        serial.run();
        const SimMetrics &sm = serial.metrics();
        const SimMetrics &pm = outcomes[i].metrics;

        EXPECT_EQ(pm.totalSteps, sm.totalSteps);
        EXPECT_DOUBLE_EQ(pm.totalTokens, sm.totalTokens);
        EXPECT_DOUBLE_EQ(pm.datacenterPowerW.mean(),
                         sm.datacenterPowerW.mean());
        EXPECT_DOUBLE_EQ(pm.maxGpuTempC.maxValue(),
                         sm.maxGpuTempC.maxValue());

        EXPECT_EQ(pm.inletExcursionSteps, sm.inletExcursionSteps);
        EXPECT_EQ(pm.gpuExcursionSteps, sm.gpuExcursionSteps);
        EXPECT_EQ(pm.powerViolationSteps, sm.powerViolationSteps);
        EXPECT_EQ(pm.faultSteps, sm.faultSteps);
        EXPECT_EQ(pm.faultActiveS, sm.faultActiveS);
        EXPECT_DOUBLE_EQ(pm.faultDemandTokens, sm.faultDemandTokens);
        EXPECT_DOUBLE_EQ(pm.faultServedTokens, sm.faultServedTokens);
        EXPECT_EQ(pm.quarantinedServerSteps,
                  sm.quarantinedServerSteps);
        EXPECT_EQ(pm.recoverySumS, sm.recoverySumS);
        EXPECT_EQ(pm.maxRecoveryS, sm.maxRecoveryS);
        EXPECT_EQ(pm.recoveries, sm.recoveries);
        any_faults = any_faults || pm.faultSteps > 0;
    }
    // The plan actually injected component faults somewhere on the
    // grid — otherwise the equalities above are vacuous.
    EXPECT_TRUE(any_faults);
}

TEST(ScenarioSweepDeterminism, FaultPathThreadCountInvariant)
{
    std::vector<SweepJob> jobs;
    jobs.push_back({"tapas", faultSweepScenario(7).asTapas()});

    ThreadPool one(1);
    ThreadPool many(3);
    const auto a = ScenarioSweep(one).run(jobs);
    const auto b = ScenarioSweep(many).run(jobs);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_DOUBLE_EQ(a[0].metrics.totalTokens,
                     b[0].metrics.totalTokens);
    EXPECT_EQ(a[0].metrics.faultSteps, b[0].metrics.faultSteps);
    EXPECT_EQ(a[0].metrics.inletExcursionSteps,
              b[0].metrics.inletExcursionSteps);
    EXPECT_EQ(a[0].metrics.quarantinedServerSteps,
              b[0].metrics.quarantinedServerSteps);
    EXPECT_EQ(a[0].metrics.recoverySumS, b[0].metrics.recoverySumS);
}

// --- Sweep failures carry the failing job's identity ----------------

TEST(ScenarioSweepErrors, FailurePropagatesJobIdentity)
{
    // A failure inside a grid of replications must surface which
    // job died (grid coordinates in the name, plus index and seed),
    // not just the raw error.
    std::vector<SweepJob> variants;
    SimConfig cfg = sweepScenario(1);
    cfg.horizon = kHour;
    variants.push_back({"grid", cfg});
    const auto jobs = ScenarioSweep::crossSeeds(variants, {3, 11});

    ThreadPool pool(2);
    ScenarioSweep sweep(pool);
    const auto poison = [](const SweepJob &job, ClusterSim &) {
        if (job.name == "grid/s11")
            throw std::runtime_error("synthetic inspect failure");
    };

    try {
        sweep.run(jobs, poison);
        FAIL() << "expected the poisoned job to propagate";
    } catch (const std::runtime_error &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("1 of 2 sweep jobs failed"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("grid/s11"), std::string::npos) << what;
        EXPECT_NE(what.find("index 1"), std::string::npos) << what;
        EXPECT_NE(what.find("seed 11"), std::string::npos) << what;
        EXPECT_NE(what.find("synthetic inspect failure"),
                  std::string::npos)
            << what;
    }
}

TEST(ScenarioSweepErrors, AllFailuresAreCollectedNotJustTheFirst)
{
    // One bad job must not abandon the rest of the grid: the healthy
    // jobs still complete, and EVERY failure is reported together.
    std::vector<SweepJob> variants;
    SimConfig cfg = sweepScenario(1);
    cfg.horizon = kHour;
    variants.push_back({"grid", cfg});
    const auto jobs =
        ScenarioSweep::crossSeeds(variants, {3, 11, 17, 23});

    ThreadPool pool(2);
    ScenarioSweep sweep(pool);
    std::atomic<int> survivors{0};
    const auto poison = [&](const SweepJob &job, ClusterSim &) {
        if (job.name == "grid/s3")
            throw std::runtime_error("first poison");
        if (job.name == "grid/s17")
            throw std::runtime_error("second poison");
        ++survivors;
    };

    try {
        sweep.run(jobs, poison);
        FAIL() << "expected the poisoned jobs to propagate";
    } catch (const std::runtime_error &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("2 of 4 sweep jobs failed"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("grid/s3"), std::string::npos) << what;
        EXPECT_NE(what.find("first poison"), std::string::npos)
            << what;
        EXPECT_NE(what.find("grid/s17"), std::string::npos) << what;
        EXPECT_NE(what.find("second poison"), std::string::npos)
            << what;
    }
    // The healthy jobs ran to completion despite the failures.
    EXPECT_EQ(survivors.load(), 2);
}

// --- Crash recovery: resume, quarantine, corrupt snapshots ----------

SweepRecovery
testRecovery()
{
    SweepRecovery recovery;
    recovery.checkpointDir = ::testing::TempDir();
    recovery.checkpointPeriod = kHour;
    return recovery;
}

TEST(ScenarioSweepRecovery, ResumedJobMatchesStraightThroughRun)
{
    // Simulate a crashed sweep: a half-finished snapshot is already
    // on disk for one job. Rerunning the sweep must pick it up
    // (outcome.resumed) and land on bit-identical metrics.
    std::vector<SweepJob> jobs;
    jobs.push_back({"recover", sweepScenario(9).asTapas()});
    const SweepRecovery recovery = testRecovery();
    const std::string ckpt =
        recovery.pathFor(jobs[0].name, jobs[0].config.seed);

    ClusterSim half(jobs[0].config);
    half.runSteps(
        static_cast<int>(jobs[0].config.horizon /
                         jobs[0].config.stepLength / 2));
    ASSERT_TRUE(half.saveCheckpoint(ckpt).ok());

    ThreadPool pool(2);
    ScenarioSweep sweep(pool);
    const auto outcomes = sweep.run(jobs, {}, recovery);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].resumed);
    EXPECT_EQ(outcomes[0].attempts, 1);

    ClusterSim reference(jobs[0].config);
    reference.run();
    EXPECT_EQ(outcomes[0].metrics.totalSteps,
              reference.metrics().totalSteps);
    EXPECT_DOUBLE_EQ(outcomes[0].metrics.totalTokens,
                     reference.metrics().totalTokens);
    EXPECT_DOUBLE_EQ(outcomes[0].metrics.datacenterPowerW.mean(),
                     reference.metrics().datacenterPowerW.mean());
    EXPECT_EQ(outcomes[0].metrics.vmsPlaced,
              reference.metrics().vmsPlaced);

    // Success cleaned up the snapshot and the attempt sidecar.
    EXPECT_FALSE(fileExists(ckpt));
    EXPECT_FALSE(fileExists(ckpt + ".attempts"));
}

TEST(ScenarioSweepRecovery, CorruptSnapshotFallsBackToFreshStart)
{
    std::vector<SweepJob> jobs;
    jobs.push_back({"corrupt", sweepScenario(13).asTapas()});
    const SweepRecovery recovery = testRecovery();
    const std::string ckpt =
        recovery.pathFor(jobs[0].name, jobs[0].config.seed);

    // A torn write: half a snapshot.
    ClusterSim half(jobs[0].config);
    half.runSteps(10);
    ASSERT_TRUE(half.saveCheckpoint(ckpt).ok());
    Result<std::vector<std::uint8_t>> bytes = readFileBytes(ckpt);
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(atomicWriteFile(ckpt, bytes.value().data(),
                                bytes.value().size() / 2)
                    .ok());

    ThreadPool pool(2);
    ScenarioSweep sweep(pool);
    const auto outcomes = sweep.run(jobs, {}, recovery);
    ASSERT_EQ(outcomes.size(), 1u);
    // The job did not resume — it started over and still finished
    // with the right answer.
    EXPECT_FALSE(outcomes[0].resumed);
    ClusterSim reference(jobs[0].config);
    reference.run();
    EXPECT_DOUBLE_EQ(outcomes[0].metrics.totalTokens,
                     reference.metrics().totalTokens);
    EXPECT_FALSE(fileExists(ckpt));
}

TEST(ScenarioSweepRecovery, CrashingJobIsQuarantinedAfterMaxAttempts)
{
    std::vector<SweepJob> jobs;
    jobs.push_back({"crasher", sweepScenario(17).asTapas()});
    jobs.push_back({"healthy", sweepScenario(19).asTapas()});
    SweepRecovery recovery = testRecovery();
    recovery.maxAttempts = 3;
    const std::string crasher_ckpt =
        recovery.pathFor(jobs[0].name, jobs[0].config.seed);

    ThreadPool pool(2);
    ScenarioSweep sweep(pool);
    const auto poison = [](const SweepJob &job, ClusterSim &) {
        if (job.name == "crasher")
            throw std::runtime_error("dies every time");
    };

    // Attempts 1..maxAttempts: the job runs (and dies); its attempt
    // sidecar survives each failure.
    for (int attempt = 1; attempt <= recovery.maxAttempts;
         ++attempt) {
        try {
            sweep.run(jobs, poison, recovery);
            FAIL() << "expected failure on attempt " << attempt;
        } catch (const std::runtime_error &err) {
            const std::string what = err.what();
            EXPECT_NE(what.find("crasher"), std::string::npos)
                << what;
            if (attempt < recovery.maxAttempts) {
                EXPECT_NE(what.find("dies every time"),
                          std::string::npos)
                    << what;
            }
        }
    }

    // Attempt maxAttempts+1: the job is quarantined without running
    // — the report says so and names the sidecar to remove.
    try {
        sweep.run(jobs, poison, recovery);
        FAIL() << "expected quarantine failure";
    } catch (const std::runtime_error &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("quarantined after 3 crashing attempts"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(".attempts"), std::string::npos) << what;
        // The quarantined job did NOT run this time.
        EXPECT_EQ(what.find("dies every time"), std::string::npos)
            << what;
    }

    removeFileIfExists(crasher_ckpt);
    removeFileIfExists(crasher_ckpt + ".attempts");
}

} // namespace
} // namespace tapas
