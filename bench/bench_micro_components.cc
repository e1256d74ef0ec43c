/**
 * @file
 * Microbenchmarks (google-benchmark) for the TAPAS decision
 * components: placement, routing, risk refresh, configuration
 * choice, and the ground-truth model evaluations. These bound the
 * control-plane overheads the paper's Section 4.5 claims are
 * lightweight. Three checkpoint layers have their own numbers too:
 * the CRC-32 kernel, the whole-record server ring codec, and a
 * fleet-sized save to a file.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "core/allocator.hh"
#include "core/configurator.hh"
#include "core/risk.hh"
#include "core/router.hh"
#include "dcsim/layout.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"
#include "llm/engine.hh"
#include "telemetry/history.hh"
#include "telemetry/profiles.hh"

namespace {

using namespace tapas;

/** Shared fixture: 480 servers, or 1344 at 28 racks per row. */
struct World
{
    explicit World(int racks_per_row = 10)
        : dc(makeLayout(racks_per_row)), thermal(dc, ThermalConfig{}, 42),
          power(PowerConfig{}), cooling(dc, thermal),
          hierarchy(dc, power), bank(dc),
          perf(PerfModel::withReferenceSlo(
              ServerSpec::a100(), PerfParams::forSku(GpuSku::A100)))
    {
        bank.offlineProfile(thermal, power, 7);
        view.layout = &dc;
        view.cooling = &cooling;
        view.power = &hierarchy;
        view.profiles = &bank;
        view.outsideC = 26.0;
        view.dcLoadFrac = 0.6;
        // Every other server hosts a VM whose id is the server's.
        serverLoads.assign(dc.serverCount(), 0.5);
        serverVm.assign(dc.serverCount(), VmId::invalidIndex);
        vmSlot.assign(dc.serverCount(), VmSlot::Empty);
        vmPeakLoad.assign(dc.serverCount(), 0.0);
        Rng rng(3);
        for (std::size_t s = 0; s < dc.serverCount(); s += 2) {
            serverVm[s] = static_cast<std::uint32_t>(s);
            vmSlot[s] = s % 4 == 0 ? VmSlot::Iaas : VmSlot::Saas;
            vmPeakLoad[s] = rng.uniform(0.4, 1.0);
        }
        view.serverLoads = serverLoads;
        view.serverVm = serverVm;
        view.vmSlot = vmSlot;
        view.vmPeakLoad = vmPeakLoad;
        gpuPower.assign(dc.serverCount() * 8, 200.0);
    }

    static LayoutConfig
    makeLayout(int racks_per_row)
    {
        LayoutConfig cfg;
        cfg.aisleCount = 6;
        cfg.rowsPerAisle = 2;
        cfg.racksPerRow = racks_per_row;
        cfg.serversPerRack = 4;
        return cfg;
    }

    DatacenterLayout dc;
    ThermalModel thermal;
    PowerModel power;
    CoolingPlant cooling;
    PowerHierarchy hierarchy;
    ProfileBank bank;
    PerfModel perf;
    std::vector<double> serverLoads;
    std::vector<std::uint32_t> serverVm;
    std::vector<VmSlot> vmSlot;
    std::vector<double> vmPeakLoad;
    ClusterView view;
    std::vector<double> gpuPower;
};

World &
world()
{
    static World instance;
    return instance;
}

void
BM_TapasPlacement(benchmark::State &state)
{
    World &w = world();
    TapasAllocator alloc{TapasPolicyConfig{}};
    PlacementRequest request;
    request.kind = VmKind::IaaS;
    request.predictedPeakLoad = 0.9;
    for (auto _ : state) {
        benchmark::DoNotOptimize(alloc.place(request, w.view));
    }
}
BENCHMARK(BM_TapasPlacement);

/** The fig21 oversubscription fleet size (960 servers + 40%). */
World &
fleetWorld()
{
    static World instance(28);
    return instance;
}

/**
 * One placement phase on the half-full 1344-server world: 8
 * requests, each pick committed to the view. Arg 1 opens a round
 * around them (one basis, folded by commit()); arg 0 opens none, so
 * every place() builds its own basis. The picks are vacated after
 * each phase, so every iteration starts from the same view.
 */
void
BM_TapasPlacementRound(benchmark::State &state)
{
    World &w = fleetWorld();
    const bool in_round = state.range(0) != 0;
    TapasAllocator alloc{TapasPolicyConfig{}};
    PlacementRequest requests[8];
    for (int i = 0; i < 8; ++i) {
        requests[i].kind = i % 2 == 0 ? VmKind::IaaS : VmKind::SaaS;
        requests[i].predictedPeakLoad = 0.5 + 0.05 * i;
    }
    std::vector<ServerId> picked;
    picked.reserve(8);
    for (auto _ : state) {
        if (in_round)
            alloc.beginRound();
        for (const PlacementRequest &request : requests) {
            const auto pick = alloc.place(request, w.view);
            benchmark::DoNotOptimize(pick);
            if (!pick.has_value())
                continue;
            // The fixture's VM ids equal server ids.
            const std::uint32_t s = pick->index;
            w.serverVm[s] = s;
            w.vmSlot[s] = request.kind == VmKind::SaaS ? VmSlot::Saas
                                                       : VmSlot::Iaas;
            w.vmPeakLoad[s] = request.predictedPeakLoad;
            if (in_round)
                alloc.commit(*pick, w.view);
            picked.push_back(*pick);
        }
        if (in_round)
            alloc.endRound();
        for (ServerId sid : picked) {
            w.serverVm[sid.index] = VmId::invalidIndex;
            w.vmSlot[sid.index] = VmSlot::Empty;
        }
        picked.clear();
    }
    state.SetLabel(in_round ? "round" : "no round");
}
BENCHMARK(BM_TapasPlacementRound)->ArgName("round")->Arg(0)->Arg(1);

void
BM_BaselinePlacement(benchmark::State &state)
{
    World &w = world();
    BaselineAllocator alloc;
    PlacementRequest request;
    for (auto _ : state) {
        benchmark::DoNotOptimize(alloc.place(request, w.view));
    }
}
BENCHMARK(BM_BaselinePlacement);

void
BM_RiskRefresh(benchmark::State &state)
{
    World &w = world();
    RiskAssessor assessor{TapasPolicyConfig{}};
    for (auto _ : state) {
        assessor.refresh(w.view, w.gpuPower);
        benchmark::DoNotOptimize(assessor.flaggedCount());
    }
}
BENCHMARK(BM_RiskRefresh);

/** 50 idle reference-config VMs, one on every other server. */
struct RouterCandidates
{
    explicit RouterCandidates(World &w)
        : profile(w.perf.profile(referenceConfig()))
    {
        for (std::uint32_t i = 0; i < 50; ++i) {
            engines.push_back(std::make_unique<InferenceEngine>(
                profile, w.perf.slo()));
            list.push_back(
                {VmId(i), ServerId(i * 2), engines.back().get()});
        }
    }

    ConfigProfile profile;
    std::vector<std::unique_ptr<InferenceEngine>> engines;
    std::vector<RouteCandidate> list;
};

void
BM_RouterDecision(benchmark::State &state)
{
    World &w = world();
    TapasRouter router{TapasPolicyConfig{}};
    const RouterCandidates candidates(w);
    Request request;
    request.customer = CustomerId(7);
    request.promptTokens = 512;
    request.outputTokens = 128;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            router.route(request, candidates.list, nullptr));
    }
}
BENCHMARK(BM_RouterDecision);

void
BM_RouterSplit(benchmark::State &state)
{
    World &w = world();
    TapasRouter router{TapasPolicyConfig{}};
    RiskAssessor assessor{TapasPolicyConfig{}};
    assessor.refresh(w.view, w.gpuPower);
    const RouterCandidates candidates(w);
    // Half the endpoint's capacity: the slack-weighted path, no spill.
    const double demand = 0.5 * static_cast<double>(
        candidates.list.size()) * candidates.profile.goodputTps;
    std::vector<double> shares(candidates.list.size());
    for (auto _ : state) {
        router.split(candidates.list, demand, w.view, &assessor,
                     shares);
        benchmark::DoNotOptimize(shares.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_RouterSplit);

void
BM_ConfiguratorChoice(benchmark::State &state)
{
    World &w = world();
    InstanceConfigurator configurator(w.perf, TapasPolicyConfig{});
    const ConfigProfile current =
        w.perf.profile(referenceConfig());
    InstanceLimits limits;
    limits.maxServerPowerW = 5200.0;
    limits.maxGpuTempC = 77.0;
    limits.maxAirflowCfm = 1000.0;
    limits.inletC = 26.0;
    // Alternating demands: every call rebuilds the kept plan.
    double demand = 2500.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(configurator.choose(
            ServerId(3), w.bank, limits, demand, 0.999, current));
        demand = demand == 2500.0 ? 2400.0 : 2500.0;
    }
}
BENCHMARK(BM_ConfiguratorChoice);

/**
 * A configure pass in miniature: 185 instances at 80 distinct
 * demands in the controller's demand-sorted order, each under its
 * own server's limits, so equal-demand runs keep the configurator's
 * plan the way the controller's pass does (BM_ConfiguratorChoice
 * above rebuilds it on every call instead). Reports ns and
 * candidates scored per instance.
 */
void
BM_ConfigurePlanMix(benchmark::State &state)
{
    World &w = world();
    InstanceConfigurator configurator(w.perf, TapasPolicyConfig{});
    const ConfigProfile current =
        w.perf.profile(referenceConfig());
    struct Instance
    {
        ServerId server;
        InstanceLimits limits;
        double demandTps = 0.0;
    };
    Rng rng(11);
    std::vector<double> demands(80);
    for (double &d : demands)
        d = rng.uniform(20.0, 1.1 * current.goodputTps);
    std::vector<Instance> instances(185);
    for (std::size_t i = 0; i < instances.size(); ++i) {
        Instance &inst = instances[i];
        inst.server = ServerId(
            static_cast<std::uint32_t>((7 * i) % w.dc.serverCount()));
        inst.limits.maxServerPowerW = rng.uniform(4200.0, 6500.0);
        inst.limits.maxGpuTempC = 77.0;
        inst.limits.maxAirflowCfm = rng.uniform(700.0, 1200.0);
        inst.limits.inletC = rng.uniform(22.0, 30.0);
        inst.demandTps = demands[i % demands.size()];
    }
    std::sort(instances.begin(), instances.end(),
              [](const Instance &a, const Instance &b) {
                  return a.demandTps < b.demandTps;
              });
    for (auto _ : state) {
        for (const Instance &inst : instances) {
            benchmark::DoNotOptimize(configurator.choose(
                inst.server, w.bank, inst.limits, inst.demandTps,
                0.999, current));
        }
    }
    const double per_pass = static_cast<double>(instances.size());
    state.counters["per_instance"] = benchmark::Counter(
        per_pass,
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
    state.counters["scored_per_instance"] =
        static_cast<double>(configurator.lastPlan().scored) /
        (per_pass * static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ConfigurePlanMix);

void
BM_InletModelEval(benchmark::State &state)
{
    World &w = world();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            w.thermal.inletTemperature(ServerId(5), Celsius(28.0),
                                       0.7, 0.02));
    }
}
BENCHMARK(BM_InletModelEval);

void
BM_FittedInletPrediction(benchmark::State &state)
{
    // The fleet inlet pass the risk refresh and configure pass run.
    World &w = world();
    const std::size_t servers = w.dc.serverCount();
    std::vector<double> inlet(servers);
    for (auto _ : state) {
        w.bank.predictInlet(ServerBatch::firstN(servers), w.view.outsideC,
                            w.view.dcLoadFrac, inlet.data());
        benchmark::DoNotOptimize(inlet.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(servers));
}
BENCHMARK(BM_FittedInletPrediction);

void
BM_EngineStepBusy(benchmark::State &state)
{
    World &w = world();
    const ConfigProfile profile =
        w.perf.profile(referenceConfig());
    for (auto _ : state) {
        state.PauseTiming();
        InferenceEngine engine(profile, w.perf.slo());
        Request request;
        request.promptTokens = 512;
        request.outputTokens = 128;
        for (std::uint32_t i = 0; i < 32; ++i) {
            request.id = RequestId(i);
            engine.enqueue(request);
        }
        state.ResumeTiming();
        engine.step(0.0, 60.0);
        benchmark::DoNotOptimize(engine.stats().completed);
    }
}
BENCHMARK(BM_EngineStepBusy);

void
BM_Crc32(benchmark::State &state)
{
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(state.range(0)));
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint8_t &b : bytes) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<std::uint8_t>(x >> 32);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(bytes.data(), bytes.size()));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(1 << 20)->Arg(32 << 20);

/** Write (0) or read (1) one full server ring: a week of 10-minute
 *  samples, 1008 of them, wrapped so both chunks are non-empty. */
void
BM_ServerRingCheckpoint(benchmark::State &state)
{
    constexpr std::size_t kSamples = 1008;
    ServerSeriesRing ring(kSamples);
    for (SimTime t = 0; t < static_cast<SimTime>(kSamples + 100); ++t) {
        const float f = static_cast<float>(t);
        ring.push({t * 600, 20.0f + f, 60.0f, 3000.0f + f, 0.5f, 25.0f,
                   0.6f});
    }
    Archive encoded = Archive::writer();
    ring.checkpointState(encoded);
    const std::vector<std::uint8_t> bytes(encoded.buffer().begin(),
                                          encoded.buffer().end());
    const bool read = state.range(0) == 1;
    for (auto _ : state) {
        if (read) {
            ServerSeriesRing back;
            Archive ar = Archive::reader(bytes);
            back.checkpointState(ar);
            benchmark::DoNotOptimize(back.size());
        } else {
            Archive ar = Archive::writer();
            ring.checkpointState(ar);
            benchmark::DoNotOptimize(ar.buffer().data());
        }
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_ServerRingCheckpoint)->ArgName("read")->Arg(0)->Arg(1);

/**
 * Save a fleet-sized checkpoint to a temp file through
 * CheckpointWriter, fsync and rename included: 960 server rings of a
 * week of 10-minute samples (1008, wrapped) and 24 row-power rings in
 * one telemetry section, and ~1 MB of small fields in another, about
 * what fleet_week's six other sections hold. One save per iteration,
 * so the repetitions give a save-time spread that perfbench's one
 * save per episode cannot.
 */
void
BM_CheckpointSave(benchmark::State &state)
{
    constexpr std::size_t kSamples = 1008;
    TelemetryStore store(kSamples);
    for (SimTime t = 0; t < static_cast<SimTime>(kSamples + 100); ++t) {
        const float f = static_cast<float>(t % 97);
        for (std::uint32_t s = 0; s < 960; ++s) {
            store.recordServer(ServerId(s),
                               {t * 600, 20.0f + f, 60.0f + f,
                                3000.0f + f, 0.5f, 25.0f, 0.6f});
        }
        for (std::uint32_t r = 0; r < 24; ++r)
            store.recordRowPower(RowId(r), t * 600, 1e5 + r + f);
    }
    std::vector<double> small(std::size_t{1} << 17);
    for (std::size_t i = 0; i < small.size(); ++i)
        small[i] = 0.5 * static_cast<double>(i);
    const std::string path =
        (std::filesystem::temp_directory_path() / "bm_checkpoint_save")
            .string();
    for (auto _ : state) {
        CheckpointWriter writer(path, 0x5eed);
        writer.section(1, [&](Archive &ar) { ar.podVector(small); });
        writer.section(3, [&](Archive &ar) { store.checkpointState(ar); });
        const Error err = writer.commit();
        if (!err.ok()) {
            state.SkipWithError(err.message().c_str());
            break;
        }
    }
    Result<CheckpointData> saved = readCheckpointFile(path);
    removeFileIfExists(path);
    if (saved.ok()) {
        std::int64_t bytes = 0;
        for (const CheckpointSection &section : saved.value().sections)
            bytes += static_cast<std::int64_t>(section.payload.size());
        state.SetBytesProcessed(state.iterations() * bytes);
    }
}
BENCHMARK(BM_CheckpointSave)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
