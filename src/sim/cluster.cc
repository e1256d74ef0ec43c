#include "sim/cluster.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.hh"

namespace tapas {

namespace {

/** Telemetry cadence (the paper's 10-minute sensor interval). */
constexpr SimTime kTelemetryPeriod = 10 * kMinute;
/** History span required before templates are trusted. */
constexpr SimTime kMinHistory = kDay;
/** Hardware frequency floor under capping. */
constexpr double kFreqFloor = 0.4;
/** Perf scaling exponent versus frequency (prefill-dominated). */
constexpr double kPerfFreqExponent = 0.8;

VmTraceConfig
normalizedVmTrace(const SimConfig &cfg)
{
    VmTraceConfig out = cfg.vmTrace;
    out.horizon = cfg.horizon;
    if (out.targetVmCount <= 0) {
        const int base = cfg.layout.aisleCount *
            cfg.layout.rowsPerAisle * cfg.layout.racksPerRow *
            cfg.layout.serversPerRack;
        const int base_racks = base / cfg.layout.serversPerRack;
        const int extra_racks =
            (base_racks * cfg.oversubscriptionPct + 99) / 100;
        const int total =
            base + extra_racks * cfg.layout.serversPerRack;
        // Keep ~15% placement slack: full clusters leave the
        // allocator no choices and starve every policy.
        out.targetVmCount = std::max(1, (total * 85) / 100);
    }
    return out;
}

WeatherConfig
normalizedWeather(const SimConfig &cfg)
{
    WeatherConfig out = cfg.weather;
    out.horizon = cfg.horizon + kDay;
    return out;
}

/**
 * Telemetry ring capacity: every series keeps at most the configured
 * retention window (default: the full horizon, so behavior matches
 * an unbounded store), in sensor-cadence samples.
 */
std::size_t
telemetryCapacity(const SimConfig &cfg)
{
    const SimTime retention = cfg.telemetryRetention > 0
        ? cfg.telemetryRetention
        : cfg.horizon;
    return static_cast<std::size_t>(retention / kTelemetryPeriod) + 2;
}

} // namespace

ClusterSim::ClusterSim(const SimConfig &config)
    : cfg(config), layout(cfg.layout),
      thermal(layout, cfg.thermal, mixSeed(cfg.seed, 0x111)),
      powerModel(cfg.power), cooling(layout, thermal),
      hierarchy(layout, powerModel),
      weatherModel(normalizedWeather(cfg), mixSeed(cfg.seed, 0x222)),
      vmGen(normalizedVmTrace(cfg), mixSeed(cfg.seed, 0x333)),
      bank(layout),
      perf(PerfModel::withReferenceSlo(
          layout.specs().front(),
          PerfParams::forSku(layout.specs().front().sku))),
      store(telemetryCapacity(config)),
      noiseRng(mixSeed(cfg.seed, 0x444))
{
    tapas_assert(cfg.stepLength > 0 && cfg.horizon > 0,
                 "step length and horizon must be positive");

    // Oversubscription racks are added after the plants froze their
    // provisioning (the budgets stay at design capacity).
    if (cfg.oversubscriptionPct > 0) {
        const int base_racks = static_cast<int>(layout.rackCount());
        const int extra_racks =
            (base_racks * cfg.oversubscriptionPct + 99) / 100;
        for (int i = 0; i < extra_racks; ++i) {
            layout.addRack(RowId(static_cast<std::uint32_t>(
                i % layout.rowCount())));
        }
        thermal.extend();
    }

    bank.offlineProfile(thermal, powerModel, mixSeed(cfg.seed, 0x555));
    refProfile = perf.profile(referenceConfig());
    refGoodput = refProfile.goodputTps;

    tapas = std::make_unique<TapasController>(
        cfg.policy, layout, cooling, hierarchy, &bank, &perf);
    failureMgr =
        std::make_unique<FailureManager>(cooling, hierarchy, layout);

    // Endpoint demand sized from the steady-state SaaS fleet share.
    const auto &sizes = vmGen.endpointVmCounts();
    double size_total = 0.0;
    for (int s : sizes)
        size_total += s;
    const double saas_steady =
        vmGen.config().targetVmCount * vmGen.config().saasFraction;
    std::vector<EndpointDemand> endpoints;
    for (std::size_t e = 0; e < sizes.size(); ++e) {
        EndpointDemand ep;
        ep.id = EndpointId(static_cast<std::uint32_t>(e));
        const double share =
            size_total > 0.0 ? sizes[e] / size_total : 0.0;
        ep.peakTokensPerS =
            cfg.endpointPeakUtil * refGoodput * saas_steady * share;
        // SaaS inference demand is synchronized across endpoints
        // (business-hours diurnal), the effect the paper exploits.
        ep.peakHour = cfg.demandPeakHour - 1.0 +
            static_cast<double>(e % 3);
        ep.customerCount = 40 + 10 * static_cast<int>(e % 4);
        endpoints.push_back(ep);
    }
    DemandNoise demand_noise;
    demand_noise.sigma = cfg.demandNoiseSigma;
    requestGen = std::make_unique<RequestGenerator>(
        std::move(endpoints), LengthDistribution{},
        mixSeed(cfg.seed, 0x666), demand_noise);

    vmTable.reset(vmGen.records().size());
    saasOpGpuPowerW.assign(vmGen.records().size(), 0.0);
    serverVm.assign(layout.serverCount(), VmId::invalidIndex);
    serverLoads.assign(layout.serverCount(), 0.0);
    serverDrawW.assign(layout.serverCount(), 0.0);
    gpusPerServer = layout.specs().front().gpusPerServer;
    const std::size_t gpus = layout.serverCount() *
        static_cast<std::size_t>(gpusPerServer);
    gpuPowerW.assign(gpus, 0.0);
    gpuTempC.assign(gpus, 25.0);
    hottestGpuC.assign(layout.serverCount(), 25.0);
    inletC.assign(layout.serverCount(), 22.0);

    // Fault engine: no plan, no engine, no step overhead.
    if (cfg.faults.any()) {
        faultEngine = std::make_unique<FaultEngine>(
            cfg.faults, layout, cfg.horizon, cfg.seed);
    }

    throttleAtC.reserve(layout.serverCount());
    for (const Server &server : layout.servers())
        throttleAtC.push_back(
            layout.specOf(server.id).throttleTemp.value());

    serverDrawWatts.assign(layout.serverCount(), Watts(0.0));
    drawsScratch.assign(static_cast<std::size_t>(gpusPerServer),
                        Watts(0.0));
    customerPowerScratch.assign(
        static_cast<std::size_t>(vmGen.config().iaasCustomerCount),
        0.0);
    customerCountScratch.assign(customerPowerScratch.size(), 0);
    endpointPowerScratch.assign(sizes.size(), 0.0);
    endpointCountScratch.assign(sizes.size(), 0);
}

std::size_t
ClusterSim::activeVmCount() const
{
    return activeVms.size();
}

void
ClusterSim::run()
{
    while (!finished())
        step();
}

void
ClusterSim::runSteps(int steps)
{
    for (int i = 0; i < steps && !finished(); ++i)
        step();
}

double
ClusterSim::vmPredictedPeakLoad(const VmRecord &record) const
{
    if (record.kind == VmKind::IaaS)
        return store.customerPredictedPeak(record.customer,
                                           kMinHistory);
    return store.endpointPredictedPeak(record.endpoint, kMinHistory);
}

ClusterView
ClusterSim::view() const
{
    ClusterView v;
    v.layout = &layout;
    v.cooling = &cooling;
    v.power = &hierarchy;
    v.profiles = &bank;
    v.now = currentTime;
    v.outsideC = weatherModel.outsideAt(currentTime).value();
    v.dcLoadFrac = dcLoadFrac;
    v.serverLoads = serverLoads;
    v.serverVm = serverVm;
    v.vmSlot = vmTable.slot;
    v.vmPeakLoad = vmTable.predictedPeak;
    return v;
}

void
ClusterSim::processFaults()
{
    if (faultEngine)
        faultEngine->advanceTo(currentTime, *failureMgr);
}

const std::vector<double> &
ClusterSim::observedGpuPower()
{
    // What the controller's sensors report. With no active sensor
    // fault this IS the ground-truth vector (no copy); under a fault
    // the affected servers' slices are corrupted in a scratch copy.
    if (!faultEngine || !faultEngine->anySensorFaultActive())
        return gpuPowerW;
    observedGpuPowerW = gpuPowerW;
    const int gpus = gpusPerServer;
    for (const Server &server : layout.servers()) {
        if (!faultEngine->sensorFaultActive(server.id))
            continue;
        faultEngine->corruptObservedGpuPower(
            server.id, currentTime,
            &observedGpuPowerW[server.id.index *
                               static_cast<std::size_t>(gpus)],
            gpus);
    }
    return observedGpuPowerW;
}

void
ClusterSim::maybeRefitProfiles()
{
    if (cfg.profileRefitPeriod <= 0 || currentTime == 0 ||
        currentTime % cfg.profileRefitPeriod != 0) {
        return;
    }
    bank.refitPowerFromTelemetry(store);
}

void
ClusterSim::processDepartures()
{
    // Hot scan over the placed VMs only (one SimTime read each);
    // the cold record is only touched for the rare VM actually
    // departing. Survivors compact into the scratch list, which
    // preserves ascending-id order.
    activeScratch.clear();
    for (std::uint32_t i : activeVms) {
        if (vmTable.departureAt[i] > currentTime) {
            activeScratch.push_back(i);
            continue;
        }
        serverVm[vmTable.serverOf[i]] = VmId::invalidIndex;
        vmTable.depart(i);
    }
    activeVms.swap(activeScratch);
}

bool
ClusterSim::verifyVmTable() const
{
    if (!vmTable.consistent())
        return false;
    // The active-index list must hold exactly the placed VMs in
    // ascending order (the sweeps' iteration contract).
    {
        std::size_t pos = 0;
        for (std::size_t i = 0; i < vmTable.size(); ++i) {
            if (!vmTable.active(i))
                continue;
            if (pos >= activeVms.size() || activeVms[pos] != i)
                return false;
            ++pos;
        }
        if (pos != activeVms.size())
            return false;
    }
    // serverVm and the hot server column must be mutual inverses.
    std::size_t placed = 0;
    for (std::size_t i = 0; i < vmTable.size(); ++i) {
        if (!vmTable.active(i))
            continue;
        ++placed;
        const std::uint32_t s = vmTable.serverOf[i];
        if (s >= serverVm.size() || serverVm[s] != i)
            return false;
        // The cached peak must always equal a fresh store lookup.
        if (vmTable.predictedPeak[i] !=
            vmPredictedPeakLoad(vmTable.record(i))) {
            return false;
        }
    }
    std::size_t mapped = 0;
    for (std::size_t s = 0; s < serverVm.size(); ++s) {
        if (serverVm[s] == VmId::invalidIndex)
            continue;
        ++mapped;
        if (vmTable.serverOf[serverVm[s]] != s)
            return false;
    }
    return placed == mapped;
}

bool
ClusterSim::tryPlace(std::uint32_t vm_index)
{
    const VmRecord &rec = vmTable.record(vm_index);
    PlacementRequest request;
    request.id = rec.id;
    request.kind = rec.kind;
    request.predictedPeakLoad = vmPredictedPeakLoad(rec);

    // An unchanged view rejects a load it has rejected before (the
    // VmAllocator::admissionLoad contract): skip the fleet scan.
    VmAllocator &alloc = tapas->allocator();
    const double load = alloc.admissionLoad(request);
    if (std::find(rejectedLoads.begin(), rejectedLoads.end(), load) !=
        rejectedLoads.end()) {
#ifndef NDEBUG
        tapas_assert(!alloc.place(request, view()).has_value(),
                     "allocator placed VM %u at memoized rejected "
                     "load %g",
                     request.id.index, load);
#endif
        return false;
    }
    const auto pick = alloc.place(request, view());
    if (!pick.has_value()) {
        rejectedLoads.push_back(load);
        return false;
    }
    tapas_assert(serverVm[pick->index] == VmId::invalidIndex,
                 "allocator picked an occupied server");
    std::unique_ptr<InferenceEngine> engine;
    if (rec.kind == VmKind::SaaS) {
        engine = std::make_unique<InferenceEngine>(refProfile,
                                                   perf.slo());
    }
    vmTable.place(vm_index, *pick, std::move(engine),
                  request.predictedPeakLoad);
    serverVm[pick->index] = vm_index;
    // Sorted insert keeps the active list in the ascending-id order
    // the sweeps rely on.
    activeVms.insert(std::lower_bound(activeVms.begin(),
                                      activeVms.end(), vm_index),
                     vm_index);
    // The view changed: fold the pick into the round, drop the memo.
    alloc.commit(*pick, view());
    rejectedLoads.clear();
    ++simMetrics.vmsPlaced;
    return true;
}

void
ClusterSim::processArrivals()
{
    // Departures and last step's phases moved the view: open a new
    // placement round (closed by tryPlaceWaiting).
    rejectedLoads.clear();
    tapas->allocator().beginRound();
    const auto &records = vmGen.records();
    while (arrivalCursor < records.size() &&
           records[arrivalCursor].arrival <= currentTime) {
        const VmRecord &record = records[arrivalCursor];
        ++arrivalCursor;
        if (record.departure <= currentTime)
            continue; // arrived and left between steps
        vmTable.admitRecord(record);
        if (!tryPlace(record.id.index)) {
            ++simMetrics.vmsRejected;
            waitingVms.push_back(record.id.index);
        }
    }
}

void
ClusterSim::tryPlaceWaiting()
{
    waitingScratch.clear();
    for (std::uint32_t vm_index : waitingVms) {
        if (vmTable.record(vm_index).departure <= currentTime)
            continue; // gave up waiting
        if (!tryPlace(vm_index))
            waitingScratch.push_back(vm_index);
    }
    waitingVms.swap(waitingScratch);
    tapas->allocator().endRound();
}

void
ClusterSim::buildRouteCandidates()
{
    // tapas-hot begin(route-candidates): counting sort of the active
    // list by endpoint; filling slices back to front leaves each in
    // ascending VM id and each start at its slice's first entry.
    const std::size_t endpoints = vmGen.endpointVmCounts().size();
    candidateStartScratch.assign(endpoints + 1, 0);
    for (std::uint32_t i : activeVms) {
        if (vmTable.isSaas(i))
            ++candidateStartScratch[vmTable.endpointOf[i]];
    }
    for (std::size_t e = 1; e <= endpoints; ++e)
        candidateStartScratch[e] += candidateStartScratch[e - 1];
    candidateScratch.resize(candidateStartScratch[endpoints]);
    for (auto it = activeVms.rbegin(); it != activeVms.rend(); ++it) {
        const std::uint32_t i = *it;
        if (!vmTable.isSaas(i))
            continue;
        const std::uint32_t at =
            --candidateStartScratch[vmTable.endpointOf[i]];
        candidateScratch[at] = {VmId(i), vmTable.server(i),
                                vmTable.engine[i]};
    }
    // tapas-hot end(route-candidates)
}

std::span<const RouteCandidate>
ClusterSim::endpointCandidates(EndpointId id) const
{
    tapas_assert(id.index + 1 < candidateStartScratch.size(),
                 "unknown endpoint %u", id.index);
    const std::uint32_t begin = candidateStartScratch[id.index];
    return std::span<const RouteCandidate>(candidateScratch)
        .subspan(begin, candidateStartScratch[id.index + 1] - begin);
}

double
ClusterSim::effectiveGoodput(std::size_t vm_index) const
{
    const InferenceEngine *engine = vmTable.engine[vm_index];
    if (!engine || !engine->accepting())
        return 0.0;
    const double goodput = engine->profile().goodputTps;
    const double cap = vmTable.freqCap[vm_index];
    // pow(1, e) == 1 exactly; skip the call on the common path.
    return cap == 1.0 ? goodput
                      : goodput * std::pow(cap, kPerfFreqExponent);
}

void
ClusterSim::assignSaasLoadRequestMode(SimTime from, SimTime to)
{
    const double dt = static_cast<double>(to - from);
    const int gpus = gpusPerServer;
    stepDemandTps = 0.0;
    buildRouteCandidates();

    // Route this step's requests endpoint by endpoint.
    routedTokensScratch.assign(vmTable.size(), 0.0);
    demandFloorScratch.assign(vmTable.size(), 0.0);
    std::vector<double> &routed_tokens = routedTokensScratch;
    std::vector<double> &demand_floor = demandFloorScratch;
    for (const EndpointDemand &ep : requestGen->endpoints()) {
        const auto candidates = endpointCandidates(ep.id);
        requestGen->generate(ep.id, from, to, requestsScratch);
        stepDemandTps += requestGen->demandTokensPerS(ep.id, from);
        if (candidates.empty())
            continue;
        // Configuration floor: even a VM that received little load
        // this step must stay provisioned for its fair share of the
        // endpoint (concentration shifts are sudden).
        const double fair_share =
            requestGen->demandTokensPerS(ep.id, from) /
            static_cast<double>(candidates.size());
        for (const RouteCandidate &cand : candidates)
            demand_floor[cand.vm.index] = fair_share;
        for (const Request &request : requestsScratch) {
            const VmId target = tapas->router().route(
                request, candidates, tapas->riskAssessor());
            if (!target.valid())
                continue;
            vmTable.engine[target.index]->enqueue(request);
            routed_tokens[target.index] +=
                request.promptTokens + request.outputTokens;
        }
    }

    // Advance every engine; harvest latency/quality metrics.
    for (std::uint32_t i : activeVms) {
        if (!vmTable.isSaas(i))
            continue;
        InferenceEngine *engine = vmTable.engine[i];
        engine->step(static_cast<double>(from),
                     static_cast<double>(to));
        const int active_gpus = engine->profile().activeGpus;
        vmTable.load[i] = engine->lastUtilization() *
            static_cast<double>(active_gpus) /
            static_cast<double>(gpus);
        vmTable.demandTps[i] = routed_tokens[i] / dt;
        vmTable.demandEmaTps[i] = std::max(
            0.6 * vmTable.demandEmaTps[i] +
                0.4 * vmTable.demandTps[i],
            demand_floor[i]);

        for (const CompletedRequest &done :
             engine->lastCompletions()) {
            ++simMetrics.requestsCompleted;
            simMetrics.ttftS.add(done.ttftS);
            simMetrics.tbtS.add(done.tbtS);
            const double tokens = done.request.promptTokens +
                done.request.outputTokens;
            simMetrics.totalTokens += tokens;
            simMetrics.qualityWeightedTokens +=
                tokens * done.quality;
            if (done.metSlo) {
                simMetrics.goodputTokens += tokens;
            } else {
                ++simMetrics.sloViolations;
            }
        }
    }
}

void
ClusterSim::assignSaasLoadFlowMode(SimTime from, SimTime to)
{
    buildRouteCandidates();
    // tapas-hot begin(flow-assign): per-step assignment sweep (the
    // split policy is the router's); allocation-free by contract
    // (member scratch only — tapas-lint rule R3 enforces this region).
    const SimTime mid = from + (to - from) / 2;
    const int gpus = gpusPerServer;
    RequestRouter &router = tapas->router();
    const RiskAssessor *risk = tapas->riskAssessor();
    const ClusterView v = view();
    stepDemandTps = 0.0;

    // Clear stale assignments (unrouted VMs receive nothing).
    for (std::uint32_t i : activeVms) {
        if (vmTable.isSaas(i))
            vmTable.demandTps[i] = 0.0;
    }

    shareScratch.resize(candidateScratch.size());
    for (const EndpointDemand &ep : requestGen->endpoints()) {
        const auto candidates = endpointCandidates(ep.id);
        const double demand =
            requestGen->demandTokensPerS(ep.id, mid);
        stepDemandTps += demand;
        // Shares line up with the endpoint's candidate slice.
        const std::span<double> shares(
            shareScratch.data() + candidateStartScratch[ep.id.index],
            candidates.size());
        router.split(candidates, demand, v, risk, shares);
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            if (shares[c] == RequestRouter::kUnrouted)
                continue;
            const std::size_t vm = candidates[c].vm.index;
            vmTable.demandTps[vm] = shares[c];
            vmTable.demandEmaTps[vm] =
                0.6 * vmTable.demandEmaTps[vm] +
                0.4 * vmTable.demandTps[vm];
        }
    }

    // Advance engines (blackout progression) and pack the VMs with
    // demand into stride-1 lanes for one batched solve; zero-demand
    // VMs keep their exact fast path (zero busy time, idle GPU
    // power) without occupying a lane.
    opProfScratch.clear();
    opDemandScratch.clear();
    opVmScratch.clear();
    for (std::uint32_t i : activeVms) {
        if (!vmTable.isSaas(i))
            continue;
        InferenceEngine *engine = vmTable.engine[i];
        engine->step(static_cast<double>(from),
                     static_cast<double>(to));
        if (vmTable.demandTps[i] == 0.0) {
            vmTable.load[i] = 0.0;
            saasOpGpuPowerW[i] = perf.spec().gpuIdlePower.value();
            continue;
        }
        opProfScratch.push_back(&engine->profile());
        opDemandScratch.push_back(vmTable.demandTps[i]);
        opVmScratch.push_back(i);
    }

    // GPU-only batch: this pass never reads serverPower.
    opPointScratch.resize(opVmScratch.size());
    perf.operatingGpuPointBatch(opProfScratch.data(),
                                opDemandScratch.data(),
                                opVmScratch.size(),
                                opPointScratch.data());

    for (std::size_t lane = 0; lane < opVmScratch.size(); ++lane) {
        const std::uint32_t i = opVmScratch[lane];
        const PerfModel::OperatingPoint &op = opPointScratch[lane];
        vmTable.load[i] = op.busyFrac *
            static_cast<double>(opProfScratch[lane]->activeGpus) /
            static_cast<double>(gpus);
        // Demand and profile are now fixed for the step: cache the
        // base GPU power so computeDraws (and its capping/thermal
        // re-passes) read it instead of re-solving the perf model.
        saasOpGpuPowerW[i] = op.gpuPower.value();
    }
    // tapas-hot end(flow-assign)
}

void
ClusterSim::replayIaasLoads(SimTime t)
{
    // tapas-hot begin(iaas-replay)
    for (std::uint32_t i : activeVms) {
        if (vmTable.isIaas(i)) {
            vmTable.load[i] =
                vmGen.iaasLoadAt(vmTable.record(i), t);
        }
    }
    // tapas-hot end(iaas-replay)
}

void
ClusterSim::computeDraws()
{
    // tapas-hot begin(draws): the fleet power sweep, re-entered by
    // the capping and thermal loops; member scratch only (R3).
    const int gpus = gpusPerServer;
    drawsScratch.resize(static_cast<std::size_t>(gpus));
    std::vector<Watts> &draws = drawsScratch;

    for (const Server &server : layout.servers()) {
        const ServerSpec &spec = layout.specOf(server.id);
        const std::size_t s = server.id.index;
        const std::uint32_t vm_index = serverVm[s];

        if (vm_index == VmId::invalidIndex) {
            // Empty server: all-idle draws are deterministic per
            // spec, so compute heat/power once and replay the cached
            // values (bit-identical: same code path, same inputs).
            if (idleSpecCache != &spec) {
                for (int g = 0; g < gpus; ++g)
                    draws[static_cast<std::size_t>(g)] =
                        spec.gpuIdlePower;
                idleHeatCache = PowerModel::heatFraction(spec, draws);
                idleDrawWCache =
                    powerModel.serverPower(spec, draws,
                                           idleHeatCache)
                        .value();
                idleSpecCache = &spec;
            }
            serverLoads[s] = idleHeatCache;
            const double idle_w = spec.gpuIdlePower.value();
            for (int g = 0; g < gpus; ++g) {
                gpuPowerW[s * static_cast<std::size_t>(gpus) +
                          static_cast<std::size_t>(g)] = idle_w;
            }
            serverDrawW[s] = idleDrawWCache;
            serverDrawWatts[s] = Watts(idleDrawWCache);
            continue;
        }
        {
            if (vmTable.isIaas(vm_index)) {
                const Watts w = powerModel.gpuPower(
                    spec, vmTable.load[vm_index],
                    vmTable.freqCap[vm_index]);
                for (int g = 0; g < gpus; ++g)
                    draws[static_cast<std::size_t>(g)] = w;
            } else {
                InferenceEngine *engine = vmTable.engine[vm_index];
                const ConfigProfile &profile = engine->profile();
                const double idle = spec.gpuIdlePower.value();
                double base = idle;
                if (cfg.mode == SimMode::RequestLevel) {
                    // Measured operating point from the engine.
                    const double busy = engine->lastUtilization();
                    const double ps = engine->lastPrefillShare();
                    const double decode_w =
                        perf.decodeGpuPowerAt(
                                profile, engine->lastDecodeBatch())
                            .value();
                    const double prefill_w =
                        profile.prefill.gpuPower.value();
                    base = idle * (1.0 - busy) +
                        busy * (ps * prefill_w +
                                (1.0 - ps) * decode_w);
                } else {
                    // Same value assignSaasLoadFlowMode computed
                    // when it set this VM's load (bit-identical: the
                    // operating-point solve is deterministic in
                    // profile and demand, both unchanged since).
                    base = saasOpGpuPowerW[vm_index];
                }
                // Most servers run uncapped; skip the pow() then.
                const double cap = vmTable.freqCap[vm_index];
                const double capped = cap == 1.0
                    ? base
                    : idle + (base - idle) * std::pow(cap, 2.4);
                for (int g = 0; g < gpus; ++g) {
                    draws[static_cast<std::size_t>(g)] =
                        g < profile.activeGpus ? Watts(capped)
                                               : spec.gpuIdlePower;
                }
            }
        }

        // Server "load" for fans/airflow/telemetry is the normalized
        // GPU heat output, consistent with the fitted power curves.
        const double heat = PowerModel::heatFraction(spec, draws);
        serverLoads[s] = heat;
        for (int g = 0; g < gpus; ++g) {
            gpuPowerW[s * static_cast<std::size_t>(gpus) +
                      static_cast<std::size_t>(g)] =
                draws[static_cast<std::size_t>(g)].value();
        }
        const double draw_w =
            powerModel.serverPower(spec, draws, heat).value();
        serverDrawW[s] = draw_w;
        serverDrawWatts[s] = Watts(draw_w);
    }
    // tapas-hot end(draws)
}

void
ClusterSim::enforcePowerBudgets()
{
    // tapas-hot begin(power-cap)
    // computeDraws keeps serverDrawWatts current; assess writes into
    // the member scratch, so the capping loop allocates nothing.
    PowerAssessment &assessment = assessScratch;
    hierarchy.assess(serverDrawWatts, assessment);
    if (!assessment.anyViolation()) {
        lastPowerViolation = false;
        return;
    }
    ++simMetrics.powerCapSteps;

    const bool iaas_first = tapas->capIaasFirst();
    for (int iter = 0; iter < 6; ++iter) {
        if (!assessment.anyViolation())
            break;

        // Collect rows needing reduction (row-level or via UPS).
        rowOverScratch.assign(layout.rowCount(), 0);
        std::vector<char> &row_over = rowOverScratch;
        for (RowId row : assessment.overBudgetRows)
            row_over[row.index] = 1;
        for (UpsId ups : assessment.overBudgetUpses) {
            for (RowId row : layout.ups(ups).rows)
                row_over[row.index] = 1;
        }

        for (const Row &row : layout.rows()) {
            if (!row_over[row.id.index])
                continue;
            const double draw = assessment.rowDrawW[row.id.index];
            const double budget =
                assessment.rowBudgetW[row.id.index];
            const double ratio =
                std::clamp(budget / draw, 0.5, 1.0);

            // TAPAS spares SaaS while IaaS still has cap headroom.
            bool iaas_headroom = false;
            if (iaas_first) {
                for (ServerId sid : row.servers) {
                    const std::uint32_t vi = serverVm[sid.index];
                    if (vi != VmId::invalidIndex && vmTable.isIaas(vi) &&
                        vmTable.freqCap[vi] > kFreqFloor + 0.01) {
                        iaas_headroom = true;
                        break;
                    }
                }
            }

            for (ServerId sid : row.servers) {
                const std::uint32_t vi = serverVm[sid.index];
                if (vi == VmId::invalidIndex)
                    continue;
                if (iaas_first && iaas_headroom &&
                    vmTable.isSaas(vi)) {
                    continue;
                }
                vmTable.freqCap[vi] = std::max(
                    kFreqFloor,
                    vmTable.freqCap[vi] * std::pow(ratio, 0.6));
            }
        }
        computeDraws();
        hierarchy.assess(serverDrawWatts, assessment);
    }
    // A violation the capping loop could not converge away is a
    // genuine budget excursion (robustness accounting).
    lastPowerViolation = assessment.anyViolation();
    // tapas-hot end(power-cap)
}

void
ClusterSim::evaluateThermal(bool enforce)
{
    // tapas-hot begin(thermal)
    const int gpus = gpusPerServer;
    const Celsius outside = weatherModel.outsideAt(currentTime);

    // One sensor-noise draw per server per step; a noiseless model
    // needs no draws at all (the draw at sigma 0 is identically
    // zero). Bulk draws use the ziggurat stream (one uniform and a
    // table compare on ~98% of calls, versus log/sqrt/sincos per
    // Box-Muller pair) — the same distribution PR-2 adopted for the
    // profiling noise.
    noiseScratch.resize(layout.serverCount());
    if (cfg.thermal.noiseSigmaC > 0.0) {
        for (double &n : noiseScratch)
            n = noiseRng.gaussianFast(0.0, cfg.thermal.noiseSigmaC);
    } else {
        std::fill(noiseScratch.begin(), noiseScratch.end(), 0.0);
    }

    auto evaluate = [&]() {
        // Incremental aisle demand: one fused pass over the load
        // vector instead of a per-server fan-curve walk per aisle.
        cooling.updateDemands(serverLoads);
        overdrawScratch.resize(layout.aisleCount());
        for (const Aisle &aisle : layout.aisles()) {
            overdrawScratch[aisle.id.index] =
                cooling.cachedOverdrawFraction(aisle.id);
        }
        thermal.inletTemperatures(outside, dcLoadFrac,
                                  overdrawScratch, inletC);
        bool any_over = false;
        for (const Server &server : layout.servers()) {
            const std::size_t s = server.id.index;
            inletC[s] += noiseScratch[s];
            const std::size_t base =
                s * static_cast<std::size_t>(gpus);
            thermal.gpuTemperatures(server.id, Celsius(inletC[s]),
                                    &gpuPowerW[base],
                                    &gpuTempC[base]);
            // One fused scan: track the server's hottest GPU (fed
            // to telemetry/metrics) and the throttle breach (max >
            // throttle iff any GPU is over).
            double hottest =
                gpuTempC[base];
            for (int g = 1; g < gpus; ++g) {
                hottest = std::max(
                    hottest,
                    gpuTempC[base + static_cast<std::size_t>(g)]);
            }
            hottestGpuC[s] = hottest;
            if (hottest > throttleAtC[s])
                any_over = true;
        }
        return any_over;
    };

    bool over = evaluate();
    if (over)
        ++simMetrics.thermalThrottleSteps;
    if (!enforce)
        return;

    for (int iter = 0; iter < 5 && over; ++iter) {
        // Hardware throttle on every server with a hot GPU (the
        // evaluation above just refreshed the hottest-GPU cache).
        for (const Server &server : layout.servers()) {
            const std::size_t s = server.id.index;
            const bool hot = hottestGpuC[s] > throttleAtC[s];
            const std::uint32_t vi = serverVm[s];
            if (hot && vi != VmId::invalidIndex) {
                vmTable.freqCap[vi] = std::max(
                    kFreqFloor, vmTable.freqCap[vi] * 0.85);
            }
        }
        computeDraws();
        over = evaluate();
    }
    // tapas-hot end(thermal)
}

void
ClusterSim::recordTelemetry(SimTime t)
{
    if (t % kTelemetryPeriod != 0)
        return;
    const double outside = weatherModel.outsideAt(t).value();

    rowPowerScratch.assign(layout.rowCount(), 0.0);
    std::vector<double> &row_power = rowPowerScratch;
    for (const Server &server : layout.servers()) {
        const std::size_t s = server.id.index;
        ServerSample sample;
        sample.time = t;
        sample.inletC = static_cast<float>(inletC[s]);
        sample.hottestGpuC = static_cast<float>(hottestGpuC[s]);
        sample.serverPowerW = static_cast<float>(serverDrawW[s]);
        sample.gpuLoad = static_cast<float>(serverLoads[s]);
        sample.outsideC = static_cast<float>(outside);
        sample.dcLoadFrac = static_cast<float>(dcLoadFrac);
        // Sensor faults corrupt (or drop) the recorded sample; row
        // power keeps the true draw — PDU metering is a separate
        // instrument from the server's onboard sensors.
        if (!faultEngine ||
            !faultEngine->sensorFaultActive(server.id) ||
            faultEngine->corruptSample(server.id, t, sample)) {
            store.recordServer(server.id, sample);
        }
        row_power[server.row.index] += serverDrawW[s];
    }
    for (const Row &row : layout.rows())
        store.recordRowPower(row.id, t, row_power[row.id.index]);

    // Per-VM power attributed to customers/endpoints + load digests.
    // Flat accumulators indexed by customer/endpoint id instead of
    // per-call hash maps.
    std::fill(customerPowerScratch.begin(),
              customerPowerScratch.end(), 0.0);
    std::fill(customerCountScratch.begin(),
              customerCountScratch.end(), 0);
    std::fill(endpointPowerScratch.begin(),
              endpointPowerScratch.end(), 0.0);
    std::fill(endpointCountScratch.begin(),
              endpointCountScratch.end(), 0);
    for (std::uint32_t i : activeVms) {
        const std::uint32_t s = vmTable.serverOf[i];
        const double draw = serverDrawW[s];
        store.recordVmLoad(VmId(static_cast<std::uint32_t>(i)),
                           CustomerId(vmTable.customerOf[i]),
                           EndpointId(vmTable.endpointOf[i]), t,
                           serverLoads[s]);
        if (vmTable.isIaas(i)) {
            const std::uint32_t customer = vmTable.customerOf[i];
            tapas_assert(customer < customerPowerScratch.size(),
                         "customer %u beyond accumulator", customer);
            customerPowerScratch[customer] += draw;
            ++customerCountScratch[customer];
        } else {
            const std::uint32_t endpoint = vmTable.endpointOf[i];
            tapas_assert(endpoint < endpointPowerScratch.size(),
                         "endpoint %u beyond accumulator", endpoint);
            endpointPowerScratch[endpoint] += draw;
            ++endpointCountScratch[endpoint];
        }
    }
    for (std::size_t c = 0; c < customerPowerScratch.size(); ++c) {
        if (customerCountScratch[c] > 0) {
            store.recordCustomerVmPower(
                CustomerId(static_cast<std::uint32_t>(c)), t,
                customerPowerScratch[c] / customerCountScratch[c]);
        }
    }
    for (std::size_t e = 0; e < endpointPowerScratch.size(); ++e) {
        if (endpointCountScratch[e] > 0) {
            store.recordEndpointVmPower(
                EndpointId(static_cast<std::uint32_t>(e)), t,
                endpointPowerScratch[e] / endpointCountScratch[e]);
        }
    }

    // The load digests just moved: refresh the cached peaks so view
    // builds can read them without store lookups.
    refreshPredictedPeaks();
}

void
ClusterSim::refreshPredictedPeaks()
{
    // The digests are per customer/endpoint, so query each key once
    // into flat accumulator-sized scratch instead of one store
    // lookup per VM (many VMs share a key).
    std::vector<double> &customer_peak = customerPowerScratch;
    std::vector<double> &endpoint_peak = endpointPowerScratch;
    for (std::size_t c = 0; c < customer_peak.size(); ++c) {
        customer_peak[c] = store.customerPredictedPeak(
            CustomerId(static_cast<std::uint32_t>(c)), kMinHistory);
    }
    for (std::size_t e = 0; e < endpoint_peak.size(); ++e) {
        endpoint_peak[e] = store.endpointPredictedPeak(
            EndpointId(static_cast<std::uint32_t>(e)), kMinHistory);
    }
    for (std::uint32_t i : activeVms) {
        vmTable.predictedPeak[i] = vmTable.isIaas(i)
            ? customer_peak[vmTable.customerOf[i]]
            : endpoint_peak[vmTable.endpointOf[i]];
    }
}

void
ClusterSim::configuratorPass()
{
    if (!cfg.policy.configEnabled)
        return;
    const bool emergency = failureMgr->active() !=
        EmergencyKind::None;
    const bool emergency_changed = emergency != lastEmergency;
    lastEmergency = emergency;

    // Re-decide only when something material changed: demand moved
    // >15%, the emergency state flipped, or 15 minutes elapsed.
    instancesScratch.clear();
    std::vector<SaasInstanceRef> &instances = instancesScratch;
    for (std::uint32_t i : activeVms) {
        if (!vmTable.isSaas(i))
            continue;
        const double demand = std::max(vmTable.demandTps[i],
                                       vmTable.demandEmaTps[i]);
        VmTable::Cold &gate = vmTable.cold[i];
        const bool stale = gate.lastConfigAt < 0 ||
            currentTime - gate.lastConfigAt >= 15 * kMinute;
        const bool moved = gate.lastConfigDemand < 0.0 ||
            std::abs(demand - gate.lastConfigDemand) >
                0.15 * std::max(gate.lastConfigDemand, 1.0);
        if (!emergency_changed && !stale && !moved)
            continue;
        gate.lastConfigDemand = demand;
        gate.lastConfigAt = currentTime;
        SaasInstanceRef ref;
        ref.id = VmId(static_cast<std::uint32_t>(i));
        ref.server = vmTable.server(i);
        ref.engine = vmTable.engine[i];
        ref.demandTps = demand;
        instances.push_back(ref);
    }
    if (instances.empty())
        return;
    tapas->configurePass(view(), instances);
    simMetrics.reconfigs = tapas->reconfigsIssued();
}

void
ClusterSim::migrationPass()
{
    if (!cfg.policy.migrationEnabled ||
        !cfg.policy.placeEnabled || currentTime == 0 ||
        currentTime % cfg.policy.migrationPeriod != 0) {
        return;
    }
    MigrationPlanner planner(cfg.policy);
    // The planner explores what-ifs on its own copy of the server
    // map; its plans are applied to the tables here.
    for (const MigrationPlan &move :
         planner.plan(view(), cfg.policy.migrationMaxMoves)) {
        const std::uint32_t vm_index = serverVm[move.from.index];
        tapas_assert(vm_index != VmId::invalidIndex,
                     "migration donor is empty");
        tapas_assert(vmTable.isSaas(vm_index),
                     "only SaaS VMs migrate");
        serverVm[move.from.index] = VmId::invalidIndex;
        serverVm[move.to.index] = vm_index;
        vmTable.serverOf[vm_index] = move.to.index;
        vmTable.engine[vm_index]->beginMigration(
            cfg.policy.migrationDelayS);
        ++simMetrics.migrations;
    }
}

void
ClusterSim::collectMetrics(bool power_capped, bool thermal_throttled)
{
    const double dt = static_cast<double>(cfg.stepLength);

    // Row draws and datacenter power.
    rowPowerScratch.assign(layout.rowCount(), 0.0);
    std::vector<double> &row_power = rowPowerScratch;
    double dc_power = 0.0;
    for (const Server &server : layout.servers()) {
        row_power[server.row.index] +=
            serverDrawW[server.id.index];
        dc_power += serverDrawW[server.id.index];
    }
    double peak_row = 0.0;
    double peak_row_frac = 0.0;
    for (const Row &row : layout.rows()) {
        peak_row = std::max(peak_row, row_power[row.id.index]);
        const double prov = hierarchy.rowProvision(row.id).value();
        if (prov > 0.0) {
            peak_row_frac = std::max(
                peak_row_frac, row_power[row.id.index] / prov);
        }
    }
    simMetrics.peakRowPowerW.add(currentTime, peak_row);
    simMetrics.peakRowPowerFrac.add(currentTime, peak_row_frac);
    simMetrics.datacenterPowerW.add(currentTime, dc_power);

    // Max of the per-server hottest-GPU cache equals the max over
    // every GPU (max of maxes), without the fleet*gpus rescan.
    double max_temp = 0.0;
    for (double t : hottestGpuC)
        max_temp = std::max(max_temp, t);
    simMetrics.maxGpuTempC.add(currentTime, max_temp);
    // IaaS performance penalty (capping deficit).
    double penalty = 0.0;
    int iaas_count = 0;
    for (std::uint32_t i : activeVms) {
        if (vmTable.isIaas(i)) {
            penalty += 1.0 - vmTable.freqCap[i];
            ++iaas_count;
        }
    }
    simMetrics.iaasPerfPenalty.add(
        currentTime, iaas_count ? penalty / iaas_count : 0.0);

    // SaaS service metrics.
    double served = 0.0;
    double quality_weighted = 0.0;
    if (cfg.mode == SimMode::FlowLevel) {
        const double mean_tokens =
            requestGen->meanTokensPerRequest();
        for (std::uint32_t i : activeVms) {
            if (!vmTable.isSaas(i))
                continue;
            const double goodput = effectiveGoodput(i);
            const double demand = vmTable.demandTps[i];
            const double vm_served = std::min(demand, goodput);
            served += vm_served;
            const double quality =
                vmTable.engine[i]->profile().quality;
            quality_weighted += vm_served * quality;
            simMetrics.totalTokens += vm_served * dt;
            simMetrics.qualityWeightedTokens +=
                vm_served * dt * quality;
            const double reqs = vm_served * dt / mean_tokens;
            simMetrics.requestsCompleted +=
                static_cast<std::uint64_t>(reqs);
            // Proportional SLO accounting: a transient overload
            // degrades the excess fraction of the VM's traffic,
            // not every request it serves that interval.
            const double excess =
                std::max(0.0, demand - goodput);
            const double viol_frac =
                demand > 0.0 ? excess / demand : 0.0;
            simMetrics.sloViolations +=
                static_cast<std::uint64_t>(reqs * viol_frac);
            simMetrics.goodputTokens +=
                vm_served * dt * (1.0 - viol_frac);
        }
    } else {
        for (std::uint32_t i : activeVms) {
            if (!vmTable.isSaas(i))
                continue;
            for (const CompletedRequest &done :
                 vmTable.engine[i]->lastCompletions()) {
                const double tokens = done.request.promptTokens +
                    done.request.outputTokens;
                served += tokens / dt;
                quality_weighted += done.quality * tokens / dt;
            }
        }
    }
    simMetrics.saasServedTps.add(currentTime, served);
    simMetrics.saasQuality.add(
        currentTime, served > 0.0 ? quality_weighted / served : 1.0);

    // --- Robustness accounting (fault drills). ---
    bool inlet_over = false;
    for (double c : inletC) {
        if (c > cfg.inletLimitC) {
            inlet_over = true;
            break;
        }
    }
    if (inlet_over)
        ++simMetrics.inletExcursionSteps;
    if (thermal_throttled)
        ++simMetrics.gpuExcursionSteps;
    if (lastPowerViolation)
        ++simMetrics.powerViolationSteps;

    const bool faults_active =
        faultEngine && faultEngine->anyComponentFaultActive();
    if (faults_active) {
        ++simMetrics.faultSteps;
        simMetrics.faultActiveS += cfg.stepLength;
        simMetrics.faultDemandTokens += stepDemandTps * dt;
        simMetrics.faultServedTokens += served * dt;
    }
    if (const RiskAssessor *risk = tapas->riskAssessor())
        simMetrics.quarantinedServerSteps += risk->quarantinedNow();

    // Time-to-recover: from a fault clearing to the first step the
    // plant runs clean (no excursion, violation, throttle, or cap).
    const bool stressed = inlet_over || lastPowerViolation ||
        thermal_throttled || power_capped;
    if (prevFaultsActive && !faults_active) {
        faultClearAt = currentTime;
        recoveringFromFault = true;
    }
    if (recoveringFromFault && !faults_active && !stressed) {
        const SimTime recovery = currentTime - faultClearAt;
        simMetrics.recoverySumS += recovery;
        simMetrics.maxRecoveryS =
            std::max(simMetrics.maxRecoveryS, recovery);
        ++simMetrics.recoveries;
        recoveringFromFault = false;
    }
    prevFaultsActive = faults_active;

    ++simMetrics.totalSteps;
}

void
ClusterSim::step()
{
    // Per-phase wall accounting: one clock read per phase boundary,
    // only when a perf harness asked for it (enablePhaseTiming) —
    // the clock reads are measurable against a small layout's step.
    const bool timing = phaseTiming_;
    auto mark = timing ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{};
    auto lap = [&mark, timing](double &acc) {
        if (!timing)
            return;
        const auto now = std::chrono::steady_clock::now();
        acc += std::chrono::duration<double>(now - mark).count();
        mark = now;
    };

    processFaults();
    processDepartures();
    // Placement and the risk refresh below see the pre-load
    // snapshot: last step's loads, this step's membership.
    processArrivals();
    tryPlaceWaiting();
    lap(phaseTimes_.placeS);

    // Risk refresh uses last step's sensor data (5-min cadence).
    // Skip gathering the observed power on steps where the cache is
    // still fresh.
    if (tapas->riskRefreshDue(currentTime))
        tapas->maybeRefreshRisk(view(), observedGpuPower());
    lap(phaseTimes_.riskS);

    // Reset this step's hardware caps.
    std::fill(vmTable.freqCap.begin(), vmTable.freqCap.end(), 1.0);

    const SimTime from = currentTime;
    const SimTime to = currentTime + cfg.stepLength;
    if (cfg.mode == SimMode::RequestLevel) {
        assignSaasLoadRequestMode(from, to);
    } else {
        assignSaasLoadFlowMode(from, to);
    }
    replayIaasLoads(from);
    lap(phaseTimes_.assignS);

    computeDraws();
    lap(phaseTimes_.drawsS);
    const std::uint64_t caps_before = simMetrics.powerCapSteps;
    enforcePowerBudgets();
    lap(phaseTimes_.powerS);
    const std::uint64_t throttles_before =
        simMetrics.thermalThrottleSteps;
    evaluateThermal(true);

    // Hardware throttles carry into the next step's engine work.
    for (std::uint32_t i : activeVms) {
        if (vmTable.isSaas(i)) {
            vmTable.engine[i]->setHardwareThrottle(
                vmTable.freqCap[i]);
        }
    }
    lap(phaseTimes_.thermalS);

    recordTelemetry(from);
    maybeRefitProfiles();
    lap(phaseTimes_.telemetryS);
    // The configurator and migration phases see this step's
    // post-load state (and, on telemetry ticks, refreshed peaks).
    configuratorPass();
    lap(phaseTimes_.configureS);
    migrationPass();
    lap(phaseTimes_.migrateS);
    collectMetrics(simMetrics.powerCapSteps > caps_before,
                   simMetrics.thermalThrottleSteps >
                       throttles_before);

    // Datacenter load feeds next step's inlet model.
    double dc_power = 0.0;
    for (double w : serverDrawW)
        dc_power += w;
    const double provision = hierarchy.totalProvision().value();
    dcLoadFrac = provision > 0.0
        ? std::clamp(dc_power / provision, 0.0, 1.5)
        : 0.5;

    currentTime = to;
    lap(phaseTimes_.metricsS);

#ifndef NDEBUG
    tapas_assert(verifyVmTable(),
                 "SoA VM table diverged from the cold side table");
#endif
}

} // namespace tapas
