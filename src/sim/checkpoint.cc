/**
 * @file
 * ClusterSim checkpoint/restore: the durability layer for long runs
 * (docs/checkpoint-format.md).
 *
 * A checkpoint captures the *canonical* stepping state — everything
 * the step loop reads that is not reconstructed deterministically by
 * the constructor from SimConfig. Derived structures (the active-VM
 * list, the server->VM inverse map, memo caches, scratch buffers)
 * are rebuilt after the sections apply; the debug-build cross-checks
 * that verify the incremental structures against fresh scans every
 * step also hold immediately after a restore. Routing candidates are
 * not state at all: each step derives them from the VM table.
 *
 * The contract is bit-exactness: a sim restored at step boundary T
 * steps forward identically to the sim that wrote the checkpoint —
 * every metric, every fault transition, every sensor corruption, and
 * stateDigest() agree at all later boundaries. Anything that could
 * break that (unordered-map order, lazy sort flags, cached RNG
 * values) is serialized in canonical form by its owning class.
 */

#include <algorithm>

#include "common/serialize.hh"
#include "sim/cluster.hh"

namespace tapas {

namespace {

/** Section ids of the checkpoint file (never renumber — add). */
enum SectionId : std::uint32_t
{
    kSecCore = 1,
    kSecVms = 2,
    kSecTelemetry = 3,
    kSecProfiles = 4,
    kSecController = 5,
    kSecFailures = 6,
    kSecMetrics = 7,
};

constexpr std::uint32_t kAllSections[] = {
    kSecCore,       kSecVms,      kSecTelemetry, kSecProfiles,
    kSecController, kSecFailures, kSecMetrics,
};

const char *
sectionName(std::uint32_t id)
{
    switch (id) {
    case kSecCore:
        return "core";
    case kSecVms:
        return "vms";
    case kSecTelemetry:
        return "telemetry";
    case kSecProfiles:
        return "profiles";
    case kSecController:
        return "controller";
    case kSecFailures:
        return "failures";
    case kSecMetrics:
        return "metrics";
    }
    return "unknown";
}

} // namespace

void
SimMetrics::checkpointState(Archive &ar)
{
    maxGpuTempC.checkpointState(ar);
    peakRowPowerW.checkpointState(ar);
    peakRowPowerFrac.checkpointState(ar);
    datacenterPowerW.checkpointState(ar);
    iaasPerfPenalty.checkpointState(ar);
    saasServedTps.checkpointState(ar);
    saasQuality.checkpointState(ar);
    ar.value(powerCapSteps);
    ar.value(thermalThrottleSteps);
    ar.value(totalSteps);
    ttftS.checkpointState(ar);
    tbtS.checkpointState(ar);
    ar.value(requestsCompleted);
    ar.value(sloViolations);
    ar.value(totalTokens);
    ar.value(goodputTokens);
    ar.value(qualityWeightedTokens);
    ar.value(vmsPlaced);
    ar.value(vmsRejected);
    ar.value(reconfigs);
    ar.value(migrations);
    ar.value(inletExcursionSteps);
    ar.value(gpuExcursionSteps);
    ar.value(powerViolationSteps);
    ar.value(faultSteps);
    ar.value(faultActiveS);
    ar.value(faultDemandTokens);
    ar.value(faultServedTokens);
    ar.value(quarantinedServerSteps);
    ar.value(recoverySumS);
    ar.value(maxRecoveryS);
    ar.value(recoveries);
}

void
ClusterSim::checkpointCore(Archive &ar)
{
    ar.value(currentTime);
    ar.count(arrivalCursor);
    ar.value(dcLoadFrac);
    ar.value(lastEmergency);
    ar.value(lastPowerViolation);
    ar.value(prevFaultsActive);
    ar.value(recoveringFromFault);
    ar.value(faultClearAt);
    ar.value(stepDemandTps);
    // Retired view-epoch field, kept so the section layout and
    // every stateDigest stay unchanged: it always held two ticks per
    // completed step, so it is derived on write and checked on read.
    const std::uint64_t step_ticks =
        2 * static_cast<std::uint64_t>(currentTime / cfg.stepLength);
    std::uint64_t stored_ticks = step_ticks;
    ar.value(stored_ticks);
    if (stored_ticks != step_ticks)
        ar.fail();
    noiseRng.checkpointState(ar);
    bool has_request_gen = requestGen != nullptr;
    ar.value(has_request_gen);
    if (has_request_gen != (requestGen != nullptr)) {
        ar.fail();
        return;
    }
    if (requestGen)
        requestGen->checkpointState(ar);
    ar.podVector(waitingVms);
    ar.podVector(serverLoads);
    ar.podVector(serverDrawW);
    ar.podVector(gpuPowerW);
    ar.podVector(gpuTempC);
    ar.podVector(hottestGpuC);
    ar.podVector(inletC);
    ar.podVector(saasOpGpuPowerW);
    if (!ar.writing() &&
        (serverLoads.size() != layout.serverCount() ||
         serverDrawW.size() != layout.serverCount() ||
         hottestGpuC.size() != layout.serverCount() ||
         inletC.size() != layout.serverCount() ||
         gpuPowerW.size() != layout.serverCount() *
             static_cast<std::size_t>(gpusPerServer) ||
         gpuTempC.size() != gpuPowerW.size()))
        ar.fail();
}

void
ClusterSim::checkpointFailures(Archive &ar)
{
    failureMgr->checkpointState(ar);
    bool has_fault_engine = faultEngine != nullptr;
    ar.value(has_fault_engine);
    if (has_fault_engine != (faultEngine != nullptr)) {
        // The fault timeline exists iff the config has a plan; a
        // mismatch means the checkpoint belongs elsewhere.
        ar.fail();
        return;
    }
    if (faultEngine)
        faultEngine->checkpointState(ar);
}

void
ClusterSim::checkpointSection(std::uint32_t id, Archive &ar)
{
    switch (id) {
    case kSecCore:
        checkpointCore(ar);
        break;
    case kSecVms:
        vmTable.checkpointState(ar);
        break;
    case kSecTelemetry:
        store.checkpointState(ar);
        break;
    case kSecProfiles:
        bank.checkpointState(ar);
        break;
    case kSecController:
        tapas->checkpointState(ar, vmTable.size());
        break;
    case kSecFailures:
        checkpointFailures(ar);
        break;
    case kSecMetrics:
        simMetrics.checkpointState(ar);
        break;
    }
}

void
ClusterSim::rebuildDerivedState()
{
    // Hot-list and inverse-map mirrors of the restored VM table.
    activeVms.clear();
    serverVm.assign(layout.serverCount(), VmId::invalidIndex);
    const std::size_t n = vmTable.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (!vmTable.active(i))
            continue;
        activeVms.push_back(static_cast<std::uint32_t>(i));
        serverVm[vmTable.serverOf[i]] = static_cast<std::uint32_t>(i);
    }

    // Memo caches: drop and let the next step refill them.
    idleSpecCache = nullptr;
}

std::uint64_t
ClusterSim::configDigest() const
{
    // Everything that shapes the serialized state's layout or the
    // deterministic reconstruction at restore: entity counts, trace
    // shape, seeds, horizon/step, policies, and the fault plan. Two
    // configs with equal digests produce interchangeable
    // checkpoints.
    DigestWriter digest;
    Archive &ar = digest.archive();
    auto u64 = [&ar](std::uint64_t v) { ar.value(v); };
    auto i64 = [&ar](std::int64_t v) { ar.value(v); };
    auto f64 = [&ar](double v) { ar.value(v); };
    u64(cfg.seed);
    i64(cfg.horizon);
    i64(cfg.stepLength);
    u64(static_cast<std::uint64_t>(cfg.mode));
    u64(static_cast<std::uint64_t>(cfg.layout.aisleCount));
    u64(static_cast<std::uint64_t>(cfg.layout.rowsPerAisle));
    u64(static_cast<std::uint64_t>(cfg.layout.racksPerRow));
    u64(static_cast<std::uint64_t>(cfg.layout.serversPerRack));
    u64(static_cast<std::uint64_t>(cfg.layout.sku));
    u64(static_cast<std::uint64_t>(cfg.layout.upsCount));
    u64(static_cast<std::uint64_t>(cfg.oversubscriptionPct));
    u64(static_cast<std::uint64_t>(cfg.policy.placeEnabled));
    u64(static_cast<std::uint64_t>(cfg.policy.routeEnabled));
    u64(static_cast<std::uint64_t>(cfg.policy.configEnabled));
    u64(static_cast<std::uint64_t>(
        cfg.policy.sensorQuarantineEnabled));
    i64(cfg.policy.riskRefreshPeriod);
    u64(static_cast<std::uint64_t>(cfg.vmTrace.targetVmCount));
    u64(static_cast<std::uint64_t>(cfg.vmTrace.endpointCount));
    u64(static_cast<std::uint64_t>(cfg.vmTrace.iaasCustomerCount));
    f64(cfg.vmTrace.saasFraction);
    i64(cfg.vmTrace.horizon);
    i64(cfg.telemetryRetention);
    f64(cfg.endpointPeakUtil);
    f64(cfg.demandPeakHour);
    f64(cfg.demandNoiseSigma);
    f64(cfg.inletLimitC);
    i64(cfg.profileRefitPeriod);
    f64(cfg.faults.ahu.mtbfS);
    f64(cfg.faults.ups.mtbfS);
    f64(cfg.faults.chiller.mtbfS);
    f64(cfg.faults.sensor.mtbfS);
    u64(cfg.faults.scripted.size());
    for (const ScriptedFault &fault : cfg.faults.scripted) {
        i64(fault.at);
        i64(fault.until);
        u64(static_cast<std::uint64_t>(fault.kind));
        u64(static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(fault.target)));
        f64(fault.remainingFrac);
        u64(static_cast<std::uint64_t>(fault.sensor));
    }
    return digest.value();
}

Error
ClusterSim::saveCheckpoint(const std::string &path)
{
    CheckpointWriter writer(configDigest());
    for (std::uint32_t id : kAllSections) {
        writer.section(id, [&](Archive &ar) {
            checkpointSection(id, ar);
            tapas_assert(ar.ok(),
                         "checkpoint write walk cannot fail (%s)",
                         sectionName(id));
        });
    }
    return writer.write(path);
}

Error
ClusterSim::restoreCheckpoint(const std::string &path)
{
    Result<CheckpointData> read = readCheckpointFile(path);
    if (!read.ok())
        return read.error();
    const CheckpointData &data = read.value();

    if (data.configDigest != configDigest()) {
        return Error::mismatch(
            "checkpoint '" + path +
            "' was written by a different configuration");
    }
    for (std::uint32_t id : kAllSections) {
        if (!data.find(id))
            return Error::corrupt("checkpoint '" + path +
                                  "': missing section '" +
                                  sectionName(id) + "'");
    }

    // All file-level validation passed (CRCs, lengths, config
    // digest); apply the sections. A payload that decodes
    // inconsistently past this point still surfaces as a structured
    // error, but the sim must then be discarded.
    for (std::uint32_t id : kAllSections) {
        const CheckpointSection *section = data.find(id);
        Archive ar = Archive::reader(section->payload);
        checkpointSection(id, ar);
        if (!ar.done())
            return Error::corrupt(
                "checkpoint '" + path + "': section '" +
                sectionName(id) +
                "' payload does not decode to this configuration");
    }
    rebuildDerivedState();
    return Error::okValue();
}

std::uint64_t
ClusterSim::stateDigest()
{
    // FNV-1a over the section payloads a checkpoint would contain,
    // in section order, hashed as one walk produces them (the rings
    // in place). Two sims with equal digests step identically
    // (everything stepping reads is either in the stream or
    // deterministically derived from it).
    DigestWriter digest;
    for (std::uint32_t id : kAllSections)
        checkpointSection(id, digest.archive());
    return digest.value();
}

} // namespace tapas
