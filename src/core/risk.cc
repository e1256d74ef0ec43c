#include "core/risk.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace tapas {

void
RiskAssessor::refresh(const ClusterView &view,
                      const std::vector<double> &gpu_power_w)
{
    tapas_assert(view.profiles, "risk assessment needs profiles");
    const DatacenterLayout &layout = *view.layout;
    const ProfileBank &profiles = *view.profiles;
    const int gpus = layout.specs().front().gpusPerServer;
    tapas_assert(gpu_power_w.size() ==
                 layout.serverCount() *
                 static_cast<std::size_t>(gpus),
                 "per-GPU power vector has wrong size");

    // tapas-hot begin(risk-refresh): the fleet-wide risk sweep runs
    // on every refresh cadence tick; member scratch only (R3).
    const std::size_t servers = layout.serverCount();
    // lint-allow(R3): steady-state no-op — fleet size is fixed, so
    // this resize allocates once and is a capacity check afterwards.
    risks.resize(servers);

    // One fleet-wide batched pass per fitted model; the aisle/row
    // walks below then only aggregate the precomputed per-server
    // values (in the same server order as the old scalar loops, so
    // the sums are bit-identical).
    airflowScratch.resize(servers);
    powerScratch.resize(servers);
    inletScratch.resize(servers);
    hottestScratch.resize(servers);
    // Sensor sanity gate: quarantined servers have their untrusted
    // per-GPU readings replaced by the last known good snapshot
    // before any prediction reads them. With the gate disabled (or
    // every sensor healthy) this IS the caller's vector.
    const std::vector<double> &effective_gpu_w =
        cfg.sensorQuarantineEnabled
        ? applySensorQuarantine(view, gpu_power_w, gpus)
        : gpu_power_w;
    const ServerBatch fleet = ServerBatch::firstN(servers);
    profiles.predictAirflow(fleet, view.serverLoads.data(),
                            airflowScratch.data());
    profiles.predictPower(fleet, view.serverLoads.data(),
                          powerScratch.data());
    profiles.predictInlet(fleet, view.outsideC, view.dcLoadFrac,
                          inletScratch.data());
    profiles.predictHottestGpu(
        fleet, inletScratch.data(),
        BatchInput::perGpu(effective_gpu_w.data()),
        hottestScratch.data());

    // Aisle airflow and row power headrooms from the batched
    // predictions at current loads, into small per-group arrays.
    aisleHeadroomScratch.resize(layout.aisleCount());
    aisleRiskScratch.resize(layout.aisleCount());
    for (const Aisle &aisle : layout.aisles()) {
        double demand = 0.0;
        for (ServerId sid : aisle.servers)
            demand += airflowScratch[sid.index];
        const double budget =
            view.cooling->effectiveProvision(aisle.id).value();
        const double headroom = budget - demand;
        aisleHeadroomScratch[aisle.id.index] = headroom;
        aisleRiskScratch[aisle.id.index] =
            headroom < cfg.airflowMarginFrac * budget;
    }
    rowHeadroomScratch.resize(layout.rowCount());
    rowRiskScratch.resize(layout.rowCount());
    for (const Row &row : layout.rows()) {
        double demand = 0.0;
        for (ServerId sid : row.servers)
            demand += powerScratch[sid.index];
        const double budget =
            view.power->effectiveRowProvision(row.id).value();
        const double headroom = budget - demand;
        rowHeadroomScratch[row.id.index] = headroom;
        rowRiskScratch[row.id.index] =
            headroom < cfg.rowPowerMarginFrac * budget;
    }

    // The per-server thermal limit is fixed by the layout; hoist it
    // out of the refresh into a cached array.
    if (thermalLimitC.size() != servers) {
        // lint-allow(R3): one-time cache fill, guarded by the size
        // check above.
        thermalLimitC.resize(servers);
        for (const Server &server : layout.servers()) {
            thermalLimitC[server.id.index] =
                layout.specOf(server.id).throttleTemp.value() -
                cfg.gpuTempMarginC;
        }
    }

    // Single pass assembling every risk entry (all fields written,
    // so no clearing pass is needed).
    for (const Server &server : layout.servers()) {
        ServerRisk &entry = risks[server.id.index];
        const double hottest = hottestScratch[server.id.index];
        entry.aisleHeadroomCfm =
            aisleHeadroomScratch[server.aisle.index];
        entry.airflowRisk =
            aisleRiskScratch[server.aisle.index] != 0;
        entry.rowHeadroomW = rowHeadroomScratch[server.row.index];
        entry.powerRisk = rowRiskScratch[server.row.index] != 0;
        entry.predictedHottestGpuC = hottest;
        // Quarantined servers keep extra distance to the throttle
        // point: the prediction ran on a stale snapshot.
        entry.quarantined = quarantined(server.id);
        const double limit = entry.quarantined
            ? thermalLimitC[server.id.index] -
                cfg.quarantineExtraMarginC
            : thermalLimitC[server.id.index];
        entry.thermalRisk = hottest > limit;
    }

    lastRefreshAt = view.now;
    // tapas-hot end(risk-refresh)
}

const std::vector<double> &
RiskAssessor::applySensorQuarantine(
    const ClusterView &view, const std::vector<double> &gpu_power_w,
    int gpus)
{
    const DatacenterLayout &layout = *view.layout;
    const std::size_t servers = layout.serverCount();
    const std::size_t width = static_cast<std::size_t>(gpus);

    // The spec-derived bounds are guarded on their OWN size, not
    // the streak state's: a checkpoint restore brings the streaks
    // and snapshots back already sized, and these caches must then
    // refill independently.
    if (idleTotalW.size() != servers) {
        // lint-allow(R3): one-time cache fill, size-guarded.
        idleTotalW.resize(servers);
        maxTotalW.resize(servers);
        for (const Server &server : layout.servers()) {
            const ServerSpec &spec = layout.specOf(server.id);
            idleTotalW[server.id.index] =
                spec.gpuIdlePower.value() * spec.gpusPerServer;
            maxTotalW[server.id.index] =
                spec.gpuMaxPower.value() * spec.gpusPerServer;
        }
    }
    if (divergeStreak.size() != servers) {
        divergeStreak.assign(servers, 0);
        healthyStreak.assign(servers, 0);
        quarantinedFlag.assign(servers, 0);
        // Seed the known-good snapshot at idle: a server that is
        // quarantined before its first healthy refresh predicts
        // from the most conservative trusted state there is.
        lastGoodGpuW.resize(servers * width);
        for (const Server &server : layout.servers()) {
            const ServerSpec &spec = layout.specOf(server.id);
            for (std::size_t g = 0; g < width; ++g) {
                lastGoodGpuW[server.id.index * width + g] =
                    spec.gpuIdlePower.value();
            }
        }
    }

    // tapas-hot begin(sensor-quarantine): steady-state per-server
    // divergence scan (the init block above runs once per fleet
    // size and is outside the region on purpose).
    bool any_substituted = false;
    for (std::size_t s = 0; s < servers; ++s) {
        double observed = 0.0;
        for (std::size_t g = 0; g < width; ++g)
            observed += gpu_power_w[s * width + g];

        // Reconstruct the GPU power the load fraction implies: the
        // simulator's server load IS the normalized GPU power, so a
        // healthy sensor matches this reconstruction exactly. An
        // all-zero reading is pre-first-step state, not a fault.
        const double load = view.serverLoads[s];
        const double recon = idleTotalW[s] +
            load * (maxTotalW[s] - idleTotalW[s]);
        const double tol = std::max(
            cfg.sensorEnvelopeFloorW,
            cfg.sensorEnvelopeFrac * recon);
        bool diverging;
        if (observed <= 0.0) {
            diverging = false;
        } else if (load >= 1.0) {
            // Load saturated at the clamp: readings above the
            // reconstruction are consistent with it.
            diverging = observed < recon - tol;
        } else if (load <= 0.0) {
            diverging = observed > recon + tol;
        } else {
            diverging = observed < recon - tol ||
                observed > recon + tol;
        }

        if (diverging) {
            healthyStreak[s] = 0;
            if (divergeStreak[s] < cfg.sensorQuarantineAfter)
                ++divergeStreak[s];
            if (!quarantinedFlag[s] &&
                divergeStreak[s] >= cfg.sensorQuarantineAfter) {
                quarantinedFlag[s] = 1;
                ++quarantinedCount;
                ++quarantineEventCount;
            }
        } else {
            divergeStreak[s] = 0;
            if (healthyStreak[s] < cfg.sensorRecoverAfter)
                ++healthyStreak[s];
            if (quarantinedFlag[s] &&
                healthyStreak[s] >= cfg.sensorRecoverAfter) {
                quarantinedFlag[s] = 0;
                --quarantinedCount;
            }
            if (!quarantinedFlag[s] && observed > 0.0) {
                // Trusted reading: refresh the known-good snapshot.
                for (std::size_t g = 0; g < width; ++g) {
                    lastGoodGpuW[s * width + g] =
                        gpu_power_w[s * width + g];
                }
            }
        }

        if (quarantinedFlag[s] && !any_substituted) {
            // First substitution this refresh: materialize the copy.
            gpuPowerScratch = gpu_power_w;
            any_substituted = true;
        }
        if (quarantinedFlag[s]) {
            for (std::size_t g = 0; g < width; ++g) {
                gpuPowerScratch[s * width + g] =
                    lastGoodGpuW[s * width + g];
            }
        }
    }
    return any_substituted ? gpuPowerScratch : gpu_power_w;
    // tapas-hot end(sensor-quarantine)
}

bool
RiskAssessor::maybeRefresh(const ClusterView &view,
                           const std::vector<double> &gpu_power_w)
{
    if (lastRefreshAt >= 0 &&
        view.now - lastRefreshAt < cfg.riskRefreshPeriod) {
        return false;
    }
    refresh(view, gpu_power_w);
    return true;
}

const ServerRisk &
RiskAssessor::risk(ServerId id) const
{
    tapas_assert(id.index < risks.size(),
                 "risk queried before refresh or for unknown server");
    return risks[id.index];
}

std::size_t
RiskAssessor::flaggedCount() const
{
    std::size_t count = 0;
    for (const ServerRisk &entry : risks) {
        if (entry.any())
            ++count;
    }
    return count;
}

void
RiskAssessor::checkpointState(Archive &ar, const DatacenterLayout &layout)
{
    ar.each(risks, [](Archive &a, ServerRisk &r) {
        a.value(r.thermalRisk);
        a.value(r.powerRisk);
        a.value(r.airflowRisk);
        a.value(r.quarantined);
        a.value(r.predictedHottestGpuC);
        a.value(r.rowHeadroomW);
        a.value(r.aisleHeadroomCfm);
    });
    ar.value(lastRefreshAt);
    ar.podVector(divergeStreak);
    ar.podVector(healthyStreak);
    ar.podVector(quarantinedFlag);
    ar.podVector(lastGoodGpuW);
    ar.count(quarantinedCount);
    ar.value(quarantineEventCount);
    if (ar.writing())
        return;
    // The next refresh indexes every vector by server unchecked: the
    // risk cache is empty or fleet-sized, and the sensor state is
    // empty or fleet-sized as a whole.
    const std::size_t servers = layout.serverCount();
    const std::size_t n = divergeStreak.size();
    const std::size_t gpus =
        static_cast<std::size_t>(layout.specs().front().gpusPerServer);
    const auto flagged = static_cast<std::size_t>(
        std::count_if(quarantinedFlag.begin(), quarantinedFlag.end(),
                      [](char f) { return f != 0; }));
    if ((!risks.empty() && risks.size() != servers) ||
        (n != 0 && n != servers) || healthyStreak.size() != n ||
        quarantinedFlag.size() != n || lastGoodGpuW.size() != n * gpus ||
        quarantinedCount != flagged) {
        ar.fail();
    }
}

} // namespace tapas
