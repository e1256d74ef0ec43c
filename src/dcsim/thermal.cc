#include "dcsim/thermal.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tapas {

ThermalModel::ThermalModel(const DatacenterLayout &layout_,
                           const ThermalConfig &config,
                           std::uint64_t seed)
    : layout(layout_), cfg(config),
      extendRng(mixSeed(seed, 0x65787464ULL)),
      gpusPerServer(layout_.specs().front().gpusPerServer)
{
    Rng rng(mixSeed(seed, 0x7468726dULL));

    // Fixed per-row offsets and per-row thermal gradient direction:
    // some rows are warmer at one end than the other (construction
    // and airflow differences the paper reports in Fig. 1).
    rowOffsets.reserve(layout.rowCount());
    for (std::size_t r = 0; r < layout.rowCount(); ++r) {
        rowOffsets.push_back(rng.uniform(0.0, cfg.rowSpreadC));
        rowDirs.push_back(rng.bernoulli(0.5) ? 1 : -1);
    }

    serverOffsets.reserve(layout.serverCount());
    gpuCoeffs.reserve(layout.serverCount() * gpusPerServer);
    gpuOffsets.reserve(layout.serverCount() * gpusPerServer);

    for (const Server &server : layout.servers())
        materializeServer(server, rng);
}

void
ThermalModel::extend()
{
    const std::size_t done = serverOffsets.size();
    for (std::size_t s = done; s < layout.serverCount(); ++s) {
        materializeServer(
            layout.server(ServerId(static_cast<std::uint32_t>(s))),
            extendRng);
    }
}

void
ThermalModel::materializeServer(const Server &server, Rng &rng)
{
    const std::vector<double> &row_offsets = rowOffsets;
    const std::vector<int> &row_dirs = rowDirs;
    tapas_assert(server.id.index == serverOffsets.size(),
                 "servers must be materialized in id order");
    const int racks_in_row = std::max(
        1, static_cast<int>(layout.row(server.row).racks.size()));
    const int slots = std::max(1, layout.config().serversPerRack);

    double pos_frac = racks_in_row > 1
        ? static_cast<double>(server.rowPosition) / (racks_in_row - 1)
        : 0.5;
    if (row_dirs[server.row.index] < 0)
        pos_frac = 1.0 - pos_frac;

    const double height_frac = slots > 1
        ? static_cast<double>(server.rackSlot) / (slots - 1)
        : 0.5;

    serverOffsets.push_back(row_offsets[server.row.index] +
                            cfg.rackSpreadC * pos_frac +
                            cfg.heightSpreadC * height_frac +
                            rng.gaussian(0.0, 0.15));

    for (int g = 0; g < gpusPerServer; ++g) {
        const double coeff =
            rng.gaussian(cfg.gpuCoeffMean, cfg.gpuCoeffSigma);
        gpuCoeffs.push_back(std::max(0.02, coeff));
        double offset =
            rng.gaussian(cfg.gpuOffsetMeanC, cfg.gpuOffsetSigmaC);
        if (g % 2 == 1)
            offset += cfg.oddGpuBiasC;
        gpuOffsets.push_back(std::max(0.0, offset));
    }
}

double
ThermalModel::coolingCurve(Celsius outside) const
{
    const double t = outside.value();
    if (t <= cfg.coldKneeC) {
        // Cooling holds the floor to avoid humidity-driven failures;
        // a tiny residual slope keeps the regression well-posed.
        return cfg.humidityFloorC + 0.02 * (t - cfg.coldKneeC);
    }
    const double mid_top = cfg.humidityFloorC +
        cfg.midSlope * (cfg.hotKneeC - cfg.coldKneeC);
    if (t <= cfg.hotKneeC)
        return cfg.humidityFloorC + cfg.midSlope * (t - cfg.coldKneeC);
    return mid_top + cfg.hotSlope * (t - cfg.hotKneeC);
}

Celsius
ThermalModel::inletTemperature(ServerId id, Celsius outside,
                               double dc_load_frac,
                               double aisle_overdraw_frac,
                               Rng *noise) const
{
    tapas_assert(dc_load_frac >= 0.0 && dc_load_frac <= 1.5,
                 "implausible datacenter load fraction %f",
                 dc_load_frac);
    tapas_assert(aisle_overdraw_frac >= 0.0,
                 "overdraw fraction must be non-negative");
    tapas_assert(id.index < serverOffsets.size(),
                 "server %u not materialized (missing extend()?)",
                 id.index);

    double t = coolingCurve(outside);
    t += cfg.loadSlopeC * dc_load_frac;
    t += serverOffsets[id.index];
    t += cfg.recircSlopeC * aisle_overdraw_frac;
    if (noise)
        t += noise->gaussian(0.0, cfg.noiseSigmaC);
    return Celsius(t);
}

Celsius
ThermalModel::gpuTemperature(ServerId id, int gpu, Celsius inlet,
                             Watts gpu_power) const
{
    tapas_assert(gpu >= 0 && gpu < gpusPerServer,
                 "gpu index %d out of range", gpu);
    const std::size_t idx =
        id.index * static_cast<std::size_t>(gpusPerServer) +
        static_cast<std::size_t>(gpu);
    return inlet + gpuOffsets[idx] + gpuCoeffs[idx] * gpu_power.value();
}

void
ThermalModel::inletTemperatures(Celsius outside, double dc_load_frac,
                                const std::vector<double>
                                    &aisle_overdraw_frac,
                                std::vector<double> &out_inlet_c)
    const
{
    tapas_assert(dc_load_frac >= 0.0 && dc_load_frac <= 1.5,
                 "implausible datacenter load fraction %f",
                 dc_load_frac);
    tapas_assert(aisle_overdraw_frac.size() == layout.aisleCount(),
                 "per-aisle overdraw vector has wrong size");

    const double base =
        coolingCurve(outside) + cfg.loadSlopeC * dc_load_frac;
    out_inlet_c.resize(layout.serverCount());
    for (const Server &server : layout.servers()) {
        const std::size_t s = server.id.index;
        out_inlet_c[s] = base + serverOffsets[s] +
            cfg.recircSlopeC *
                aisle_overdraw_frac[server.aisle.index];
    }
}

void
ThermalModel::gpuTemperatures(ServerId id, Celsius inlet,
                              const double *gpu_power_w,
                              double *out_c) const
{
    const std::size_t base =
        id.index * static_cast<std::size_t>(gpusPerServer);
    const double inlet_c = inlet.value();
    for (int g = 0; g < gpusPerServer; ++g) {
        const std::size_t idx =
            base + static_cast<std::size_t>(g);
        out_c[g] =
            inlet_c + gpuOffsets[idx] + gpuCoeffs[idx] * gpu_power_w[g];
    }
}

Celsius
ThermalModel::memTemperature(ServerId id, int gpu, Celsius inlet,
                             Watts gpu_power,
                             double mem_bound_frac) const
{
    const double frac = std::clamp(mem_bound_frac, 0.0, 1.0);
    const Celsius die = gpuTemperature(id, gpu, inlet, gpu_power);
    const double offset = cfg.memOffsetComputeC +
        (cfg.memOffsetMemBoundC - cfg.memOffsetComputeC) * frac;
    return die + offset;
}

double
ThermalModel::fanSpeed(double load_frac)
{
    const double load = std::clamp(load_frac, 0.0, 1.0);
    // Fans idle at 35% duty and reach 100% at full load; the
    // manufacturer's 80%-duty spec point lands at ~69% load.
    return 0.35 + 0.65 * load;
}

Cfm
ThermalModel::serverAirflow(ServerId id, double load_frac) const
{
    const ServerSpec &spec = layout.specOf(id);
    const double max_cfm = spec.airflowAt80Pct.value() / 0.8;
    return Cfm(max_cfm * fanSpeed(load_frac));
}

double
ThermalModel::spatialOffset(ServerId id) const
{
    return serverOffsets[id.index];
}

double
ThermalModel::gpuCoeff(ServerId id, int gpu) const
{
    return gpuCoeffs[id.index * static_cast<std::size_t>(gpusPerServer)
                     + static_cast<std::size_t>(gpu)];
}

double
ThermalModel::gpuOffset(ServerId id, int gpu) const
{
    return gpuOffsets[id.index * static_cast<std::size_t>(gpusPerServer)
                      + static_cast<std::size_t>(gpu)];
}

CoolingPlant::CoolingPlant(const DatacenterLayout &layout_,
                           const ThermalModel &thermal_)
    : layout(layout_), thermal(thermal_)
{
    provisionCfm.resize(layout.aisleCount(), 0.0);
    deratingFrac.resize(layout.aisleCount(), 1.0);
    for (const Aisle &aisle : layout.aisles()) {
        double total = 0.0;
        for (ServerId sid : aisle.servers)
            total += thermal.serverAirflow(sid, 1.0).value();
        provisionCfm[aisle.id.index] =
            total * thermal.config().airflowProvisionFactor;
    }
    demandCfm.resize(layout.aisleCount(), 0.0);
    extendDecomposition();
}

void
CoolingPlant::extendDecomposition()
{
    baseCfm.resize(layout.aisleCount(), 0.0);
    for (std::size_t s = slopeCfm.size(); s < layout.serverCount();
         ++s) {
        const ServerId sid(static_cast<std::uint32_t>(s));
        // serverAirflow is linear in load: f(l) = f(0) + slope * l.
        const double idle = thermal.serverAirflow(sid, 0.0).value();
        const double full = thermal.serverAirflow(sid, 1.0).value();
        slopeCfm.push_back(full - idle);
        const std::uint32_t aisle =
            layout.server(sid).aisle.index;
        serverAisle.push_back(aisle);
        baseCfm[aisle] += idle;
    }
}

void
CoolingPlant::updateDemands(const std::vector<double> &server_loads)
{
    tapas_assert(server_loads.size() == layout.serverCount(),
                 "per-server load vector has wrong size");
    if (slopeCfm.size() < layout.serverCount())
        extendDecomposition();

    demandCfm.assign(layout.aisleCount(), 0.0);
    for (std::size_t s = 0; s < server_loads.size(); ++s) {
        const double load =
            std::clamp(server_loads[s], 0.0, 1.0);
        demandCfm[serverAisle[s]] += slopeCfm[s] * load;
    }
    for (std::size_t a = 0; a < demandCfm.size(); ++a)
        demandCfm[a] += baseCfm[a];
    demandsFresh = true;

#ifndef NDEBUG
    // Cross-check the decomposition against the full recompute.
    for (const Aisle &aisle : layout.aisles()) {
        const double full = demand(aisle.id, server_loads).value();
        const double inc = demandCfm[aisle.id.index];
        tapas_assert(std::abs(full - inc) <=
                     1e-9 * std::max(1.0, std::abs(full)),
                     "incremental aisle demand diverged: %f vs %f",
                     inc, full);
    }
#endif
}

Cfm
CoolingPlant::cachedDemand(AisleId id) const
{
    tapas_assert(demandsFresh,
                 "cachedDemand before any updateDemands pass");
    tapas_assert(id.index < demandCfm.size(), "unknown aisle %u",
                 id.index);
    return Cfm(demandCfm[id.index]);
}

double
CoolingPlant::cachedOverdrawFraction(AisleId id) const
{
    const double prov = effectiveProvision(id).value();
    if (prov <= 0.0)
        return 0.0;
    return std::max(0.0, cachedDemand(id).value() / prov - 1.0);
}

Cfm
CoolingPlant::provision(AisleId id) const
{
    tapas_assert(id.index < provisionCfm.size(), "unknown aisle %u",
                 id.index);
    return Cfm(provisionCfm[id.index]);
}

Cfm
CoolingPlant::effectiveProvision(AisleId id) const
{
    return Cfm(provisionCfm[id.index] * deratingFrac[id.index]);
}

void
CoolingPlant::failAhu(AisleId id, double remaining_frac)
{
    tapas_assert(remaining_frac > 0.0 && remaining_frac <= 1.0,
                 "derating fraction must be in (0,1]");
    deratingFrac[id.index] = remaining_frac;
}

void
CoolingPlant::restoreAhu(AisleId id)
{
    deratingFrac[id.index] = 1.0;
}

bool
CoolingPlant::anyFailure() const
{
    for (double f : deratingFrac) {
        if (f < 1.0)
            return true;
    }
    return false;
}

Cfm
CoolingPlant::demand(AisleId id,
                     const std::vector<double> &server_loads) const
{
    tapas_assert(server_loads.size() == layout.serverCount(),
                 "per-server load vector has wrong size");
    double total = 0.0;
    for (ServerId sid : layout.aisle(id).servers)
        total += thermal.serverAirflow(sid,
                                       server_loads[sid.index]).value();
    return Cfm(total);
}

double
CoolingPlant::overdrawFraction(AisleId id,
                               const std::vector<double> &server_loads)
    const
{
    const double prov = effectiveProvision(id).value();
    if (prov <= 0.0)
        return 0.0;
    const double need = demand(id, server_loads).value();
    return std::max(0.0, need / prov - 1.0);
}

} // namespace tapas
