#include "core/allocator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tapas {

std::optional<ServerId>
BaselineAllocator::place(const PlacementRequest &request,
                         const ClusterView &view)
{
    (void)request;
    const DatacenterLayout &layout = *view.layout;

    // Protean-style packing: prefer the emptiest tail of the most
    // utilized racks so VMs concentrate, leaving whole racks free.
    std::optional<ServerId> best;
    int best_score = -1;
    for (const Server &server : layout.servers()) {
        if (view.occupied(server.id.index))
            continue;
        int occupied_in_rack = 0;
        for (ServerId sibling : layout.rack(server.rack).servers) {
            if (view.occupied(sibling.index))
                ++occupied_in_rack;
        }
        if (occupied_in_rack > best_score) {
            best_score = occupied_in_rack;
            best = server.id;
        }
    }
    return best;
}

void
TapasAllocator::peakLoadByServer(const ClusterView &view,
                                 std::vector<double> &peaks)
{
    const std::size_t servers = view.layout->serverCount();
    peaks.resize(servers);
    for (std::size_t s = 0; s < servers; ++s) {
        const std::uint32_t vm = view.serverVm[s];
        peaks[s] = vm == VmId::invalidIndex
            ? 0.0
            : validatorLoad(view.vmSlot[vm] == VmSlot::Saas
                                ? VmKind::SaaS
                                : VmKind::IaaS,
                            view.vmPeakLoad[vm]);
    }
}

double
TapasAllocator::predictedAisleAirflow(const ClusterView &view,
                                      AisleId aisle,
                                      ServerId extra_server,
                                      double extra_peak_load)
{
    tapas_assert(view.profiles, "TAPAS allocator needs profiles");
    std::vector<double> peaks;
    peakLoadByServer(view, peaks);
    const std::vector<ServerId> &servers =
        view.layout->aisle(aisle).servers;
    std::vector<double> loads(servers.size());
    std::vector<double> airflow(servers.size());
    for (std::size_t i = 0; i < servers.size(); ++i) {
        double load = peaks[servers[i].index];
        if (extra_server.valid() && servers[i] == extra_server)
            load = std::max(load, extra_peak_load);
        loads[i] = load;
    }
    view.profiles->predictAirflowGather(servers.data(), loads.data(),
                                        servers.size(),
                                        airflow.data());
    double total = 0.0;
    for (std::size_t i = 0; i < servers.size(); ++i)
        total += airflow[i];
    return total;
}

double
TapasAllocator::predictedRowPower(const ClusterView &view, RowId row,
                                  ServerId extra_server,
                                  double extra_peak_load)
{
    tapas_assert(view.profiles, "TAPAS allocator needs profiles");
    std::vector<double> peaks;
    peakLoadByServer(view, peaks);
    const std::vector<ServerId> &servers =
        view.layout->row(row).servers;
    std::vector<double> loads(servers.size());
    std::vector<double> power(servers.size());
    for (std::size_t i = 0; i < servers.size(); ++i) {
        const ServerId sid = servers[i];
        double load = peaks[sid.index];
        if (extra_server.valid() && sid == extra_server)
            load = std::max(load, extra_peak_load);
        loads[i] = load;
    }
    view.profiles->predictPowerGather(servers.data(), loads.data(),
                                      servers.size(), power.data());
    double total = 0.0;
    for (std::size_t i = 0; i < servers.size(); ++i)
        total += power[i];
    return total;
}

std::optional<ServerId>
TapasAllocator::place(const PlacementRequest &request,
                      const ClusterView &view)
{
    tapas_assert(view.profiles, "TAPAS allocator needs profiles");
    const DatacenterLayout &layout = *view.layout;
    const ProfileBank &profiles = *view.profiles;
    const std::size_t servers = layout.serverCount();

    // Pre-compute per-row VM mix for the balance rule.
    rowIaasScratch.assign(layout.rowCount(), 0);
    rowSaasScratch.assign(layout.rowCount(), 0);
    std::vector<int> &row_iaas = rowIaasScratch;
    std::vector<int> &row_saas = rowSaasScratch;
    for (const Server &server : layout.servers()) {
        const std::uint32_t vm = view.serverVm[server.id.index];
        if (vm == VmId::invalidIndex)
            continue;
        if (view.vmSlot[vm] == VmSlot::Saas) {
            ++row_saas[server.row.index];
        } else {
            ++row_iaas[server.row.index];
        }
    }

    std::optional<ServerId> best;
    double best_score = -1e18;
    // Soft fallback: the thermal margin is a preference, not a
    // physical limit; if no server clears it, place on the coolest
    // projection rather than starving the VM. Every server that
    // passes both validators becomes best or fallback, so only the
    // validators (i.e. admissionLoad) can reject.
    std::optional<ServerId> fallback;
    double fallback_hottest = 1e18;

    // SaaS requests count at their controllable floor for the
    // airflow/power validators; the thermal projection uses the raw
    // predicted peak.
    const double request_peak = admissionLoad(request);

    // Precompute every per-server prediction the candidate loop
    // needs as fleet-wide batched passes: the occupied-peak demand
    // bases, the empty/requested what-if deltas, and the design-day
    // thermal projection. The loop below then only reads packed
    // arrays; per candidate only its own delta changes (keeps
    // place() linear).
    peakLoadByServer(view, peaksScratch);
    airflowZeroScratch.resize(servers);
    airflowReqScratch.resize(servers);
    powerZeroScratch.resize(servers);
    powerReqScratch.resize(servers);
    inletScratch.resize(servers);
    perGpuWScratch.resize(servers);
    hottestScratch.resize(servers);
    // Reuse the occupied-peak airflow/power pass for the bases.
    profiles.predictAirflowBatch(peaksScratch.data(), servers,
                                 airflowReqScratch.data());
    profiles.predictPowerBatch(peaksScratch.data(), servers,
                               powerReqScratch.data());
    aisleBaseScratch.assign(layout.aisleCount(), 0.0);
    rowBaseScratch.assign(layout.rowCount(), 0.0);
    std::vector<double> &aisle_base = aisleBaseScratch;
    std::vector<double> &row_base = rowBaseScratch;
    for (const Server &server : layout.servers()) {
        aisle_base[server.aisle.index] +=
            airflowReqScratch[server.id.index];
        row_base[server.row.index] +=
            powerReqScratch[server.id.index];
    }
    profiles.predictAirflowUniformBatch(0.0, servers,
                                        airflowZeroScratch.data());
    profiles.predictAirflowUniformBatch(request_peak, servers,
                                        airflowReqScratch.data());
    profiles.predictPowerUniformBatch(0.0, servers,
                                      powerZeroScratch.data());
    profiles.predictPowerUniformBatch(request_peak, servers,
                                      powerReqScratch.data());
    // Design-day conservatism: a placement lives for weeks, so
    // project against a hot afternoon at high datacenter load.
    profiles.predictInletBatch(std::max(view.outsideC, 34.0), 1.0,
                               servers, inletScratch.data());
    for (const Server &server : layout.servers()) {
        const ServerSpec &spec = layout.specOf(server.id);
        perGpuWScratch[server.id.index] =
            spec.gpuIdlePower.value() +
            (spec.gpuMaxPower.value() -
             spec.gpuIdlePower.value()) *
                request.predictedPeakLoad;
    }
    profiles.predictHottestGpuUniformBatch(inletScratch.data(),
                                           perGpuWScratch.data(),
                                           servers,
                                           hottestScratch.data());

    for (const Server &server : layout.servers()) {
        if (view.occupied(server.id.index))
            continue;

        // --- Validator rule: Eq. 3 (airflow) and Eq. 4 (power). ---
        const double aisle_demand =
            aisle_base[server.aisle.index] -
            airflowZeroScratch[server.id.index] +
            airflowReqScratch[server.id.index];
        const double aisle_budget =
            view.cooling->effectiveProvision(server.aisle).value();
        if (aisle_demand > aisle_budget)
            continue;

        const double row_demand =
            row_base[server.row.index] -
            powerZeroScratch[server.id.index] +
            powerReqScratch[server.id.index];
        const double row_budget =
            view.power->effectiveRowProvision(server.row).value();
        if (row_demand > row_budget)
            continue;

        // Projected hottest GPU at the VM's predicted peak via the
        // fitted Eq. 2 (hot-summer inlet assumption): refuse any
        // server that would flirt with the throttle point.
        const ServerSpec &spec = layout.specOf(server.id);
        const double hottest = hottestScratch[server.id.index];
        const double throttle = spec.throttleTemp.value();
        if (hottest > throttle - cfg.gpuTempMarginC) {
            if (!fallback.has_value() || hottest < fallback_hottest) {
                fallback_hottest = hottest;
                fallback = server.id;
            }
            continue;
        }
        // Thermal headroom score: the paper's "place hotter IaaS VMs
        // in cooler servers" selects the lowest projected peak GPU
        // temperature; SaaS tolerates warmth (it can be reconfigured
        // or rerouted away later).
        const double headroom_frac =
            std::clamp((throttle - hottest) / 25.0, 0.0, 1.0);
        const double thermal_score =
            request.kind == VmKind::IaaS ? 2.0 * headroom_frac
                                         : 0.5 * headroom_frac;

        // --- Preference rule 1: temperature class. ---
        const ThermalClass klass = profiles.thermalClass(server.id);
        double class_score = 0.0;
        if (request.kind == VmKind::IaaS) {
            class_score = klass == ThermalClass::Cold ? 2.0
                : klass == ThermalClass::Medium      ? 1.0
                                                     : 0.0;
        } else {
            class_score = klass == ThermalClass::Warm ? 2.0
                : klass == ThermalClass::Medium      ? 1.0
                                                     : 0.0;
        }

        // --- Preference rule 2: IaaS/SaaS balance in the row. ---
        int iaas = row_iaas[server.row.index];
        int saas = row_saas[server.row.index];
        if (request.kind == VmKind::IaaS) {
            ++iaas;
        } else {
            ++saas;
        }
        const int total = iaas + saas;
        const double balance_score = total > 0
            ? 1.0 - std::abs(iaas - saas) / static_cast<double>(total)
            : 1.0;

        // --- Headroom tie-break: spread peaks across rows. ---
        const double headroom_score =
            row_budget > 0.0 ? 1.0 - row_demand / row_budget : 0.0;

        const double score = 2.0 * class_score +
            1.0 * balance_score + 3.0 * headroom_score +
            thermal_score;
        if (!best.has_value() || score > best_score) {
            best_score = score;
            best = server.id;
        }
    }
    return best.has_value() ? best : fallback;
}

} // namespace tapas
