#include "core/allocator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tapas {

namespace {

/** A hosted VM's peak as every budget validator counts it. */
double
hostedPeak(const ClusterView &view, std::uint32_t vm)
{
    return TapasAllocator::validatorLoad(
        view.vmSlot[vm] == VmSlot::Saas ? VmKind::SaaS : VmKind::IaaS,
        view.vmPeakLoad[vm]);
}

} // namespace

std::optional<ServerId>
BaselineAllocator::place(const PlacementRequest &request,
                         const ClusterView &view)
{
    (void)request;
    const DatacenterLayout &layout = *view.layout;

    // Protean-style packing: prefer the emptiest tail of the most
    // utilized racks so VMs concentrate, leaving whole racks free.
    rackCountScratch.assign(layout.rackCount(), 0);
    for (const Server &server : layout.servers()) {
        if (view.occupied(server.id.index))
            ++rackCountScratch[server.rack.index];
    }
    std::optional<ServerId> best;
    int best_score = -1;
    for (const Server &server : layout.servers()) {
        if (view.occupied(server.id.index))
            continue;
        const int occupied_in_rack = rackCountScratch[server.rack.index];
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
        peaks[s] = vm == VmId::invalidIndex ? 0.0 : hostedPeak(view, vm);
    }
}

void
TapasAllocator::Basis::build(const ClusterView &view)
{
    tapas_assert(view.profiles, "TAPAS allocator needs profiles");
    const DatacenterLayout &layout = *view.layout;
    const ProfileBank &profiles = *view.profiles;
    const std::size_t servers = layout.serverCount();

    // Occupied-peak airflow/power per server, summed per aisle/row
    // in ascending server order (commit() re-sums in that order).
    peakLoadByServer(view, peaks);
    occupiedAirflow.resize(servers);
    occupiedPower.resize(servers);
    const ServerBatch fleet = ServerBatch::firstN(servers);
    profiles.predictAirflow(fleet, peaks.data(), occupiedAirflow.data());
    profiles.predictPower(fleet, peaks.data(), occupiedPower.data());
    aisleDemand.assign(layout.aisleCount(), 0.0);
    rowDemand.assign(layout.rowCount(), 0.0);
    rowIaas.assign(layout.rowCount(), 0);
    rowSaas.assign(layout.rowCount(), 0);
    classes.resize(servers);
    freeServers.clear();
    freeServers.reserve(servers);
    for (const Server &server : layout.servers()) {
        const std::uint32_t s = server.id.index;
        aisleDemand[server.aisle.index] += occupiedAirflow[s];
        rowDemand[server.row.index] += occupiedPower[s];
        classes[s] = profiles.thermalClass(server.id);
        // Per-row VM mix for the balance rule.
        const std::uint32_t vm = view.serverVm[s];
        if (vm == VmId::invalidIndex) {
            freeServers.push_back(server.id);
        } else if (view.vmSlot[vm] == VmSlot::Saas) {
            ++rowSaas[server.row.index];
        } else {
            ++rowIaas[server.row.index];
        }
    }
    aisleBudget.resize(layout.aisleCount());
    for (const Aisle &aisle : layout.aisles()) {
        aisleBudget[aisle.id.index] =
            view.cooling->effectiveProvision(aisle.id).value();
    }
    rowBudget.resize(layout.rowCount());
    for (const Row &row : layout.rows()) {
        rowBudget[row.id.index] =
            view.power->effectiveRowProvision(row.id).value();
    }

    airflowZero.resize(servers);
    powerZero.resize(servers);
    profiles.predictAirflow(fleet, 0.0, airflowZero.data());
    profiles.predictPower(fleet, 0.0, powerZero.data());
    // Design-day conservatism: a placement lives for weeks, so
    // project against a hot afternoon at high datacenter load.
    inlet.resize(servers);
    profiles.predictInlet(fleet, std::max(view.outsideC, 34.0), 1.0,
                          inlet.data());

    // The request stage writes at most one slot per server.
    airflowAtLoad.resize(servers);
    powerAtLoad.resize(servers);
    survivors.resize(servers);
    survivorRowDemand.resize(servers);
    survivorInlet.resize(servers);
    survivorGpuW.resize(servers);
    survivorHottest.resize(servers);
    rowBalance.resize(layout.rowCount());
}

// tapas-hot begin(place-round): the request stage and commit() run
// per placement attempt; build() sized every buffer they write.

void
TapasAllocator::Basis::commit(ServerId server, const ClusterView &view)
{
    const DatacenterLayout &layout = *view.layout;
    const ProfileBank &profiles = *view.profiles;
    const Server &placed = layout.server(server);
    const std::uint32_t s = server.index;
    const std::uint32_t vm = view.serverVm[s];
    tapas_assert(vm != VmId::invalidIndex,
                 "committed server %u hosts no VM", s);
    peaks[s] = hostedPeak(view, vm);
    const ServerBatch placed_server = ServerBatch::list(&server, 1);
    profiles.predictAirflow(placed_server, &peaks[s],
                            &occupiedAirflow[s]);
    profiles.predictPower(placed_server, &peaks[s], &occupiedPower[s]);
    // Re-sum from zero rather than adding the delta: the sums stay
    // bit-identical to a fresh build's.
    double airflow = 0.0;
    for (ServerId sid : layout.aisle(placed.aisle).servers)
        airflow += occupiedAirflow[sid.index];
    aisleDemand[placed.aisle.index] = airflow;
    double power = 0.0;
    for (ServerId sid : layout.row(placed.row).servers)
        power += occupiedPower[sid.index];
    rowDemand[placed.row.index] = power;
    ++(view.vmSlot[vm] == VmSlot::Saas ? rowSaas
                                       : rowIaas)[placed.row.index];

    const auto it = std::lower_bound(freeServers.begin(),
                                     freeServers.end(), server);
    tapas_assert(it != freeServers.end() && *it == server,
                 "committed server %u was not free", s);
    freeServers.erase(it);
}

std::optional<ServerId>
TapasAllocator::pick(const PlacementRequest &request,
                     const ClusterView &view)
{
    Basis &basis = round;
    const Server *servers = view.layout->servers().data();
    const ServerSpec *specs = view.layout->specs().data();
    const ProfileBank &profiles = *view.profiles;
    const bool iaas_request = request.kind == VmKind::IaaS;

    // --- Validator rule: Eq. 3 (airflow) and Eq. 4 (power). ---
    // SaaS requests count at their controllable floor for the
    // airflow/power validators; the thermal projection uses the raw
    // predicted peak. Per free server only its own delta changes.
    const double request_peak = admissionLoad(request);
    const std::size_t free_count = basis.freeServers.size();
    const ServerId *free = basis.freeServers.data();
    const ServerBatch free_servers = ServerBatch::list(free, free_count);
    profiles.predictAirflow(free_servers, request_peak,
                            basis.airflowAtLoad.data());
    profiles.predictPower(free_servers, request_peak,
                          basis.powerAtLoad.data());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < free_count; ++i) {
        const std::uint32_t s = free[i].index;
        const Server &server = servers[s];
        const double aisle_demand = basis.aisleDemand[server.aisle.index] -
            basis.airflowZero[s] + basis.airflowAtLoad[i];
        if (aisle_demand > basis.aisleBudget[server.aisle.index])
            continue;
        const double row_demand = basis.rowDemand[server.row.index] -
            basis.powerZero[s] + basis.powerAtLoad[i];
        if (row_demand > basis.rowBudget[server.row.index])
            continue;
        const ServerSpec &spec = specs[server.specIndex];
        basis.survivors[kept] = free[i];
        basis.survivorRowDemand[kept] = row_demand;
        basis.survivorInlet[kept] = basis.inlet[s];
        basis.survivorGpuW[kept] = spec.gpuIdlePower.value() +
            (spec.gpuMaxPower.value() - spec.gpuIdlePower.value()) *
                request.predictedPeakLoad;
        ++kept;
    }
    // Projected hottest GPU at the VM's predicted peak via the
    // fitted Eq. 2 (design-day inlet), for the survivors only.
    profiles.predictHottestGpu(
        ServerBatch::list(basis.survivors.data(), kept),
        basis.survivorInlet.data(), basis.survivorGpuW.data(),
        basis.survivorHottest.data());

    // --- Preference rule 2: IaaS/SaaS balance in the row, with
    // this VM added (per row, not per candidate). ---
    for (std::size_t r = 0; r < basis.rowBalance.size(); ++r) {
        const int iaas = basis.rowIaas[r] + (iaas_request ? 1 : 0);
        const int saas = basis.rowSaas[r] + (iaas_request ? 0 : 1);
        const int total = iaas + saas;
        basis.rowBalance[r] = total > 0
            ? 1.0 - std::abs(iaas - saas) / static_cast<double>(total)
            : 1.0;
    }

    std::optional<ServerId> best;
    double best_score = -1e18;
    // Soft fallback: the thermal margin is a preference, not a
    // physical limit; if no server clears it, place on the coolest
    // projection rather than starving the VM. Every survivor becomes
    // best or fallback, so only the validators (i.e. admissionLoad)
    // can reject.
    std::optional<ServerId> fallback;
    double fallback_hottest = 1e18;
    for (std::size_t i = 0; i < kept; ++i) {
        const ServerId id = basis.survivors[i];
        const Server &server = servers[id.index];

        // Refuse any server that would flirt with the throttle point.
        const double hottest = basis.survivorHottest[i];
        const double throttle =
            specs[server.specIndex].throttleTemp.value();
        if (hottest > throttle - cfg.gpuTempMarginC) {
            if (!fallback.has_value() || hottest < fallback_hottest) {
                fallback_hottest = hottest;
                fallback = id;
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
            iaas_request ? 2.0 * headroom_frac : 0.5 * headroom_frac;

        // --- Preference rule 1: temperature class. ---
        const ThermalClass klass = basis.classes[id.index];
        const ThermalClass preferred =
            iaas_request ? ThermalClass::Cold : ThermalClass::Warm;
        const double class_score = klass == preferred ? 2.0
            : klass == ThermalClass::Medium          ? 1.0
                                                     : 0.0;

        // --- Headroom tie-break: spread peaks across rows. ---
        const double row_budget = basis.rowBudget[server.row.index];
        const double headroom_score = row_budget > 0.0
            ? 1.0 - basis.survivorRowDemand[i] / row_budget
            : 0.0;

        const double score = 2.0 * class_score +
            1.0 * basis.rowBalance[server.row.index] +
            3.0 * headroom_score + thermal_score;
        if (!best.has_value() || score > best_score) {
            best_score = score;
            best = id;
        }
    }
    return best.has_value() ? best : fallback;
}

// tapas-hot end(place-round)

std::optional<ServerId>
TapasAllocator::place(const PlacementRequest &request,
                      const ClusterView &view)
{
    // Outside a round the basis serves this call alone: leave it
    // unbuilt so the next call reads its own view.
    if (!roundBuilt) {
        round.build(view);
        roundBuilt = roundOpen;
    }
    return pick(request, view);
}

void
TapasAllocator::beginRound()
{
    roundOpen = true;
    roundBuilt = false;
}

void
TapasAllocator::commit(ServerId server, const ClusterView &view)
{
    tapas_assert(roundOpen, "commit outside a placement round");
    // An unbuilt basis has nothing to update: the lazy build will
    // read the committed view.
    if (roundBuilt)
        round.commit(server, view);
}

void
TapasAllocator::endRound()
{
    roundOpen = false;
    roundBuilt = false;
}

} // namespace tapas
