/**
 * @file
 * Test oracles for TAPAS placement: whole-aisle / whole-row predicted
 * demand sums, and a reference placement that walks the whole fleet
 * the straightforward way (every prediction for every server, then
 * one ascending scan). TapasAllocator's per-phase basis and its
 * request stage must agree with both bit for bit.
 */

#ifndef TAPAS_TESTS_CORE_PLACEMENT_ORACLE_HH
#define TAPAS_TESTS_CORE_PLACEMENT_ORACLE_HH

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/allocator.hh"
#include "core/context.hh"

namespace tapas {

/**
 * Predicted peak airflow demand of an aisle (CFM), including an
 * optional extra VM at the given server. Sums from 0.0 in the
 * aisle's (ascending) server order, as the allocator's basis does.
 */
inline double
predictedAisleAirflow(const ClusterView &view, AisleId aisle,
                      ServerId extra_server, double extra_peak_load)
{
    std::vector<double> peaks;
    TapasAllocator::peakLoadByServer(view, peaks);
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
    view.profiles->predictAirflow(
        ServerBatch::list(servers.data(), servers.size()), loads.data(),
        airflow.data());
    double total = 0.0;
    for (double a : airflow)
        total += a;
    return total;
}

/** Predicted peak power demand of a row (W), incl. optional VM. */
inline double
predictedRowPower(const ClusterView &view, RowId row,
                  ServerId extra_server, double extra_peak_load)
{
    std::vector<double> peaks;
    TapasAllocator::peakLoadByServer(view, peaks);
    const std::vector<ServerId> &servers =
        view.layout->row(row).servers;
    std::vector<double> loads(servers.size());
    std::vector<double> power(servers.size());
    for (std::size_t i = 0; i < servers.size(); ++i) {
        double load = peaks[servers[i].index];
        if (extra_server.valid() && servers[i] == extra_server)
            load = std::max(load, extra_peak_load);
        loads[i] = load;
    }
    view.profiles->predictPower(
        ServerBatch::list(servers.data(), servers.size()), loads.data(),
        power.data());
    double total = 0.0;
    for (double p : power)
        total += p;
    return total;
}

/** What the reference placement decided, and how. */
struct ReferencePlacement
{
    std::optional<ServerId> pick;
    /** No validator survivor cleared the thermal margin. */
    bool fallback = false;
    /** Candidates scoring exactly the best score (1 = no tie). */
    int tiedAtBest = 0;
};

/**
 * The TAPAS placement rules over the whole fleet: fleet-wide
 * predictions for every server, then one ascending scan in which a
 * free server must pass both validators before its thermal
 * projection counts; first maximum for the best score, first
 * minimum for the fallback.
 */
inline ReferencePlacement
referencePlace(const TapasPolicyConfig &cfg,
               const PlacementRequest &request, const ClusterView &view)
{
    const DatacenterLayout &layout = *view.layout;
    const ProfileBank &profiles = *view.profiles;
    const std::size_t servers = layout.serverCount();
    const double load = TapasAllocator::validatorLoad(
        request.kind, request.predictedPeakLoad);

    std::vector<int> row_iaas(layout.rowCount(), 0);
    std::vector<int> row_saas(layout.rowCount(), 0);
    for (const Server &server : layout.servers()) {
        const std::uint32_t vm = view.serverVm[server.id.index];
        if (vm == VmId::invalidIndex)
            continue;
        ++(view.vmSlot[vm] == VmSlot::Saas ? row_saas
                                           : row_iaas)[server.row.index];
    }
    std::vector<double> peaks;
    TapasAllocator::peakLoadByServer(view, peaks);
    std::vector<double> occupied_airflow(servers);
    std::vector<double> occupied_power(servers);
    const ServerBatch fleet = ServerBatch::firstN(servers);
    profiles.predictAirflow(fleet, peaks.data(), occupied_airflow.data());
    profiles.predictPower(fleet, peaks.data(), occupied_power.data());
    std::vector<double> aisle_base(layout.aisleCount(), 0.0);
    std::vector<double> row_base(layout.rowCount(), 0.0);
    for (const Server &server : layout.servers()) {
        aisle_base[server.aisle.index] +=
            occupied_airflow[server.id.index];
        row_base[server.row.index] += occupied_power[server.id.index];
    }
    std::vector<double> airflow_zero(servers);
    std::vector<double> airflow_req(servers);
    std::vector<double> power_zero(servers);
    std::vector<double> power_req(servers);
    std::vector<double> inlet(servers);
    std::vector<double> per_gpu_w(servers);
    std::vector<double> hottest(servers);
    profiles.predictAirflow(fleet, 0.0, airflow_zero.data());
    profiles.predictAirflow(fleet, load, airflow_req.data());
    profiles.predictPower(fleet, 0.0, power_zero.data());
    profiles.predictPower(fleet, load, power_req.data());
    profiles.predictInlet(fleet, std::max(view.outsideC, 34.0), 1.0,
                          inlet.data());
    for (const Server &server : layout.servers()) {
        const ServerSpec &spec = layout.specOf(server.id);
        per_gpu_w[server.id.index] = spec.gpuIdlePower.value() +
            (spec.gpuMaxPower.value() - spec.gpuIdlePower.value()) *
                request.predictedPeakLoad;
    }
    profiles.predictHottestGpu(fleet, inlet.data(), per_gpu_w.data(),
                               hottest.data());

    ReferencePlacement out;
    std::optional<ServerId> best;
    double best_score = -1e18;
    std::optional<ServerId> fallback;
    double fallback_hottest = 1e18;
    for (const Server &server : layout.servers()) {
        const std::uint32_t s = server.id.index;
        if (view.occupied(s))
            continue;
        const double aisle_demand =
            aisle_base[server.aisle.index] - airflow_zero[s] +
            airflow_req[s];
        if (aisle_demand >
            view.cooling->effectiveProvision(server.aisle).value())
            continue;
        const double row_demand = row_base[server.row.index] -
            power_zero[s] + power_req[s];
        const double row_budget =
            view.power->effectiveRowProvision(server.row).value();
        if (row_demand > row_budget)
            continue;

        const double throttle =
            layout.specOf(server.id).throttleTemp.value();
        if (hottest[s] > throttle - cfg.gpuTempMarginC) {
            if (!fallback.has_value() || hottest[s] < fallback_hottest) {
                fallback_hottest = hottest[s];
                fallback = server.id;
            }
            continue;
        }
        const bool iaas_request = request.kind == VmKind::IaaS;
        const double headroom_frac =
            std::clamp((throttle - hottest[s]) / 25.0, 0.0, 1.0);
        const double thermal_score =
            (iaas_request ? 2.0 : 0.5) * headroom_frac;
        const ThermalClass klass = profiles.thermalClass(server.id);
        const ThermalClass preferred =
            iaas_request ? ThermalClass::Cold : ThermalClass::Warm;
        const double class_score = klass == preferred ? 2.0
            : klass == ThermalClass::Medium          ? 1.0
                                                     : 0.0;
        const int iaas = row_iaas[server.row.index] +
            (iaas_request ? 1 : 0);
        const int saas = row_saas[server.row.index] +
            (iaas_request ? 0 : 1);
        const double balance_score =
            1.0 - std::abs(iaas - saas) / static_cast<double>(iaas + saas);
        const double headroom_score =
            row_budget > 0.0 ? 1.0 - row_demand / row_budget : 0.0;
        const double score = 2.0 * class_score + 1.0 * balance_score +
            3.0 * headroom_score + thermal_score;
        if (!best.has_value() || score > best_score) {
            best_score = score;
            best = server.id;
            out.tiedAtBest = 1;
        } else if (score == best_score) {
            ++out.tiedAtBest;
        }
    }
    out.pick = best.has_value() ? best : fallback;
    out.fallback = !best.has_value() && fallback.has_value();
    return out;
}

} // namespace tapas

#endif // TAPAS_TESTS_CORE_PLACEMENT_ORACLE_HH
