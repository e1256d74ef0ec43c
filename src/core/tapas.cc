#include "core/tapas.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace tapas {

TapasController::TapasController(const TapasPolicyConfig &config,
                                 const DatacenterLayout &layout_,
                                 CoolingPlant &cooling_,
                                 PowerHierarchy &power_,
                                 const ProfileBank *profiles_,
                                 const PerfModel *perf_)
    : cfg(config), layout(layout_), cooling(cooling_), power(power_),
      profiles(profiles_), perf(perf_)
{
    if (cfg.placeEnabled) {
        tapas_assert(profiles, "Place policy needs fitted profiles");
        alloc = std::make_unique<TapasAllocator>(cfg);
    } else {
        alloc = std::make_unique<BaselineAllocator>();
    }
    if (cfg.routeEnabled) {
        tapas_assert(profiles, "Route policy needs fitted profiles");
        route = std::make_unique<TapasRouter>(cfg);
        risk = std::make_unique<RiskAssessor>(cfg);
    } else {
        route = std::make_unique<BaselineRouter>();
    }
    if (cfg.configEnabled) {
        tapas_assert(profiles && perf,
                     "Config policy needs profiles and a perf model");
        configurator = std::make_unique<InstanceConfigurator>(*perf,
                                                              cfg);
    }
}

void
TapasController::maybeRefreshRisk(
    const ClusterView &view, const std::vector<double> &gpu_power_w)
{
    if (risk)
        risk->maybeRefresh(view, gpu_power_w);
}

void
TapasController::configurePass(
    const ClusterView &view,
    const std::vector<SaasInstanceRef> &instances)
{
    if (!configurator || instances.empty())
        return;
    // Size the dwell table before entering the hot region: the one
    // growth this pass may need happens here, so the per-instance
    // dwell reads/writes below are plain indexed accesses.
    std::uint32_t max_vm = 0;
    for (const SaasInstanceRef &inst : instances)
        max_vm = std::max(max_vm, inst.id.index);
    if (lastReloadAt.size() <= max_vm)
        lastReloadAt.resize(max_vm + 1, kNeverReloaded);
    // tapas-hot begin(configure-pass): near-every-step reconfig
    // sweep; member scratch only (R3) — capacity persists across
    // passes, so the steady state allocates nothing.

    // --- Per-row unreconfigurable draw and SaaS instance counts.
    // Member scratch: capacity persists across passes, so the
    // near-every-step pass allocates nothing. ---
    rowFixedScratch.assign(layout.rowCount(), 0.0);
    rowSaasScratch.assign(layout.rowCount(), 0);
    aisleFixedScratch.assign(layout.aisleCount(), 0.0);
    aisleSaasScratch.assign(layout.aisleCount(), 0);
    std::vector<double> &row_fixed_w = rowFixedScratch;
    std::vector<int> &row_saas = rowSaasScratch;
    std::vector<double> &aisle_fixed_cfm = aisleFixedScratch;
    std::vector<int> &aisle_saas = aisleSaasScratch;

    saasServerScratch.assign(layout.serverCount(), 0);
    std::vector<char> &saas_server = saasServerScratch;
    for (const SaasInstanceRef &inst : instances)
        saas_server[inst.server.index] = 1;

    // Fleet-wide batched passes feed the fixed-draw accumulation and
    // the per-instance limits below: one power/airflow pass at the
    // unreconfigurable loads, one inlet pass at current ambient, and
    // one power/airflow floor pass at zero load.
    const std::size_t servers = layout.serverCount();
    fixedLoadScratch.resize(servers);
    fixedPowerScratch.resize(servers);
    fixedAirflowScratch.resize(servers);
    inletScratch.resize(servers);
    for (std::size_t s = 0; s < servers; ++s) {
        fixedLoadScratch[s] = view.occupied(s) && !saas_server[s]
            ? view.serverLoads[s]
            : 0.0;
    }
    const ServerBatch fleet = ServerBatch::firstN(servers);
    profiles->predictPower(fleet, fixedLoadScratch.data(),
                           fixedPowerScratch.data());
    profiles->predictAirflow(fleet, fixedLoadScratch.data(),
                             fixedAirflowScratch.data());
    profiles->predictInlet(fleet, view.outsideC, view.dcLoadFrac,
                           inletScratch.data());
    // The zero-load floors depend only on the fitted coefficients;
    // evaluate them once per fleet size instead of per pass.
    if (zeroPowerScratch.size() != servers) {
        zeroPowerScratch.resize(servers);
        zeroAirflowScratch.resize(servers);
        profiles->predictPower(fleet, 0.0, zeroPowerScratch.data());
        profiles->predictAirflow(fleet, 0.0, zeroAirflowScratch.data());
    }

    for (const Server &server : layout.servers()) {
        if (saas_server[server.id.index]) {
            ++row_saas[server.row.index];
            ++aisle_saas[server.aisle.index];
            continue;
        }
        row_fixed_w[server.row.index] +=
            fixedPowerScratch[server.id.index];
        aisle_fixed_cfm[server.aisle.index] +=
            fixedAirflowScratch[server.id.index];
    }

    const bool emergency =
        cooling.anyFailure() || power.anyFailure();
    const double quality_floor = emergency
        ? cfg.emergencyQualityFloor
        : cfg.normalQualityFloor;

    // Effective provisions are per-row/per-aisle, not per-instance:
    // evaluate each once per pass (they walk the failure state) and
    // let the instance loop index the scratch arrays.
    rowProvisionScratch.resize(layout.rowCount());
    for (const Row &row : layout.rows()) {
        rowProvisionScratch[row.id.index] =
            power.effectiveRowProvision(row.id).value();
    }
    aisleProvisionScratch.resize(layout.aisleCount());
    for (const Aisle &aisle : layout.aisles()) {
        aisleProvisionScratch[aisle.id.index] =
            cooling.effectiveProvision(aisle.id).value();
    }

    // Process instances grouped by demand: the configurator's plan
    // depends only on (demand, quality floor), so equal-demand
    // instances (VMs of one endpoint under symmetric routing) reuse
    // it instead of re-solving the perf model. Decisions are
    // per-instance independent, so the order change is
    // unobservable; the VM-id tie-break makes the comparator a
    // total order, so plain sort is deterministic — stable_sort is
    // not an option here, it allocates a merge buffer
    // (stl_tempbuf) on every pass.
    sortedInstancesScratch.assign(instances.begin(),
                                  instances.end());
    std::sort(sortedInstancesScratch.begin(),
              sortedInstancesScratch.end(),
              [](const SaasInstanceRef &a,
                 const SaasInstanceRef &b) {
                  if (a.demandTps != b.demandTps)
                      return a.demandTps < b.demandTps;
                  return a.id.index < b.id.index;
              });

    for (const SaasInstanceRef &inst : sortedInstancesScratch) {
        if (inst.engine->reconfiguring())
            continue;
        // Freeze reconfiguration on quarantined servers: every
        // reconfig decision reads this server's (untrusted) sensor
        // state, so hold the instance at its current configuration
        // until the sensors check out again. Unaffected servers'
        // limits are computed per-pass from plant budgets and are
        // untouched by the skip.
        if (risk && risk->quarantined(inst.server))
            continue;
        const Server &server = layout.server(inst.server);
        const ServerSpec &spec = layout.specOf(inst.server);

        InstanceLimits limits;
        const double row_budget =
            rowProvisionScratch[server.row.index];
        const int saas_in_row =
            std::max(1, row_saas[server.row.index]);
        limits.maxServerPowerW = std::max(
            (row_budget - row_fixed_w[server.row.index]) /
                saas_in_row,
            zeroPowerScratch[inst.server.index]);

        const double aisle_budget =
            aisleProvisionScratch[server.aisle.index];
        const int saas_in_aisle =
            std::max(1, aisle_saas[server.aisle.index]);
        limits.maxAirflowCfm = std::max(
            (aisle_budget - aisle_fixed_cfm[server.aisle.index]) /
                saas_in_aisle,
            zeroAirflowScratch[inst.server.index]);

        limits.maxGpuTempC =
            spec.throttleTemp.value() - cfg.gpuTempMarginC;
        limits.inletC = inletScratch[inst.server.index];

        const ConfigDecision decision = configurator->choose(
            inst.server, *profiles, limits, inst.demandTps,
            quality_floor, inst.engine->profile());
        if (!decision.changed)
            continue;
        // Dwell gate: quality-restoring reloads wait out the dwell
        // window — and never fire while the emergency is still
        // active — so instances do not oscillate across feasibility
        // boundaries; necessity downgrades pass immediately.
        const ConfigProfile &current = inst.engine->profile();
        if (decision.profile.config.requiresReload(
                current.config)) {
            const bool upgrade =
                decision.profile.quality >= current.quality;
            const SimTime last = lastReloadAt[inst.id.index];
            const bool dwelling = last != kNeverReloaded &&
                view.now - last < cfg.reloadDwell;
            if (upgrade && current.quality < 1.0 &&
                (emergency || dwelling)) {
                continue;
            }
            if (upgrade && dwelling)
                continue;
            lastReloadAt[inst.id.index] = view.now;
        }
        inst.engine->requestReconfig(decision.profile,
                                     cfg.reloadDelayS);
        ++reconfigCount;
    }
    // tapas-hot end(configure-pass)
}

void
TapasController::checkpointState(Archive &ar, std::size_t vm_count)
{
    // Serialized as index-sorted (vm, time) pairs — the same bytes
    // the former unordered_map representation produced after its
    // canonicalizing sort, so checkpoints cross the dense-vector
    // rewrite unchanged. Never-reloaded slots do not travel.
    std::vector<std::pair<std::uint32_t, SimTime>> reloads;
    for (std::uint32_t vm = 0; vm < lastReloadAt.size(); ++vm) {
        if (lastReloadAt[vm] != kNeverReloaded)
            reloads.emplace_back(vm, lastReloadAt[vm]);
    }
    ar.each(reloads,
            [](Archive &a, std::pair<std::uint32_t, SimTime> &e) {
                a.value(e.first);
                a.value(e.second);
            });
    if (!ar.writing()) {
        std::fill(lastReloadAt.begin(), lastReloadAt.end(),
                  kNeverReloaded);
        std::size_t next = 0;
        for (const auto &[vm, at] : reloads) {
            // Entries ascend strictly by VM, as written, and index
            // the VM table: anything else is a damaged file.
            if (vm < next || vm >= vm_count) {
                ar.fail();
                return;
            }
            next = std::size_t{vm} + 1;
            if (next > lastReloadAt.size())
                lastReloadAt.resize(next, kNeverReloaded);
            lastReloadAt[vm] = at;
        }
    }
    ar.value(reconfigCount);
    route->checkpointState(ar);
    bool has_risk = risk != nullptr;
    ar.value(has_risk);
    if (has_risk != (risk != nullptr)) {
        // Policy flags decide whether a risk cache exists; the
        // checkpoint must agree with this sim's configuration.
        ar.fail();
        return;
    }
    if (risk)
        risk->checkpointState(ar, layout);
}

} // namespace tapas
