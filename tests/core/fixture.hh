/**
 * @file
 * Shared test fixture: a small profiled datacenter with plant models,
 * used by the core-policy unit tests.
 */

#ifndef TAPAS_TESTS_CORE_FIXTURE_HH
#define TAPAS_TESTS_CORE_FIXTURE_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/context.hh"
#include "dcsim/layout.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"
#include "llm/perf.hh"
#include "telemetry/profiles.hh"

namespace tapas {

/** A 2-aisle, 4-row, 48-server profiled cluster. */
class CoreFixture : public ::testing::Test
{
  protected:
    CoreFixture()
        : dc(makeLayout()), thermal(dc, ThermalConfig{}, 42),
          powerModel(PowerConfig{}), cooling(dc, thermal),
          hierarchy(dc, powerModel), bank(dc),
          perf(PerfModel::withReferenceSlo(
              dc.specs().front(),
              PerfParams::forSku(dc.specs().front().sku)))
    {
        bank.offlineProfile(thermal, powerModel, 8);
        view.layout = &dc;
        view.cooling = &cooling;
        view.power = &hierarchy;
        view.profiles = &bank;
        view.now = 0;
        view.outsideC = 24.0;
        view.dcLoadFrac = 0.5;
        growServers();
    }

    static LayoutConfig
    makeLayout()
    {
        LayoutConfig cfg;
        cfg.aisleCount = 2;
        cfg.rowsPerAisle = 2;
        cfg.racksPerRow = 3;
        cfg.serversPerRack = 4;
        return cfg;
    }

    /** Size the per-server tables to the layout (after addRack)
     *  and rebind the view to them. */
    void
    growServers()
    {
        serverLoads.resize(dc.serverCount(), 0.0);
        serverVm.resize(dc.serverCount(), VmId::invalidIndex);
        bindView();
    }

    /** Place the next VM id on a server. */
    void
    occupy(ServerId sid, VmKind kind, double peak_load,
           double current_load = 0.5)
    {
        serverVm[sid.index] = static_cast<std::uint32_t>(vmSlot.size());
        vmSlot.push_back(kind == VmKind::SaaS ? VmSlot::Saas
                                              : VmSlot::Iaas);
        vmPeakLoad.push_back(peak_load);
        serverLoads[sid.index] = current_load;
        bindView();
    }

    void
    bindView()
    {
        view.serverLoads = serverLoads;
        view.serverVm = serverVm;
        view.vmSlot = vmSlot;
        view.vmPeakLoad = vmPeakLoad;
    }

    DatacenterLayout dc;
    ThermalModel thermal;
    PowerModel powerModel;
    CoolingPlant cooling;
    PowerHierarchy hierarchy;
    ProfileBank bank;
    PerfModel perf;
    /** Backing tables of the view (index = server id / VM id). */
    std::vector<double> serverLoads;
    std::vector<std::uint32_t> serverVm;
    std::vector<VmSlot> vmSlot;
    std::vector<double> vmPeakLoad;
    ClusterView view;
};

} // namespace tapas

#endif // TAPAS_TESTS_CORE_FIXTURE_HH
