/**
 * @file
 * Shared read-only views and policy configuration passed from the
 * cluster simulator into the TAPAS decision components.
 */

#ifndef TAPAS_CORE_CONTEXT_HH
#define TAPAS_CORE_CONTEXT_HH

#include <cstdint>
#include <span>
#include <type_traits>

#include "common/types.hh"
#include "dcsim/layout.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"
#include "telemetry/profiles.hh"
#include "workload/vmtrace.hh"

namespace tapas {

/**
 * Read-only view of cluster state for placement, risk, configuration
 * and migration decisions. It owns nothing: the spans point into the
 * owner's tables (the simulator's per-server arrays and VM table, or
 * a test's vectors), so it is always as current as those tables and
 * cheap to copy. A caller that wants a what-if rebinds one span to
 * its own scratch copy.
 */
struct ClusterView
{
    const DatacenterLayout *layout = nullptr;
    const CoolingPlant *cooling = nullptr;
    const PowerHierarchy *power = nullptr;
    /** Fitted profiles; null for profile-oblivious baselines. */
    const ProfileBank *profiles = nullptr;

    SimTime now = 0;
    double outsideC = 20.0;
    double dcLoadFrac = 0.5;

    /** Current load fraction, indexed by server id. */
    std::span<const double> serverLoads;
    /** Hosted VM index (each GPU VM takes a whole server), or
     *  VmId::invalidIndex, indexed by server id. */
    std::span<const std::uint32_t> serverVm;
    /** Placement state and service kind, indexed by VM id. */
    std::span<const VmSlot> vmSlot;
    /** Predicted peak load (history templates or 1.0), indexed by
     *  VM id. */
    std::span<const double> vmPeakLoad;

    bool
    occupied(std::size_t server) const
    {
        return serverVm[server] != VmId::invalidIndex;
    }
};

static_assert(std::is_trivially_copyable_v<ClusterView>);

/** Tunable policy parameters of TAPAS (Section 4.5 defaults). */
struct TapasPolicyConfig
{
    /** Enable thermal/power-aware VM placement. */
    bool placeEnabled = true;
    /** Enable risk-aware request routing. */
    bool routeEnabled = true;
    /** Enable instance reconfiguration. */
    bool configEnabled = true;

    /** Keep predicted hottest GPU this far below throttle. */
    double gpuTempMarginC = 8.0;
    /** Row power headroom fraction kept in reserve when routing. */
    double rowPowerMarginFrac = 0.04;
    /** Aisle airflow headroom fraction kept in reserve. */
    double airflowMarginFrac = 0.04;
    /** Projected TTFT above this fraction of the TTFT SLO makes a
     *  VM a performance risk the router filters. */
    double perfRiskLoad = 0.80;
    /** Projected-TTFT bar (fraction of the TTFT SLO) under which
     *  the energy policy keeps concentrating load onto a VM. */
    double concentrationCeiling = 0.50;
    /** Risk cache refresh period (paper: 5 minutes). */
    SimTime riskRefreshPeriod = 5 * kMinute;
    /** Model-reload blackout applied on instance reconfigs. */
    double reloadDelayS = 12.0;
    /** Minimum power gain that justifies a free (freq/batch)
     *  reconfig. */
    double hysteresisGain = 1.05;
    /** Minimum power gain that justifies a model-reload reconfig
     *  (TP/model/quant changes black the instance out). */
    double reloadHysteresisGain = 1.20;
    /** Minimum time between reload-requiring reconfigs of one
     *  instance, except emergency downgrades (prevents blackout
     *  oscillation at feasibility boundaries). */
    SimTime reloadDwell = 30 * kMinute;
    /** Quality floor during normal operation (no quality impact). */
    double normalQualityFloor = 0.999;
    /** Quality floor during emergencies (Table 2 last resort). */
    double emergencyQualityFloor = 0.60;

    // --- Sensor-fault quarantine (graceful degradation). ---

    /**
     * Cross-check the observed per-GPU power sum against the power
     * reconstructed from the server's load fraction each risk
     * refresh, and quarantine servers whose sensors diverge. In a
     * healthy run the two agree exactly (the load IS the normalized
     * GPU power), so enabling this on a fault-free run changes no
     * decision. Off by default (historical behavior).
     */
    bool sensorQuarantineEnabled = false;
    /** Relative divergence tolerance on the reconstructed power. */
    double sensorEnvelopeFrac = 0.05;
    /** Absolute tolerance floor, watts (sensor noise scale). */
    double sensorEnvelopeFloorW = 150.0;
    /** Consecutive diverging refreshes before quarantine. */
    int sensorQuarantineAfter = 2;
    /** Consecutive healthy refreshes before release. */
    int sensorRecoverAfter = 3;
    /**
     * Extra thermal margin applied to quarantined servers: with its
     * sensors untrusted the controller predicts from the last known
     * good power snapshot and keeps this much more distance to the
     * throttle point.
     */
    double quarantineExtraMarginC = 4.0;

    /** Enable periodic SaaS migration (Section 4.1 extension). */
    bool migrationEnabled = false;
    /** How often the migration planner runs. */
    SimTime migrationPeriod = kHour;
    /** Traffic-cutover blackout applied to a migrating instance. */
    double migrationDelayS = 30.0;
    /** Max moves per planning round. */
    int migrationMaxMoves = 2;
};

} // namespace tapas

#endif // TAPAS_CORE_CONTEXT_HH
