/**
 * @file
 * Cached thermal/power/airflow risk assessment (paper Section 4.2).
 *
 * TAPAS recomputes per-aisle airflow demand, per-row power demand,
 * and per-server projected GPU temperature every five minutes (or on
 * demand when discrepancies appear) and the request router filters
 * VMs on servers flagged at any of the three constraint levels.
 */

#ifndef TAPAS_CORE_RISK_HH
#define TAPAS_CORE_RISK_HH

#include <vector>

#include "core/context.hh"

namespace tapas {

class Archive;

/** Per-server risk flags with supporting numbers. */
struct ServerRisk
{
    bool thermalRisk = false;
    bool powerRisk = false;
    bool airflowRisk = false;
    /** Sensors untrusted: predictions fell back to the last known
     *  good snapshot and the thermal margin was widened. */
    bool quarantined = false;

    double predictedHottestGpuC = 0.0;
    double rowHeadroomW = 0.0;
    double aisleHeadroomCfm = 0.0;

    bool any() const
    { return thermalRisk || powerRisk || airflowRisk; }
};

/** Periodically refreshed risk cache. */
class RiskAssessor
{
  public:
    explicit RiskAssessor(const TapasPolicyConfig &config)
        : cfg(config)
    {}

    /**
     * Recompute all risk entries from the current view and measured
     * per-GPU power (flattened [server * gpus + gpu], watts).
     */
    void refresh(const ClusterView &view,
                 const std::vector<double> &gpu_power_w);

    /**
     * Refresh only if the cache is older than the configured period.
     * Returns true when a refresh happened.
     */
    bool maybeRefresh(const ClusterView &view,
                      const std::vector<double> &gpu_power_w);

    bool fresh() const { return !risks.empty(); }

    /** Whether maybeRefresh() would recompute at the given time. */
    bool
    refreshDue(SimTime now) const
    {
        return lastRefreshAt < 0 ||
            now - lastRefreshAt >= cfg.riskRefreshPeriod;
    }

    const ServerRisk &risk(ServerId id) const;

    /** Count of servers currently flagged (for tests/metrics). */
    std::size_t flaggedCount() const;

    // --- Sensor quarantine (graceful degradation under sensor
    // faults; see TapasPolicyConfig::sensorQuarantineEnabled). ---

    /** Whether this server's sensors are currently quarantined. */
    bool
    quarantined(ServerId id) const
    {
        return id.index < quarantinedFlag.size() &&
            quarantinedFlag[id.index] != 0;
    }

    /** Servers currently under quarantine (O(1)). */
    std::size_t quarantinedNow() const { return quarantinedCount; }

    /** Cumulative quarantine entries (recoveries not counted). */
    std::uint64_t quarantineEvents() const
    { return quarantineEventCount; }

    /**
     * Serialize/restore the risk cache, refresh clock, and sensor
     * quarantine state (streaks, flags, last-good power snapshots).
     * Scratch buffers and the hoisted spec caches resize lazily on
     * the next refresh and do not travel. A restore fails unless
     * every size fits @p layout's fleet and the quarantine count
     * equals the set flags.
     */
    void checkpointState(Archive &ar, const DatacenterLayout &layout);

  private:
    // ckpt-skip(constant): policy flags fixed at construction
    TapasPolicyConfig cfg;
    std::vector<ServerRisk> risks;
    SimTime lastRefreshAt = -1;

    /** Reusable fleet-wide prediction buffers (refresh runs every
     *  risk period; batched passes write into these). */
    std::vector<double> airflowScratch;  // ckpt-skip(scratch): per-refresh
    std::vector<double> powerScratch;    // ckpt-skip(scratch): per-refresh
    std::vector<double> inletScratch;    // ckpt-skip(scratch): per-refresh
    std::vector<double> hottestScratch;  // ckpt-skip(scratch): per-refresh
    /** Per-server thermal-risk limit (throttle - margin), hoisted
     *  out of the per-refresh spec walk (the layout is fixed). */
    // ckpt-skip(derived): refilled from the fixed layout specs on
    // the next refresh
    std::vector<double> thermalLimitC;
    /** Per-aisle/row headroom staging for the single assembly
     *  pass. */
    std::vector<double> aisleHeadroomScratch; // ckpt-skip(scratch): staging
    std::vector<char> aisleRiskScratch;       // ckpt-skip(scratch): staging
    std::vector<double> rowHeadroomScratch;   // ckpt-skip(scratch): staging
    std::vector<char> rowRiskScratch;         // ckpt-skip(scratch): staging

    // --- Sensor-quarantine state ---
    /** Consecutive diverging / healthy refreshes per server. */
    std::vector<int> divergeStreak;
    std::vector<int> healthyStreak;
    std::vector<char> quarantinedFlag;
    /** Last per-GPU power snapshot taken while healthy (flattened
     *  like the refresh input); predictions for quarantined servers
     *  read this instead of the untrusted sensors. */
    std::vector<double> lastGoodGpuW;
    /** Substitution copy of the refresh's gpu_power_w input. */
    std::vector<double> gpuPowerScratch; // ckpt-skip(scratch): per-refresh
    /** Per-server idle and max GPU-power totals (spec constants for
     *  the load -> power reconstruction), cached like the limits. */
    std::vector<double> idleTotalW; // ckpt-skip(derived): spec cache
    std::vector<double> maxTotalW;  // ckpt-skip(derived): spec cache
    std::size_t quarantinedCount = 0;
    std::uint64_t quarantineEventCount = 0;

    /** Detect diverging sensors, update streaks/quarantine state,
     *  and return the (possibly substituted) per-GPU power vector
     *  the predictions should use. */
    const std::vector<double> &
    applySensorQuarantine(const ClusterView &view,
                          const std::vector<double> &gpu_power_w,
                          int gpus);
};

} // namespace tapas

#endif // TAPAS_CORE_RISK_HH
