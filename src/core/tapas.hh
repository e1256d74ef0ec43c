/**
 * @file
 * TapasController: the facade wiring placement, routing, risk, and
 * instance configuration together (paper Fig. 17). The three policy
 * flags in TapasPolicyConfig produce the eight variants of the
 * paper's ablation (Baseline, Place, Route, Config, and their
 * combinations).
 */

#ifndef TAPAS_CORE_TAPAS_HH
#define TAPAS_CORE_TAPAS_HH

#include <memory>
#include <vector>

#include "core/allocator.hh"
#include "core/configurator.hh"
#include "core/context.hh"
#include "core/risk.hh"
#include "core/router.hh"
#include "llm/engine.hh"

namespace tapas {

class Archive;

/** Handle to one SaaS instance for the configuration pass. */
struct SaasInstanceRef
{
    VmId id;
    ServerId server;
    InferenceEngine *engine = nullptr;
    /** Current token demand routed to this instance, tokens/s. */
    double demandTps = 0.0;
};

/** Central TAPAS orchestration object. */
class TapasController
{
  public:
    TapasController(const TapasPolicyConfig &config,
                    const DatacenterLayout &layout,
                    CoolingPlant &cooling, PowerHierarchy &power,
                    const ProfileBank *profiles,
                    const PerfModel *perf);

    const TapasPolicyConfig &config() const { return cfg; }

    VmAllocator &allocator() { return *alloc; }
    RequestRouter &router() { return *route; }

    /** Risk cache; null when routing is baseline. */
    RiskAssessor *riskAssessor() { return risk.get(); }

    /** Refresh the risk cache if due (5-minute cadence). */
    void maybeRefreshRisk(const ClusterView &view,
                          const std::vector<double> &gpu_power_w);

    /**
     * Whether the next maybeRefreshRisk() would actually recompute.
     * Lets the simulator skip gathering the observed GPU power (a
     * corrupted copy while a sensor fault is active) on steps where
     * the cache is still fresh.
     */
    bool
    riskRefreshDue(SimTime now) const
    {
        return risk && risk->refreshDue(now);
    }

    /**
     * Run the instance-configuration pass over all SaaS instances:
     * derive per-instance limits from row/aisle budgets (after
     * subtracting unreconfigurable IaaS draw) and issue reconfigs.
     * No-op when the config policy is disabled.
     */
    void configurePass(const ClusterView &view,
                       const std::vector<SaasInstanceRef> &instances);

    /**
     * Whether power capping should spare SaaS and hit IaaS first
     * (TAPAS semantics) versus uniform capping (baseline).
     */
    bool capIaasFirst() const
    { return cfg.routeEnabled || cfg.configEnabled; }

    /** Count of reconfigs issued so far (metrics). */
    std::uint64_t reconfigsIssued() const { return reconfigCount; }

    /**
     * Serialize/restore controller decision state: reload dwell
     * gates, the reconfig counter, router affinity, and the risk
     * cache. The allocator and configurator are stateless between
     * passes (scratch only) and do not travel.
     *
     * @param vm_count size of the VM table (restored before this
     *        section); a restored reload entry must index into it
     */
    void checkpointState(Archive &ar, std::size_t vm_count);

  private:
    // ckpt-skip(constant): policy flags fixed at construction
    TapasPolicyConfig cfg;
    // ckpt-skip(constant): plant wiring bound at construction
    const DatacenterLayout &layout;
    CoolingPlant &cooling;      // ckpt-skip(constant): plant wiring
    PowerHierarchy &power;      // ckpt-skip(constant): plant wiring
    // ckpt-skip(constant): model pointers bound at construction
    const ProfileBank *profiles;
    const PerfModel *perf;      // ckpt-skip(constant): model pointer

    /** Sentinel for lastReloadAt: this VM has never reloaded. */
    static constexpr SimTime kNeverReloaded = -1;
    /** Last reload-requiring reconfig per VM (dwell gating), dense
     *  by VM id index; kNeverReloaded = no reload yet. Sized before
     *  the configure-pass hot region so the dwell bookkeeping in
     *  the pass itself never allocates (a map node insert there was
     *  a per-step heap hit the A3 binary pass flagged). */
    std::vector<SimTime> lastReloadAt;

    /** Reusable configurePass scratch (per-row/aisle accumulators
     *  and fleet-wide batched-prediction buffers; the pass runs
     *  nearly every step). Contents are dead between passes, only
     *  the capacity persists. */
    std::vector<double> rowFixedScratch;    // ckpt-skip(scratch): per-pass
    std::vector<int> rowSaasScratch;        // ckpt-skip(scratch): per-pass
    std::vector<double> aisleFixedScratch;  // ckpt-skip(scratch): per-pass
    std::vector<int> aisleSaasScratch;      // ckpt-skip(scratch): per-pass
    std::vector<char> saasServerScratch;    // ckpt-skip(scratch): per-pass
    std::vector<double> fixedLoadScratch;   // ckpt-skip(scratch): per-pass
    std::vector<double> fixedPowerScratch;  // ckpt-skip(scratch): per-pass
    std::vector<double> fixedAirflowScratch; // ckpt-skip(scratch): per-pass
    std::vector<double> inletScratch;       // ckpt-skip(scratch): per-pass
    std::vector<double> zeroPowerScratch;   // ckpt-skip(scratch): per-pass
    std::vector<double> zeroAirflowScratch; // ckpt-skip(scratch): per-pass
    /** Per-row/per-aisle effective provisions, hoisted out of the
     *  per-instance limit computation (one call per row/aisle per
     *  pass instead of one per instance). */
    std::vector<double> rowProvisionScratch;   // ckpt-skip(scratch): per-pass
    std::vector<double> aisleProvisionScratch; // ckpt-skip(scratch): per-pass
    /** Instances sorted by demand so equal-demand runs share the
     *  configurator's per-demand plan (instance order does not
     *  affect decisions: each is independent). */
    // ckpt-skip(scratch): rebuilt from the caller's list each pass
    std::vector<SaasInstanceRef> sortedInstancesScratch;

    // ckpt-skip(constant): rebuilt from policy flags at construction
    std::unique_ptr<VmAllocator> alloc;
    std::unique_ptr<RequestRouter> route;
    std::unique_ptr<RiskAssessor> risk;
    // ckpt-skip(constant): stateless between passes, rebuilt at
    // construction from policy flags
    std::unique_ptr<InstanceConfigurator> configurator;
    std::uint64_t reconfigCount = 0;
};

} // namespace tapas

#endif // TAPAS_CORE_TAPAS_HH
