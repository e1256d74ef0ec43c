/**
 * @file
 * The discrete-time cluster simulator (paper Section 5.1).
 *
 * Each step: VM departures/arrivals (via the placement policy), SaaS
 * demand generation and routing, engine execution (request-level) or
 * flow assignment (flow-level), IaaS load replay, ground-truth power
 * aggregation with capping enforcement, airflow/thermal evaluation
 * with hardware throttling, telemetry recording, the TAPAS risk and
 * configuration passes, and metric collection.
 *
 * Ground truth (dcsim models) advances the world; TAPAS reads only
 * its fitted profiles (telemetry/ProfileBank) and observed sensor
 * values, mirroring the production methodology.
 *
 * The VM population lives in a structure-of-arrays table
 * (sim/vmtable.hh): per-step sweeps iterate packed hot arrays; the
 * trace records, engines, and configuration-gate state sit in a cold
 * side table touched only on placement/departure/configuration.
 */

#ifndef TAPAS_SIM_CLUSTER_HH
#define TAPAS_SIM_CLUSTER_HH

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hh"
#include "core/failure.hh"
#include "core/faults.hh"
#include "core/migration.hh"
#include "core/tapas.hh"
#include "llm/engine.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/vmtable.hh"
#include "telemetry/history.hh"
#include "workload/requests.hh"
#include "workload/vmtrace.hh"
#include "workload/weather.hh"

namespace tapas {

class Archive;

/**
 * Cumulative wall-clock seconds spent in each step-loop phase since
 * construction. Off by default — the clock reads are measurable
 * against a small layout's ~10us step — and switched on by perf
 * harnesses via enablePhaseTiming(); bench_step_loop emits the
 * per-step breakdown into BENCH_step_loop.json.
 */
struct StepPhaseTimes
{
    /** Failure schedule + departures/arrivals + placement. */
    double placeS = 0.0;
    /** Risk-assessor refresh. */
    double riskS = 0.0;
    /** SaaS load assignment (flow or request mode) + IaaS replay. */
    double assignS = 0.0;
    /** Ground-truth draw aggregation (first computeDraws). */
    double drawsS = 0.0;
    /** Power-budget enforcement (capping iterations). */
    double powerS = 0.0;
    /** Airflow/thermal evaluation + hardware throttling. */
    double thermalS = 0.0;
    /** Telemetry recording + predicted-peak refresh. */
    double telemetryS = 0.0;
    /** Configurator pass. */
    double configureS = 0.0;
    /** Migration pass. */
    double migrateS = 0.0;
    /** Metric collection + step bookkeeping. */
    double metricsS = 0.0;
};

/** End-to-end cluster simulation. */
class ClusterSim
{
  public:
    explicit ClusterSim(const SimConfig &config);

    /** Run to the horizon. */
    void run();

    /** Run a limited number of steps (incremental drive for tests). */
    void runSteps(int steps);

    SimTime now() const { return currentTime; }
    bool finished() const { return currentTime >= cfg.horizon; }

    const SimConfig &config() const { return cfg; }
    const SimMetrics &metrics() const { return simMetrics; }
    const DatacenterLayout &datacenter() const { return layout; }
    const ProfileBank &profiles() const { return bank; }
    const TelemetryStore &telemetry() const { return store; }
    TapasController &controller() { return *tapas; }
    FailureManager &failures() { return *failureMgr; }
    /** The fault-injection engine, or nullptr when the config's
     *  fault plan is empty. */
    FaultEngine *faultInjector() { return faultEngine.get(); }
    const FaultEngine *faultInjector() const
    { return faultEngine.get(); }
    const WeatherModel &weather() const { return weatherModel; }
    const VmTraceGenerator &vmTrace() const { return vmGen; }

    /** Live VM table (index = VmId), structure-of-arrays. */
    const VmTable &vms() const { return vmTable; }

    /** Count of currently placed VMs. */
    std::size_t activeVmCount() const;

    /** Cumulative per-phase step-loop timing since construction. */
    const StepPhaseTimes &phaseTimes() const { return phaseTimes_; }

    /** Turn on per-phase step timing (see StepPhaseTimes). */
    void enablePhaseTiming() { phaseTiming_ = true; }

    /**
     * Consistency of the SoA hot arrays against the cold side table
     * and the server map — what a fresh AoS scan would contain
     * (tests; debug builds assert it every step).
     */
    bool verifyVmTable() const;

    // ------------------------------- checkpoint/restore (durability)

    /**
     * Persist the complete stepping state to @p path (atomic
     * write-rename; see docs/checkpoint-format.md). A sim restored
     * from the file steps bit-identically to this one: every metric
     * and stateDigest() match a straight-through run at every later
     * step boundary, fault timelines and sensor corruption included.
     */
    Error saveCheckpoint(const std::string &path);

    /**
     * Replace this sim's state with a checkpoint written by a sim of
     * the SAME configuration. The target must be freshly constructed
     * or otherwise share the checkpoint writer's SimConfig: a config
     * digest mismatch is rejected with ErrorCode::Mismatch, and
     * corrupted or truncated files with ErrorCode::Corrupt /
     * ErrorCode::Version. The sim is untouched by errors detected
     * before state application (bad magic/CRC/length/version/config
     * — every realistic crash artifact); a payload that passes those
     * checks but decodes inconsistently still returns Corrupt, but
     * the sim must then be discarded.
     */
    Error restoreCheckpoint(const std::string &path);

    /**
     * 64-bit FNV-1a digest over the full serialized fleet state:
     * cheap divergence detection between a restored and a
     * straight-through run. Not const: building the byte stream
     * walks the same checkpointState() code path as saveCheckpoint.
     */
    std::uint64_t stateDigest();

    /**
     * Digest of the configuration knobs that shape serialized state
     * (layout sizes, horizon, seed, policies, fault plan...); stored
     * in every checkpoint header and checked on restore.
     */
    std::uint64_t configDigest() const;

  private:
    SimConfig cfg;
    DatacenterLayout layout;
    ThermalModel thermal;
    PowerModel powerModel;
    CoolingPlant cooling;
    PowerHierarchy hierarchy;
    WeatherModel weatherModel;
    VmTraceGenerator vmGen;
    ProfileBank bank;
    PerfModel perf;
    std::unique_ptr<TapasController> tapas;
    std::unique_ptr<FailureManager> failureMgr;
    std::unique_ptr<RequestGenerator> requestGen;
    TelemetryStore store;
    SimMetrics simMetrics;
    Rng noiseRng;

    SimTime currentTime = 0;
    std::size_t arrivalCursor = 0;
    VmTable vmTable;
    /**
     * Indices of currently placed VMs, ascending. The VM table keeps
     * a slot per trace record for the whole horizon, so per-step
     * sweeps iterate this dense list (same ascending-id order as a
     * full table scan) instead of walking every slot that ever
     * existed. Maintained on place/depart; debug builds verify it
     * against the slot flags every step.
     */
    std::vector<std::uint32_t> activeVms;
    /** Compaction scratch for the departure sweep. */
    std::vector<std::uint32_t> activeScratch;
    /** server index -> vm index (or VmId::invalidIndex). */
    std::vector<std::uint32_t> serverVm;
    std::vector<std::uint32_t> waitingVms;
    /** Fault-injection timeline (nullptr = faults disabled). */
    std::unique_ptr<FaultEngine> faultEngine;
    double dcLoadFrac = 0.5;
    bool lastEmergency = false;
    ConfigProfile refProfile;

    /** State of the last step, indexed by server/GPU. */
    std::vector<double> serverLoads;
    std::vector<double> serverDrawW;
    std::vector<double> gpuPowerW;
    std::vector<double> gpuTempC;
    /** Per-server hottest GPU of the last thermal evaluation;
     *  telemetry and metrics read this instead of re-scanning the
     *  per-GPU temperatures. */
    std::vector<double> hottestGpuC;
    std::vector<double> inletC;

    /** GPUs per server (uniform fleet), hoisted from the spec. */
    int gpusPerServer = 0;
    /**
     * Cached all-idle draw of an empty server (heat fraction and
     * wall power), keyed by spec identity: empty servers produce
     * the same deterministic values every step, so computeDraws
     * evaluates them once per spec instead of per server per pass.
     */
    const ServerSpec *idleSpecCache = nullptr;
    double idleHeatCache = 0.0;
    double idleDrawWCache = 0.0;
    /** Per-server throttle temperature, hoisted from the specs. */
    std::vector<double> throttleAtC;

    /** Reusable step-loop scratch (hoisted per-step temporaries). */
    std::vector<Watts> drawsScratch;
    std::vector<double> noiseScratch;
    std::vector<double> overdrawScratch;
    std::vector<char> rowOverScratch;
    std::vector<double> rowPowerScratch;
    std::vector<double> routedTokensScratch;
    std::vector<double> demandFloorScratch;
    /** This step's routing candidates (buildRouteCandidates()):
     *  endpoint e's SaaS VMs, ascending by id, start at
     *  candidateStartScratch[e]; shareScratch has split() shares. */
    std::vector<RouteCandidate> candidateScratch;
    std::vector<std::uint32_t> candidateStartScratch;
    std::vector<double> shareScratch;
    std::vector<SaasInstanceRef> instancesScratch;
    std::vector<Request> requestsScratch;
    std::vector<std::uint32_t> waitingScratch;
    /**
     * Rejection memo of the placement phase: the admissionLoad()s the
     * allocator has rejected on the current view. Per the
     * VmAllocator contract every request with one of these loads is
     * rejected too, so tryPlace skips the fleet scan for it. Cleared
     * at the start of processArrivals and whenever a placement
     * changes the view; never carried across steps or checkpointed.
     */
    std::vector<double> rejectedLoads;
    /**
     * Flow-mode per-VM base GPU power cache, filled by
     * assignSaasLoadFlowMode from the same operating point that set
     * the VM's load. Demand and profile are fixed for the rest of
     * the step, so the capping/thermal iterations of computeDraws
     * reuse it instead of re-evaluating the perf model per pass.
     */
    std::vector<double> saasOpGpuPowerW;
    /**
     * Packed lanes of the flow-mode batched operating-point solve:
     * per-VM profile pointers, demands, VM indices and the solved
     * points (only VMs with non-zero demand occupy a lane).
     */
    std::vector<const ConfigProfile *> opProfScratch;
    std::vector<double> opDemandScratch;
    std::vector<std::uint32_t> opVmScratch;
    std::vector<PerfModel::OperatingPoint> opPointScratch;
    std::vector<double> customerPowerScratch;
    std::vector<int> customerCountScratch;
    std::vector<double> endpointPowerScratch;
    std::vector<int> endpointCountScratch;
    PowerAssessment assessScratch;
    /**
     * Observation-path copy of gpuPowerW with sensor faults applied
     * (what the risk assessor "sees"). Only populated while a sensor
     * fault is active; otherwise observedGpuPower() hands out the
     * ground-truth vector directly, so fault-free runs pay nothing.
     */
    std::vector<double> observedGpuPowerW;

    // --- Robustness bookkeeping (see collectMetrics) ---
    /** Whether the last enforcePowerBudgets pass ended violated. */
    bool lastPowerViolation = false;
    /** Component-fault activity of the previous step. */
    bool prevFaultsActive = false;
    /** A fault cleared and the plant has not run clean since. */
    bool recoveringFromFault = false;
    SimTime faultClearAt = 0;
    /** Total SaaS token demand of this step (flow mode). */
    double stepDemandTps = 0.0;

    /** Per-phase step-loop wall time (see StepPhaseTimes). */
    StepPhaseTimes phaseTimes_;
    bool phaseTiming_ = false;

    void step();
    void processFaults();
    const std::vector<double> &observedGpuPower();
    void maybeRefitProfiles();
    void processDepartures();
    /** The placement phase: processArrivals opens the allocator's
     *  placement round, tryPlace commits each pick to it, and
     *  tryPlaceWaiting closes it. */
    void processArrivals();
    void tryPlaceWaiting();
    bool tryPlace(std::uint32_t vm_index);
    /** Decision components' view: spans into this sim's tables. */
    ClusterView view() const;
    void assignSaasLoadRequestMode(SimTime from, SimTime to);
    void assignSaasLoadFlowMode(SimTime from, SimTime to);
    void replayIaasLoads(SimTime t);
    void computeDraws();
    void enforcePowerBudgets();
    void evaluateThermal();
    void recordTelemetry(SimTime t);
    void refreshPredictedPeaks();
    void collectMetrics(bool power_capped, bool thermal_throttled);
    void configuratorPass();
    void migrationPass();
    double vmPredictedPeakLoad(const VmRecord &record) const;
    void buildRouteCandidates();
    /** Endpoint @p id's slice of this step's candidates. */
    std::span<const RouteCandidate>
    endpointCandidates(EndpointId id) const;
    double effectiveGoodput(std::size_t vm_index) const;

    // Checkpoint plumbing (sim/checkpoint.cc).
    void checkpointCore(Archive &ar);
    void checkpointFailures(Archive &ar);
    /** Walk section @p id (save, restore and stateDigest share it). */
    void checkpointSection(std::uint32_t id, Archive &ar);
    void rebuildDerivedState();
};

} // namespace tapas

#endif // TAPAS_SIM_CLUSTER_HH
