/**
 * @file
 * ProfileBank: the fitted models TAPAS decisions read (Section 4.5).
 *
 * During the offline profiling phase (datacenter bring-up benchmarks)
 * the bank fits, per server: the inlet-temperature spline (Eq. 1),
 * per-GPU temperature regressions (Eq. 2), the airflow line (Eq. 3),
 * and the power polynomial (Eq. 4), all from noisy observations of
 * the ground-truth models — never from the models' internal
 * coefficients. Weekly refits then rebuild power templates from live
 * telemetry. TAPAS therefore works with learned approximations, and
 * its mispredictions are real, as in production.
 *
 * Every server observes the same bench sweep grids, so the
 * normal-equation designs are built once (SharedDesign) and each
 * server's fit reduces to an X^T y accumulation plus a tiny solve —
 * parallelized across the shared thread pool. The fitted
 * coefficients land in flat per-model arrays (not per-server
 * regression objects): the risk and configurator sweeps evaluate
 * these models millions of times per simulated step, and contiguous
 * coefficient storage keeps those walks cache-resident.
 * Decisions read each model through one batched function whose
 * server set and inputs take any shape its callers need; the scalar
 * per-server calls are the reference those functions are tested
 * against.
 */

#ifndef TAPAS_TELEMETRY_PROFILES_HH
#define TAPAS_TELEMETRY_PROFILES_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"
#include "dcsim/layout.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"
#include "telemetry/regression.hh"

namespace tapas {

class Archive;
class TelemetryStore;

/** Placement temperature class of a server (Section 4.5, rule 2). */
enum class ThermalClass { Cold, Medium, Warm };

/**
 * The servers a batched prediction evaluates, one result each: the
 * first n servers of the fleet, an id list (any order, duplicates
 * allowed), or one server n times.
 */
struct ServerBatch
{
    enum class Kind : std::uint8_t { FirstN, List, Repeat };

    static ServerBatch firstN(std::size_t n)
    { return {Kind::FirstN, n, nullptr, ServerId()}; }
    static ServerBatch list(const ServerId *ids, std::size_t n)
    { return {Kind::List, n, ids, ServerId()}; }
    static ServerBatch repeat(ServerId id, std::size_t n)
    { return {Kind::Repeat, n, nullptr, id}; }

    Kind kind;
    std::size_t n;
    const ServerId *ids; // List only
    ServerId one;        // Repeat only
};

/**
 * One input of a batched prediction: a pointer to one value per
 * evaluation, or one value shared by all of them. perGpu() holds
 * gpusPerServer values per evaluation, [i * gpusPerServer + gpu]
 * (predictHottestGpu's GPU power only).
 */
struct BatchInput
{
    BatchInput(double value) : shared(value) {}
    BatchInput(const double *values) : each(values) {}

    static BatchInput perGpu(const double *values)
    {
        BatchInput in(values);
        in.gpuWide = true;
        return in;
    }

    const double *each = nullptr;
    double shared = 0.0;
    bool gpuWide = false;
};

/** Fitted profile store. */
class ProfileBank
{
  public:
    explicit ProfileBank(const DatacenterLayout &layout);

    /**
     * Run the offline profiling benchmarks: sweep outside/load/power
     * conditions, observe the ground truth with sensor noise, and
     * fit all per-server and per-GPU models. Noise streams are
     * counter-based per server (seeded by server id), so the
     * per-server observe+fit units fan out across the shared thread
     * pool with results identical for any profiling order and
     * thread count.
     */
    void offlineProfile(const ThermalModel &thermal,
                        const PowerModel &power, std::uint64_t seed);

    /**
     * Extend fitted models to servers added after the initial
     * profiling pass (oversubscription racks).
     */
    void profileNewServers(const ThermalModel &thermal,
                           const PowerModel &power,
                           std::uint64_t seed);

    bool profiled() const { return profiledServers > 0; }
    std::size_t profiledServerCount() const { return profiledServers; }

    /**
     * Rebuild per-server power polynomials from live telemetry (the
     * weekly refit). Every candidate fit runs through a sanity gate:
     * the refit curve must stay inside a band around the current
     * model over the whole load range, and its residuals against
     * the samples it was fitted from must stay at sensor-noise
     * scale. A diverging fit (corrupted telemetry, e.g. a stuck or
     * drifting power sensor) is rejected — the server keeps its
     * last accepted model and is marked fit-quarantined until a
     * later refit passes the gate.
     */
    void refitPowerFromTelemetry(const TelemetryStore &store);

    /** Whether the server's last power refit was rejected. */
    bool
    fitQuarantined(ServerId id) const
    {
        return id.index < fitQuarantinedFlag.size() &&
            fitQuarantinedFlag[id.index] != 0;
    }

    /** Servers currently holding a rejected refit (O(1)). */
    std::size_t fitQuarantineCount() const
    { return fitQuarantinedServers; }

    /** Accepted / rejected refit counters (tests and reports). */
    std::uint64_t refitsAccepted() const
    { return refitsAcceptedCount; }
    std::uint64_t refitsRejected() const
    { return refitsRejectedCount; }

    // ------------------------------------------------------------
    // Batched predictions, one function per fitted model: each
    // takes its shape from ServerBatch and BatchInput and writes
    // servers.n results into the caller-owned @p out. Decision code
    // (risk refresh, placement, the configurator) calls only these.
    // ------------------------------------------------------------

    /** Predicted inlet temperature (fitted Eq. 1). */
    void predictInlet(const ServerBatch &servers,
                      const BatchInput &outside_c,
                      const BatchInput &dc_load_frac, double *out) const;

    /** Predicted server power at a load fraction (fitted Eq. 4). */
    void predictPower(const ServerBatch &servers,
                      const BatchInput &load_frac, double *out) const;

    /** Predicted server airflow at a load fraction (fitted Eq. 3). */
    void predictAirflow(const ServerBatch &servers,
                        const BatchInput &load_frac, double *out) const;

    /**
     * Hottest predicted GPU (per-GPU max of fitted Eq. 2).
     * @p gpu_power_w is the power of every GPU, or per GPU
     * (BatchInput::perGpu, the risk refresh's measured powers).
     */
    void predictHottestGpu(const ServerBatch &servers,
                           const BatchInput &inlet_c,
                           const BatchInput &gpu_power_w,
                           double *out) const;

    // ------------------------------------------------------------
    // Scalar per-server predictions.
    //
    // scalar-predict-deprecated: written independently of the
    // batched kernels, these are the reference the batch tests
    // compare against bit for bit, and the per-server API of the
    // offline benches. Library code must not call them (lint R1).
    // ------------------------------------------------------------

    /** Predicted inlet temperature (fitted Eq. 1). */
    double predictInletC(ServerId id, double outside_c,
                         double dc_load_frac) const;

    /** Predicted GPU temperature (fitted Eq. 2). */
    double predictGpuTempC(ServerId id, int gpu, double inlet_c,
                           double gpu_power_w) const;

    /** Max predicted GPU temp across a server's GPUs. */
    double predictHottestGpuC(ServerId id, double inlet_c,
                              double per_gpu_power_w) const;

    /**
     * Max predicted GPU temp with measured per-GPU powers
     * (gpusPerServer-wide slice).
     */
    double predictHottestGpuC(ServerId id, double inlet_c,
                              const double *gpu_power_w) const;

    /** Predicted server power at a load fraction (fitted Eq. 4). */
    double predictServerPowerW(ServerId id, double load_frac) const;

    /** Predicted server airflow at a load fraction (fitted Eq. 3). */
    double predictServerAirflowCfm(ServerId id,
                                   double load_frac) const;

    /**
     * Thermal placement class: servers are split into equal terciles
     * by fitted inlet bias (predicted inlet at reference conditions).
     */
    ThermalClass thermalClass(ServerId id) const;

    /**
     * Serialize/restore all fitted coefficients and refit-gate state
     * (checkpointing). The shared bench-sweep designs are rebuilt by
     * the constructor and are identical for a given layout, so they
     * do not travel.
     */
    void checkpointState(Archive &ar);

  private:
    // ckpt-skip(constant): layout wiring bound at construction
    const DatacenterLayout &layout;

    /** Shared bench-sweep designs (identical grid for every server),
     *  regenerated from the fixed grid spec whenever a fit runs. */
    SharedDesign inletDesign;    // ckpt-skip(derived): fit-time grid
    SharedDesign gpuTempDesign;  // ckpt-skip(derived): fit-time grid
    SharedDesign powerDesign;    // ckpt-skip(derived): fit-time grid
    SharedDesign airflowDesign;  // ckpt-skip(derived): fit-time grid

    /** Flat fitted coefficients, indexed by server (x gpu). */
    std::vector<double> inletCoeffs;
    std::vector<double> gpuTempCoeffs;
    std::vector<double> powerCoeffs;
    std::vector<double> airflowCoeffs;

    std::vector<double> inletBias;
    std::vector<ThermalClass> classes;
    std::size_t profiledServers = 0;
    int gpusPerServer = 8;

    /** Refit sanity-gate state (refitPowerFromTelemetry). */
    /** Offline-fit anchor the refit envelope is measured against. */
    std::vector<double> offlinePowerCoeffs;
    std::vector<char> fitQuarantinedFlag;
    std::size_t fitQuarantinedServers = 0;
    std::uint64_t refitsAcceptedCount = 0;
    std::uint64_t refitsRejectedCount = 0;

    void profileRange(std::size_t begin, std::size_t end,
                      const ThermalModel &thermal,
                      const PowerModel &power,
                      std::uint64_t noise_base);
    void recomputeClasses();
};

} // namespace tapas

#endif // TAPAS_TELEMETRY_PROFILES_HH
