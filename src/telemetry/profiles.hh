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
    // Scalar predictions.
    //
    // scalar-predict-deprecated: the per-server predict* calls below
    // survive for tests, offline benches, and debug cross-checks
    // only. Decision hot loops (risk refresh, the TAPAS allocator,
    // the configurator) must go through the batched passes further
    // down, which stream the flat coefficient arrays once per fleet
    // (or once per candidate block) instead of re-entering per
    // server. The batched passes evaluate the exact same expressions
    // element-wise, so results are bit-identical to the scalar calls.
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
     * (gpusPerServer-wide slice); risk-refresh hot path.
     */
    double predictHottestGpuC(ServerId id, double inlet_c,
                              const double *gpu_power_w) const;

    /** Predicted server power at a load fraction (fitted Eq. 4). */
    double predictServerPowerW(ServerId id, double load_frac) const;

    /** Predicted server airflow at a load fraction (fitted Eq. 3). */
    double predictServerAirflowCfm(ServerId id,
                                   double load_frac) const;

    // ------------------------------------------------------------
    // Batched prediction passes (the hot-loop entry points).
    //
    // Fleet-wide variants cover servers [0, count) and write one
    // result per server into the caller-owned output span; gather
    // variants evaluate an arbitrary server subset; the per-server
    // "candidates" variants stream one server's coefficient block
    // over many candidate operating points (configurator scoring).
    // ------------------------------------------------------------

    /** Predicted inlet for servers [0, count) at shared ambient
     *  conditions (the hinge terms are hoisted out of the fleet
     *  walk). */
    void predictInletBatch(double outside_c, double dc_load_frac,
                           std::size_t count, double *out) const;

    /** Predicted server power for servers [0, count) at per-server
     *  loads. */
    void predictPowerBatch(const double *load_frac, std::size_t count,
                           double *out) const;

    /** Predicted server power for servers [0, count) at one shared
     *  load (placement what-ifs). */
    void predictPowerUniformBatch(double load_frac, std::size_t count,
                                  double *out) const;

    /** Predicted airflow for servers [0, count) at per-server
     *  loads. */
    void predictAirflowBatch(const double *load_frac,
                             std::size_t count, double *out) const;

    /** Predicted airflow for servers [0, count) at one shared
     *  load. */
    void predictAirflowUniformBatch(double load_frac,
                                    std::size_t count,
                                    double *out) const;

    /** Predicted server power for an arbitrary server subset. */
    void predictPowerGather(const ServerId *ids,
                            const double *load_frac, std::size_t n,
                            double *out) const;

    /** Predicted airflow for an arbitrary server subset. */
    void predictAirflowGather(const ServerId *ids,
                              const double *load_frac, std::size_t n,
                              double *out) const;

    /** Predicted server power for a server subset at one shared
     *  load (placement what-ifs over the free servers). */
    void predictPowerUniformGather(double load_frac,
                                   const ServerId *ids, std::size_t n,
                                   double *out) const;

    /** Predicted airflow for a server subset at one shared load. */
    void predictAirflowUniformGather(double load_frac,
                                     const ServerId *ids,
                                     std::size_t n, double *out) const;

    /**
     * Hottest predicted GPU for servers [0, count) from per-server
     * inlets and measured per-GPU powers (flattened
     * [server * gpus + gpu]); risk-refresh hot path.
     */
    void predictHottestGpuBatch(const double *inlet_c,
                                const double *gpu_power_w,
                                std::size_t count, double *out) const;

    /**
     * Hottest predicted GPU for a server subset from per-element
     * inlets and per-GPU powers (placement projections over the
     * servers that pass the budget validators).
     */
    void predictHottestGpuGather(const ServerId *ids,
                                 const double *inlet_c,
                                 const double *per_gpu_power_w,
                                 std::size_t n, double *out) const;

    /**
     * Hottest predicted GPU of one server over n candidate per-GPU
     * powers at a fixed inlet (configurator candidate scoring: the
     * server's coefficient block streams once over the block).
     */
    void predictHottestGpuCandidates(ServerId id, double inlet_c,
                                     const double *per_gpu_power_w,
                                     std::size_t n, double *out) const;

    /** Airflow of one server over n candidate heat loads. */
    void predictAirflowCandidates(ServerId id,
                                  const double *load_frac,
                                  std::size_t n, double *out) const;

    /**
     * Thermal placement class: servers are split into equal terciles
     * by fitted inlet bias (predicted inlet at reference conditions).
     */
    ThermalClass thermalClass(ServerId id) const;

    /** Fitted inlet bias of a server versus the fleet median. */
    double inletBiasC(ServerId id) const;

    /**
     * Serialize/restore all fitted coefficients and refit-gate state
     * (checkpointing). The shared bench-sweep designs are rebuilt by
     * the constructor and are identical for a given layout, so they
     * do not travel.
     */
    void checkpointState(Archive &ar);

  private:
    /** Coefficient widths of the flat model arrays. */
    static constexpr std::size_t kInletWidth = 5;
    static constexpr std::size_t kGpuTempWidth = 3;
    static constexpr std::size_t kPowerWidth = 4;
    static constexpr std::size_t kAirflowWidth = 2;

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

    double evalInlet(std::size_t server, double outside_c,
                     double dc_load_frac) const;
};

} // namespace tapas

#endif // TAPAS_TELEMETRY_PROFILES_HH
