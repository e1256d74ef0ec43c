/**
 * @file
 * Ground-truth thermal model of the datacenter (paper Eqs. 1-3).
 *
 * The model realizes the regression structure the paper measured at
 * production scale:
 *
 *  - Inlet temperature (Eq. 1) follows the outside temperature through
 *    the cooling plant's piecewise response (humidity floor when cold,
 *    linear tracking in the 15-25C band, compressed above), plus a
 *    datacenter-load term, per-server spatial offsets (row, rack
 *    position within row, height within rack), and a heat
 *    recirculation penalty when an aisle's airflow demand exceeds its
 *    AHU provisioning (Eq. 3).
 *  - GPU temperature (Eq. 2) is linear in GPU power on top of inlet
 *    temperature, with per-GPU process-variation coefficients and the
 *    even/odd positional bias the paper reports (even-indexed GPUs sit
 *    closer to the inlet and run cooler).
 *
 * TAPAS never reads this model directly: it fits its own profiles from
 * telemetry generated by this model (see telemetry/ProfileBank).
 */

#ifndef TAPAS_DCSIM_THERMAL_HH
#define TAPAS_DCSIM_THERMAL_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "dcsim/layout.hh"

namespace tapas {

/** Tunable constants of the ground-truth thermal model. */
struct ThermalConfig
{
    /** Inlet floor maintained when it is cold outside (humidity). */
    double humidityFloorC = 18.0;
    /** Outside temperature below which the floor holds. */
    double coldKneeC = 15.0;
    /** Outside temperature above which cooling works harder. */
    double hotKneeC = 25.0;
    /** Inlet degrees per outside degree in the linear band. */
    double midSlope = 0.7;
    /** Inlet degrees per outside degree above the hot knee. */
    double hotSlope = 0.35;

    /** Inlet rise from zero to full datacenter load (Fig. 5). */
    double loadSlopeC = 2.0;

    /** Max spread of per-row offsets (Fig. 4). */
    double rowSpreadC = 1.0;
    /** Max spread across rack positions within a row (Fig. 4). */
    double rackSpreadC = 2.0;
    /** Max spread across heights within a rack (minor, Fig. 4). */
    double heightSpreadC = 0.3;

    /** Inlet degrees per unit of aisle airflow overdraw fraction. */
    double recircSlopeC = 25.0;

    /** Mean GPU heating coefficient, degC per watt of GPU power. */
    double gpuCoeffMean = 0.082;
    /** Process-variation sigma of the heating coefficient. */
    double gpuCoeffSigma = 0.004;
    /** Additive bias for odd-indexed GPUs (away from inlet). */
    double oddGpuBiasC = 5.0;
    /** Sigma of the per-GPU additive temperature offset. */
    double gpuOffsetSigmaC = 2.0;
    /** Mean of the per-GPU additive temperature offset. */
    double gpuOffsetMeanC = 5.0;

    /** Memory die offset versus GPU die at pure compute phases. */
    double memOffsetComputeC = -2.0;
    /** Memory die offset versus GPU die at fully memory-bound load. */
    double memOffsetMemBoundC = 4.0;

    /** Sensor/measurement noise sigma applied to inlet readings. */
    double noiseSigmaC = 0.25;

    /**
     * AHU provisioning as a fraction of the fleet's worst-case
     * airflow demand (design diversity factor).
     */
    double airflowProvisionFactor = 1.0;
};

/**
 * Ground-truth thermal physics, with fixed per-entity heterogeneity
 * drawn deterministically from a seed.
 */
class ThermalModel
{
  public:
    ThermalModel(const DatacenterLayout &layout,
                 const ThermalConfig &config, std::uint64_t seed);

    const ThermalConfig &config() const { return cfg; }

    /** Cooling plant response: inlet base for a given outside temp. */
    double coolingCurve(Celsius outside) const;

    /**
     * Inlet temperature for a server (Eq. 1).
     *
     * @param id the server
     * @param outside current outside air temperature
     * @param dc_load_frac whole-datacenter power load fraction [0,1]
     * @param aisle_overdraw_frac airflow overdraw fraction of this
     *        server's aisle: max(0, demand/provision - 1)
     * @param noise optional RNG for sensor noise; nullptr = noiseless
     */
    Celsius inletTemperature(ServerId id, Celsius outside,
                             double dc_load_frac,
                             double aisle_overdraw_frac,
                             Rng *noise = nullptr) const;

    /** GPU die temperature (Eq. 2) given inlet and GPU power. */
    Celsius gpuTemperature(ServerId id, int gpu, Celsius inlet,
                           Watts gpu_power) const;

    /**
     * Batch Eq. 1 for the step loop: inlet temperatures of every
     * server in one pass, with the cooling-curve and load terms
     * hoisted out of the per-server work. @p aisle_overdraw_frac is
     * indexed by aisle, @p out_inlet_c by server. No sensor noise is
     * applied (the caller owns its noise draws).
     */
    void inletTemperatures(Celsius outside, double dc_load_frac,
                           const std::vector<double>
                               &aisle_overdraw_frac,
                           std::vector<double> &out_inlet_c) const;

    /**
     * Batch Eq. 2 for the step loop: die temperatures of every GPU
     * of one server. @p gpu_power_w and @p out_c point at the
     * server's gpusPerServer-wide slice.
     */
    void gpuTemperatures(ServerId id, Celsius inlet,
                         const double *gpu_power_w,
                         double *out_c) const;

    /**
     * GPU memory temperature; tracks the die with a phase-dependent
     * offset (memory-bound work heats HBM past the die).
     *
     * @param mem_bound_frac fraction of the work that is memory-bound
     *        (decode-like), in [0,1]
     */
    Celsius memTemperature(ServerId id, int gpu, Celsius inlet,
                           Watts gpu_power,
                           double mem_bound_frac) const;

    /**
     * Server fan airflow at a given load fraction. Linear fan curve
     * calibrated so that the manufacturer's 80%-PWM spec point is hit
     * at the corresponding load.
     */
    Cfm serverAirflow(ServerId id, double load_frac) const;

    /** Fan speed fraction for a load fraction, in [idle, 1]. */
    static double fanSpeed(double load_frac);

    /** Fixed spatial inlet offset of a server (for tests/benches). */
    double spatialOffset(ServerId id) const;

    /** Per-GPU heating coefficient (degC/W). */
    double gpuCoeff(ServerId id, int gpu) const;

    /** Per-GPU additive offset (degC above inlet at idle power). */
    double gpuOffset(ServerId id, int gpu) const;

    /**
     * Materialize heterogeneity for servers added to the layout
     * after construction (oversubscription racks). Deterministic
     * continuation of the construction-time stream.
     */
    void extend();

  private:
    const DatacenterLayout &layout;
    ThermalConfig cfg;

    std::vector<double> serverOffsets;
    /** [server * gpusPerServer + gpu] */
    std::vector<double> gpuCoeffs;
    std::vector<double> gpuOffsets;
    /** Fixed per-row offsets/directions, for later extension. */
    std::vector<double> rowOffsets;
    std::vector<int> rowDirs;
    /** Continuation RNG for servers added after construction. */
    Rng extendRng;

    int gpusPerServer;

    void materializeServer(const Server &server, Rng &rng);
};

/**
 * Aisle-level cooling provisioning (Eq. 3): AHU airflow budgets and
 * failure state. Provisioning is frozen at construction — racks added
 * later (oversubscription) draw from the same budget, exactly the
 * scenario the paper's Fig. 21 explores.
 */
class CoolingPlant
{
  public:
    CoolingPlant(const DatacenterLayout &layout,
                 const ThermalModel &thermal);

    /** Provisioned AHU airflow for an aisle (design peak). */
    Cfm provision(AisleId id) const;

    /** Effective provision including any failure derating. */
    Cfm effectiveProvision(AisleId id) const;

    /**
     * Degrade an aisle's AHU group to the given fraction of design
     * airflow (paper's thermal emergency: 90%). Whole-plant failures
     * call this for every aisle.
     */
    void failAhu(AisleId id, double remaining_frac);

    /** Restore an aisle's AHU group to full provisioning. */
    void restoreAhu(AisleId id);

    /** True if any aisle currently runs derated. */
    bool anyFailure() const;

    /**
     * Airflow overdraw fraction for an aisle given each member
     * server's current load fraction: max(0, demand/provision - 1).
     */
    double overdrawFraction(AisleId id,
                            const std::vector<double> &server_loads)
        const;

    /** Total airflow demand of an aisle at given per-server loads. */
    Cfm demand(AisleId id,
               const std::vector<double> &server_loads) const;

    /**
     * Incremental demand accounting for the hot loop. The fan curve
     * is linear in load, so each aisle's demand decomposes into a
     * constant base (all fans at idle duty) plus a per-server
     * coefficient times the server's load. One fused pass over the
     * load vector refreshes every aisle's demand; the cached values
     * are then read with cachedDemand()/cachedOverdrawFraction().
     *
     * Servers added to the layout after construction
     * (oversubscription racks) are folded into the decomposition
     * automatically; provisioning stays frozen by design.
     */
    void updateDemands(const std::vector<double> &server_loads);

    /** Aisle demand from the last updateDemands() pass. */
    Cfm cachedDemand(AisleId id) const;

    /** Overdraw fraction from the last updateDemands() pass. */
    double cachedOverdrawFraction(AisleId id) const;

  private:
    const DatacenterLayout &layout;
    const ThermalModel &thermal;
    std::vector<double> provisionCfm;
    std::vector<double> deratingFrac;

    /** Per-aisle demand with every fan at idle duty. */
    std::vector<double> baseCfm;
    /** Per-server demand slope, cfm per unit load. */
    std::vector<double> slopeCfm;
    /** Per-server aisle index (fused-pass scatter target). */
    std::vector<std::uint32_t> serverAisle;
    /** Per-aisle demand of the last updateDemands() pass. */
    std::vector<double> demandCfm;
    bool demandsFresh = false;

    /** Materialize base/slope terms for not-yet-seen servers. */
    void extendDecomposition();
};

} // namespace tapas

#endif // TAPAS_DCSIM_THERMAL_HH
