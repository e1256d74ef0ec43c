/**
 * @file
 * Instance configuration (paper Section 4.3).
 *
 * Given per-instance limits (server power, hottest-GPU temperature,
 * airflow) the configurator picks the configuration that maximizes
 * goodput with quality as the binding priority: quality-affecting
 * knobs (model size, quantization) are a last resort, engaged only
 * when the quality floor is relaxed during emergencies. Frequency and
 * batch changes are free; model/TP/quant changes carry the reload
 * blackout the engine enforces.
 */

#ifndef TAPAS_CORE_CONFIGURATOR_HH
#define TAPAS_CORE_CONFIGURATOR_HH

#include <cstdint>
#include <vector>

#include "core/context.hh"
#include "llm/perf.hh"

namespace tapas {

/** Operating limits for one SaaS instance. */
struct InstanceLimits
{
    /** Whole-server power cap, watts. */
    double maxServerPowerW = 1e12;
    /** Hottest-GPU temperature cap. */
    double maxGpuTempC = 82.0;
    /** Server airflow cap, CFM. */
    double maxAirflowCfm = 1e12;
    /** Predicted inlet temperature used for projections. */
    double inletC = 25.0;
};

/** Result of a configuration decision. */
struct ConfigDecision
{
    ConfigProfile profile;
    /** True when the decision differs from the current config. */
    bool changed = false;
    /** True when no configuration satisfied the limits (the best
     *  effort lowest-impact config is returned anyway). */
    bool infeasible = false;
};

/** Chooses instance configurations within limits. */
class InstanceConfigurator
{
  public:
    InstanceConfigurator(const PerfModel &perf,
                         const TapasPolicyConfig &config);

    /**
     * Per-demand candidate plan (stage 1 of choose()), owned by the
     * configurator and kept across consecutive choose() calls at the
     * same (demand, quality floor) — the controller sorts its
     * instances by demand for exactly this. It is a pure function of
     * (demand, floor) and the configurator, so keeping it is
     * unobservable: a call with a different key rebuilds it in place.
     *
     * P is the leading run of the sorted space whose candidates all
     * have the top quality, clear the floor, and have positive
     * goodput meeting the demand target. The plan holds P's
     * operating points at the demand (inside P that is both the
     * feasibility and the ranking demand) and heat fractions, and
     * P ranked two ways: by (server power, index) for candidates
     * that keep the instance's weights, and by (server power x
     * reload gain, index) for those that reload. Rounding can make
     * x < y but x*g == y*g, where only the index may break the tie,
     * so one order cannot serve both.
     *
     * Vectors are sized to the top quality tier (P's bound) once, at
     * construction, so choosing never allocates.
     */
    struct Plan
    {
        double demandTps = -1.0;
        double qualityFloor = -1.0;
        /** Length of P (indices [0, meetingLen) of the space). */
        std::size_t meetingLen = 0;
        std::vector<PerfModel::OperatingPoint> ops;
        /** Normalized server heat (the airflow model input). */
        std::vector<double> heat;
        std::vector<std::uint32_t> byPower;
        std::vector<std::uint32_t> byReloadPower;
        /** Candidates whose limits were tested, over all calls. */
        std::uint64_t scored = 0;
    };

    /**
     * Choose the best configuration.
     *
     * Selection: among feasible configs at/above the quality floor,
     * prefer (1) highest quality, (2) meeting demand x 1.5 headroom,
     * (3) minimum power at the current demand, with reload-requiring
     * candidates' power scaled by the reload hysteresis gain (a
     * blackout must buy a larger saving); when demand cannot be met,
     * prefer maximum goodput. Ties go to the earlier candidate of
     * the quality-desc, goodput-desc space.
     *
     * Stage 2 finds the winner by rank, not by walk. Inside P every
     * candidate meets demand and the sequential selection never
     * stops early, so its winner is the feasible P candidate with
     * the least (penalized power, index); and once one exists,
     * nothing after P can be taken (a lower tier only wins by
     * meeting demand the incumbent did not, and the rest of the top
     * tier misses the target). So the two plan orders are merged
     * by (penalized power, index) — the first order's non-reload
     * candidates, the second's reload ones — and limits are tested
     * one candidate at a time: the first feasible one is the
     * winner, usually after one or two tests.
     *
     * Only when P holds no feasible candidate (emergencies) does the
     * sequential walk continue from P's end, where its best is still
     * unset. It scores candidates against the limits one at a time
     * until an incumbent exists, then in fixed blocks. It stops at
     * the quality floor, and once an incumbent exists it skips
     * candidates that miss the target unscored: within the
     * incumbent's tier their goodput is no higher, and a lower tier
     * only wins by meeting demand, so they can never be taken. With
     * nothing feasible at all, the lowest-power config at the
     * current demand is returned and flagged infeasible. A final
     * hysteresis check keeps the current config when the winner's
     * advantage is marginal.
     *
     * @param server the hosting server (for fitted projections)
     * @param profiles fitted profile bank
     * @param limits operating limits to respect
     * @param demand_tps current token demand on the instance
     * @param quality_floor minimum acceptable model quality
     * @param current the instance's active profile
     */
    ConfigDecision choose(ServerId server,
                          const ProfileBank &profiles,
                          const InstanceLimits &limits,
                          double demand_tps, double quality_floor,
                          const ConfigProfile &current);

    /** The plan as the last choose() left it (its candidate count
     *  and scored total, for tests and benches). */
    const Plan &lastPlan() const { return plan; }

    /** Whether a profile satisfies the limits at a given demand. */
    bool feasible(ServerId server, const ProfileBank &profiles,
                  const InstanceLimits &limits,
                  const ConfigProfile &profile,
                  double demand_tps) const;

    const std::vector<ConfigProfile> &profileSpace() const
    { return space; }

  private:
    const PerfModel &perf;
    TapasPolicyConfig cfg;
    std::vector<ConfigProfile> space;
    /** Candidates of the top quality tier (P's upper bound). */
    std::size_t topTierLen = 0;
    /** The per-demand plan; rebuilt whenever the key changes. */
    Plan plan;

    /** Limit checks at an evaluated operating point and its heat
     *  fraction: server power, then hottest GPU, then airflow. */
    bool withinLimits(ServerId server, const ProfileBank &profiles,
                      const InstanceLimits &limits,
                      const PerfModel::OperatingPoint &op,
                      double heat) const;

    /** Rebuild the plan for (demand, floor) unless it already is. */
    void preparePlan(double demand_tps, double quality_floor);

    /** One operating-point solve through the batched solver. */
    PerfModel::OperatingPoint solveOne(const ConfigProfile &profile,
                                       double demand_tps) const;

    /**
     * Normalized server heat at a candidate operating point (the
     * airflow models are fitted against this load definition).
     */
    double heatFractionOf(const ConfigProfile &profile,
                          const PerfModel::OperatingPoint &op) const;
};

} // namespace tapas

#endif // TAPAS_CORE_CONFIGURATOR_HH
