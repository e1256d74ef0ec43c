/**
 * @file
 * Configuration of a cluster-simulation experiment (paper §5.1).
 */

#ifndef TAPAS_SIM_CONFIG_HH
#define TAPAS_SIM_CONFIG_HH

#include <cstdint>

#include "core/context.hh"
#include "core/faults.hh"
#include "dcsim/layout.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"
#include "workload/vmtrace.hh"
#include "workload/weather.hh"

namespace tapas {

/** Simulation fidelity. */
enum class SimMode
{
    /** Every request simulated through every engine (real-cluster
     *  scale experiments). */
    RequestLevel,
    /** Aggregate token flows with utilization-law latency estimates
     *  (datacenter-scale, week-long sweeps). */
    FlowLevel,
};

/** Full experiment description. */
struct SimConfig
{
    LayoutConfig layout;
    ThermalConfig thermal;
    PowerConfig power;
    WeatherConfig weather;
    VmTraceConfig vmTrace;
    TapasPolicyConfig policy;

    SimMode mode = SimMode::FlowLevel;
    SimTime stepLength = 5 * kMinute;
    SimTime horizon = kWeek;
    std::uint64_t seed = 1;

    /** Extra racks added beyond provisioning, percent of base. */
    int oversubscriptionPct = 0;

    /**
     * Telemetry retention window: every telemetry series keeps at
     * most this much history (ring-buffer bound; the weekly refit
     * window in production). 0 = retain the full horizon, matching
     * the historical unbounded-store behavior.
     */
    SimTime telemetryRetention = 0;

    /** Peak demand as a fraction of fleet goodput (production LLM
     *  fleets provision for spikes; typical peaks sit well below
     *  capacity). */
    double endpointPeakUtil = 0.45;

    /**
     * Hour-of-day around which SaaS endpoint demand peaks. Short
     * experiments (the 1-hour real-cluster run) set this near 0 so
     * the window covers the busy period.
     */
    double demandPeakHour = 14.0;

    /** Lognormal sigma of per-endpoint 5-minute demand spikes. */
    double demandNoiseSigma = 0.18;

    /**
     * Fault-injection plan: stochastic MTBF/MTTR component and
     * sensor fault processes plus scripted windows (core/faults.hh).
     * Empty plan = no engine, zero step overhead.
     */
    FaultPlan faults;

    /**
     * Inlet temperature excursion limit used by the robustness
     * accounting (ASHRAE-ish allowable envelope; steps with any
     * server's true inlet above it count as excursion steps).
     */
    double inletLimitC = 32.0;

    /**
     * Cadence of online profile refits from telemetry (0 = never,
     * the historical behavior). Each refit runs through the
     * ProfileBank sanity gate, which quarantines diverging fits.
     */
    SimTime profileRefitPeriod = 0;

    /** Make the baseline (all policies off) variant of this config. */
    SimConfig
    asBaseline() const
    {
        SimConfig out = *this;
        out.policy.placeEnabled = false;
        out.policy.routeEnabled = false;
        out.policy.configEnabled = false;
        return out;
    }

    /** Make the full-TAPAS variant of this config. */
    SimConfig
    asTapas() const
    {
        SimConfig out = *this;
        out.policy.placeEnabled = true;
        out.policy.routeEnabled = true;
        out.policy.configEnabled = true;
        return out;
    }

    /** Variant with a chosen subset of policies. */
    SimConfig
    withPolicies(bool place, bool route, bool config) const
    {
        SimConfig out = *this;
        out.policy.placeEnabled = place;
        out.policy.routeEnabled = route;
        out.policy.configEnabled = config;
        return out;
    }
};

} // namespace tapas

#endif // TAPAS_SIM_CONFIG_HH
