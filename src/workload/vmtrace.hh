/**
 * @file
 * Synthetic VM arrival traces with production-trace statistics.
 *
 * The generator reproduces the demographic properties the paper's
 * placement and routing gains depend on (Figs. 12-13):
 *
 *  - heavy-tailed lifetimes: >60% of GPU VMs live two weeks or more,
 *  - a 50/50 (configurable) IaaS/SaaS split,
 *  - SaaS endpoints with skewed sizes (half of all SaaS VMs belong to
 *    large endpoints),
 *  - IaaS customers with shared diurnal load patterns (enabling the
 *    customer-template power prediction of Fig. 14).
 */

#ifndef TAPAS_WORKLOAD_VMTRACE_HH
#define TAPAS_WORKLOAD_VMTRACE_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace tapas {

/** Service model of a VM. */
enum class VmKind { IaaS, SaaS };

/** Placement/service state of a VM slot (Empty = not placed). */
enum class VmSlot : std::uint8_t { Empty = 0, Iaas = 1, Saas = 2 };

/** Diurnal load shape shared by VMs of one IaaS customer. */
struct LoadPattern
{
    /** Mean utilization. */
    double base = 0.5;
    /** Diurnal amplitude. */
    double amplitude = 0.3;
    /** Peak hour (0-24). */
    double peakHour = 14.0;
    /** Gaussian noise sigma per sample. */
    double noiseSigma = 0.05;
};

/** One VM in the trace. */
struct VmRecord
{
    VmId id;
    VmKind kind = VmKind::IaaS;
    SimTime arrival = 0;
    /** Departure time; may exceed the horizon (still running). */
    SimTime departure = 0;
    /** SaaS only: owning inference endpoint. */
    EndpointId endpoint;
    /** IaaS only: owning customer. */
    CustomerId customer;
    /** IaaS only: load shape (customer pattern + per-VM jitter). */
    LoadPattern pattern;

    SimTime lifetime() const { return departure - arrival; }
};

/** Trace generation knobs. */
struct VmTraceConfig
{
    /**
     * Steady-state population. 0 = auto: the cluster simulator sizes
     * it to ~85% of the server count.
     */
    int targetVmCount = 0;
    double saasFraction = 0.5;
    SimTime horizon = kWeek;
    int endpointCount = 10;
    int iaasCustomerCount = 20;
    /** Endpoint size skew (Zipf exponent over endpoint ranks). */
    double endpointZipfS = 0.9;
    /** Fraction of lifetimes drawn from the short-lived mode. */
    double shortLivedFraction = 0.35;
    /** Mean of the short-lived exponential mode. */
    double shortMeanDays = 4.0;
    /** Long-lived uniform range. */
    double longMinDays = 14.0;
    double longMaxDays = 90.0;
};

/**
 * Generates a full VM trace up front: an initial population at t=0
 * (with staggered residual lifetimes) plus replacement arrivals that
 * hold the population near the target for the whole horizon.
 */
class VmTraceGenerator
{
  public:
    VmTraceGenerator(const VmTraceConfig &config, std::uint64_t seed);

    const VmTraceConfig &config() const { return cfg; }

    /** All VM records, sorted by arrival time. */
    const std::vector<VmRecord> &records() const { return trace; }

    /** Number of SaaS endpoints materialized. */
    int endpointCount() const { return cfg.endpointCount; }

    /**
     * Instantaneous load of an IaaS VM at time t, in [0,1].
     * Deterministic per (vm, t): noise comes from a counter-based
     * stream so replay is exact.
     */
    double iaasLoadAt(const VmRecord &vm, SimTime t) const;

    /** Per-endpoint share of SaaS VMs (for request-rate sizing). */
    const std::vector<int> &endpointVmCounts() const
    { return endpointSizes; }

  private:
    VmTraceConfig cfg;
    std::uint64_t noiseSeed;
    std::vector<VmRecord> trace;
    std::vector<LoadPattern> customerPatterns;
    std::vector<int> endpointSizes;

    SimTime sampleLifetime(Rng &rng) const;
};

} // namespace tapas

#endif // TAPAS_WORKLOAD_VMTRACE_HH
