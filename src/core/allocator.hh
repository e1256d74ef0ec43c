/**
 * @file
 * VM placement policies (paper Section 4.1).
 *
 * BaselineAllocator models the traditional rule-based allocator
 * (Protean-style packing, thermal/power-oblivious). TapasAllocator
 * implements the three TAPAS rules: a validator that filters aisles
 * and rows whose predicted peak airflow/power would exceed
 * provisioning (Eqs. 3-4), a temperature preference (IaaS to cool
 * servers, SaaS to warm servers), and an IaaS/SaaS balance
 * preference, with headroom-based tie-breaking.
 */

#ifndef TAPAS_CORE_ALLOCATOR_HH
#define TAPAS_CORE_ALLOCATOR_HH

#include <algorithm>
#include <optional>
#include <vector>

#include "core/context.hh"

namespace tapas {

/** A VM awaiting placement. */
struct PlacementRequest
{
    VmId id;
    VmKind kind = VmKind::IaaS;
    /** Predicted peak load of the VM (templates; 1.0 = assume peak). */
    double predictedPeakLoad = 1.0;
};

/** Placement policy interface. */
class VmAllocator
{
  public:
    virtual ~VmAllocator() = default;

    /**
     * Choose a server for the VM, or nullopt when the cluster has no
     * acceptable server (caller queues the VM).
     */
    virtual std::optional<ServerId>
    place(const PlacementRequest &request,
          const ClusterView &view) = 0;

    /**
     * The part of a request that decides whether place() can reject
     * it. Contract: on an unchanged view, once place() has returned
     * nullopt for one request, it returns nullopt for every request
     * with an equal admissionLoad, whatever its id, kind or
     * predicted peak. Callers may therefore skip such requests until
     * the view changes (ClusterSim's rejection memo).
     */
    virtual double
    admissionLoad(const PlacementRequest &request) const = 0;

    virtual const char *name() const = 0;
};

/** Packing-first, thermal/power-oblivious placement. */
class BaselineAllocator : public VmAllocator
{
  public:
    std::optional<ServerId> place(const PlacementRequest &request,
                                  const ClusterView &view) override;

    /** Only a full cluster rejects, whatever the request. */
    double
    admissionLoad(const PlacementRequest &) const override
    {
        return 0.0;
    }

    const char *name() const override { return "baseline"; }
};

/** TAPAS rule-pipeline placement. */
class TapasAllocator : public VmAllocator
{
  public:
    explicit TapasAllocator(const TapasPolicyConfig &config)
        : cfg(config)
    {}

    std::optional<ServerId> place(const PlacementRequest &request,
                                  const ClusterView &view) override;

    /**
     * The validator load (Eqs. 3-4): place() rejects only when no
     * free server passes the airflow and power validators at this
     * load; the thermal rule falls back instead of rejecting.
     */
    double
    admissionLoad(const PlacementRequest &request) const override
    {
        return validatorLoad(request.kind, request.predictedPeakLoad);
    }

    const char *name() const override { return "tapas"; }

    /**
     * Heat/load level the configurator can always push a SaaS
     * instance down to; budget validators count SaaS at this
     * controllable floor because TAPAS reclaims that slack at
     * runtime (Section 4.4: oversubscription leverages the slack
     * TAPAS creates).
     */
    static constexpr double kSaasControllableLoad = 0.45;

    /** A VM's predicted peak as every budget validator counts it:
     *  SaaS clamped to the controllable floor, IaaS as predicted. */
    static double
    validatorLoad(VmKind kind, double predicted_peak)
    {
        return kind == VmKind::SaaS
            ? std::min(predicted_peak, kSaasControllableLoad)
            : predicted_peak;
    }

    /**
     * Per-server predicted peak loads of the hosted VMs, SaaS
     * counted at the controllable floor and free servers at 0 (the
     * accounting every budget validator shares — allocator
     * admission, migration donor ranking, and the what-if helpers
     * below).
     */
    static void peakLoadByServer(const ClusterView &view,
                                 std::vector<double> &out);

    /**
     * Predicted peak airflow demand of an aisle (CFM), including an
     * optional extra VM at the given server.
     */
    static double predictedAisleAirflow(const ClusterView &view,
                                        AisleId aisle,
                                        ServerId extra_server,
                                        double extra_peak_load);

    /** Predicted peak power demand of a row (W), incl. optional VM. */
    static double predictedRowPower(const ClusterView &view,
                                    RowId row, ServerId extra_server,
                                    double extra_peak_load);

  private:
    TapasPolicyConfig cfg;

    /** Reusable placement scratch (place() runs per arriving VM and
     *  per waiting-queue retry; batched predictor passes write into
     *  these instead of allocating per call). */
    std::vector<double> peaksScratch;
    std::vector<double> aisleBaseScratch;
    std::vector<double> rowBaseScratch;
    std::vector<double> airflowZeroScratch;
    std::vector<double> airflowReqScratch;
    std::vector<double> powerZeroScratch;
    std::vector<double> powerReqScratch;
    std::vector<double> inletScratch;
    std::vector<double> perGpuWScratch;
    std::vector<double> hottestScratch;
    std::vector<int> rowIaasScratch;
    std::vector<int> rowSaasScratch;
};

} // namespace tapas

#endif // TAPAS_CORE_ALLOCATOR_HH
