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
 *
 * TapasAllocator places in two stages on one code path. The basis
 * holds every request-independent term of a view (validator peaks,
 * occupied airflow/power and their aisle/row sums, zero-load and
 * design-day predictions, budgets, thermal classes, row VM mix, the
 * free-server list). The request stage evaluates the validators over
 * the free servers only, then projects the hottest GPU and scores
 * only the servers that pass both. place() is the only placement
 * call. A simulator's placement phase opens a round (beginRound):
 * the round's basis is built once, at its first place(), and
 * commit() folds each placement into it exactly, so every round pick
 * equals a pick from a fresh basis on the same view. Outside a round
 * place() builds the basis for that one call.
 */

#ifndef TAPAS_CORE_ALLOCATOR_HH
#define TAPAS_CORE_ALLOCATOR_HH

#include <algorithm>
#include <optional>
#include <span>
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

    /**
     * Placement rounds: one placement phase whose view changes only
     * through placements the caller reports with commit(). Between
     * beginRound() and endRound(), place() returns exactly what it
     * would outside the round on the same view; a policy may reuse
     * work across the round's calls. Callers pass the current view
     * on every call (its spans may have moved). The defaults keep no
     * round state.
     */
    virtual void beginRound() {}

    /** A VM now occupies `server` in `view` (after a round pick). */
    virtual void commit(ServerId, const ClusterView &) {}

    virtual void endRound() {}
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

  private:
    /** Occupied servers per rack, counted once per call. */
    std::vector<int> rackCountScratch; // ckpt-skip(scratch): per call
};

/** TAPAS rule-pipeline placement. */
class TapasAllocator : public VmAllocator
{
  public:
    explicit TapasAllocator(const TapasPolicyConfig &config)
        : cfg(config)
    {}

    /** Picks from the open round's basis, built at the round's
     *  first call; outside a round, from a basis built for this
     *  call alone. */
    std::optional<ServerId> place(const PlacementRequest &request,
                                  const ClusterView &view) override;

    /** Open a round; its basis is built at its first place(). */
    void beginRound() override;
    /** Fold a placement into the round's basis: re-evaluates only
     *  `server` and re-sums its aisle and row from zero. */
    void commit(ServerId server, const ClusterView &view) override;
    void endRound() override;

    /** The open round's predicted occupied airflow per aisle (CFM)
     *  and power per row (W); empty until its basis is built. */
    std::span<const double> roundAisleDemand() const
    { return roundBuilt ? round.aisleDemand : std::span<const double>(); }
    std::span<const double> roundRowDemand() const
    { return roundBuilt ? round.rowDemand : std::span<const double>(); }

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
     * admission and migration donor ranking).
     */
    static void peakLoadByServer(const ClusterView &view,
                                 std::vector<double> &out);

  private:
    /**
     * The request-independent placement terms of one view, plus the
     * request stage's scratch, sized by build() so that stage and
     * commit() never allocate. Aisle/row sums always run from 0.0
     * over servers in ascending index order, so a committed basis is
     * bit-identical to a fresh build on the same view.
     */
    struct Basis
    {
        void build(const ClusterView &view);
        void commit(ServerId server, const ClusterView &view);

        /** Validator peak per server (peakLoadByServer). */
        std::vector<double> peaks;
        /** Predicted airflow/power of each server at its peak. */
        std::vector<double> occupiedAirflow;
        std::vector<double> occupiedPower;
        /** Sums of the occupied terms per aisle / per row. */
        std::vector<double> aisleDemand;
        std::vector<double> rowDemand;
        std::vector<double> aisleBudget;
        std::vector<double> rowBudget;
        /** Per-server airflow/power at zero load. */
        std::vector<double> airflowZero;
        std::vector<double> powerZero;
        /** Design-day inlet per server (max(outsideC, 34), load 1). */
        std::vector<double> inlet;
        std::vector<ThermalClass> classes;
        std::vector<int> rowIaas;
        std::vector<int> rowSaas;
        /** Free servers in ascending index order. */
        std::vector<ServerId> freeServers;

        /** Request-stage scratch: one slot per free server. */
        std::vector<double> airflowAtLoad;
        std::vector<double> powerAtLoad;
        /** Validator survivors and their per-survivor terms. */
        std::vector<ServerId> survivors;
        std::vector<double> survivorRowDemand;
        std::vector<double> survivorInlet;
        std::vector<double> survivorGpuW;
        std::vector<double> survivorHottest;
        /** Balance score per row with the request's VM added. */
        std::vector<double> rowBalance;
    };

    /** The request stage: validators over the basis's free servers,
     *  then the thermal projection and scoring over the survivors. */
    std::optional<ServerId> pick(const PlacementRequest &request,
                                 const ClusterView &view);

    // ckpt-skip(constant): policy flags fixed at construction
    TapasPolicyConfig cfg;
    /** place()'s basis: the open round's, or the last call's outside
     *  a round (then marked unbuilt). Never outlives a placement
     *  phase. */
    Basis round;            // ckpt-skip(scratch): per placement phase
    bool roundOpen = false; // ckpt-skip(scratch): per placement phase
    bool roundBuilt = false; // ckpt-skip(scratch): per placement phase
};

} // namespace tapas

#endif // TAPAS_CORE_ALLOCATOR_HH
