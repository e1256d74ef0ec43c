/**
 * @file
 * LLM inference request routing (paper Section 4.2).
 *
 * BaselineRouter is the traditional latency-oriented least-loaded
 * policy. TapasRouter first filters VMs whose servers carry thermal,
 * power, airflow, or performance risk, then applies the paper's
 * three-stage policy: (1) KV-cache affinity for repeat customers,
 * (2) energy-saving load concentration, (3) performance spread.
 * route() serves request-level mode, split() flow-level mode.
 */

#ifndef TAPAS_CORE_ROUTER_HH
#define TAPAS_CORE_ROUTER_HH

#include <span>
#include <unordered_map>
#include <vector>

#include "core/context.hh"
#include "core/risk.hh"
#include "llm/engine.hh"
#include "llm/request.hh"

namespace tapas {

class Archive;

/** One routable VM of an endpoint. */
struct RouteCandidate
{
    VmId vm;
    ServerId server;
    /** The VM's serving engine (load/accepting state). */
    InferenceEngine *engine = nullptr;
};

/** Routing policy interface. */
class RequestRouter
{
  public:
    /** split() share of a candidate that receives no demand. */
    static constexpr double kUnrouted = -1.0;

    virtual ~RequestRouter() = default;

    /**
     * Pick a VM for the request from the endpoint's candidates.
     * Returns an invalid VmId when nothing can accept (caller
     * re-queues the request).
     */
    virtual VmId route(const Request &request,
                       std::span<const RouteCandidate> candidates,
                       const RiskAssessor *risk) = 0;

    /** Divide @p demandTps across the candidates: shares[i] is
     *  candidates[i]'s tokens/s, or kUnrouted if it gets nothing. */
    virtual void split(std::span<const RouteCandidate> candidates,
                       double demandTps, const ClusterView &view,
                       const RiskAssessor *risk,
                       std::span<double> shares) = 0;

    virtual const char *name() const = 0;

    /**
     * Serialize/restore router-internal state (checkpointing).
     * Stateless policies keep the default no-op.
     */
    virtual void checkpointState(Archive &) {}

  protected:
    /**
     * Turn split weights into rates in place: demand in proportion
     * to weight; overload above total capacity spills evenly, each
     * VM capped at 1.2x its capacity. kUnrouted entries stay.
     */
    static void distribute(std::span<const RouteCandidate> candidates,
                           double demandTps, std::span<double> shares);
};

/** Least-outstanding-load routing, risk-oblivious. */
class BaselineRouter : public RequestRouter
{
  public:
    VmId route(const Request &request,
               std::span<const RouteCandidate> candidates,
               const RiskAssessor *risk) override;

    /** Every accepting VM, weighted by capacity. */
    void split(std::span<const RouteCandidate> candidates,
               double demandTps, const ClusterView &view,
               const RiskAssessor *risk,
               std::span<double> shares) override;

    const char *name() const override { return "baseline"; }
};

/** TAPAS risk-filtered, affinity/concentration/spread routing. */
class TapasRouter : public RequestRouter
{
  public:
    explicit TapasRouter(const TapasPolicyConfig &config)
        : cfg(config)
    {}

    VmId route(const Request &request,
               std::span<const RouteCandidate> candidates,
               const RiskAssessor *risk) override;

    /** The safe VMs, weighted by capacity x row-power slack. */
    void split(std::span<const RouteCandidate> candidates,
               double demandTps, const ClusterView &view,
               const RiskAssessor *risk,
               std::span<double> shares) override;

    const char *name() const override { return "tapas"; }

    /** Affinity table size (for tests). */
    std::size_t affinityEntries() const { return affinity.size(); }

    /** Serialize/restore the KV-cache affinity table. */
    void checkpointState(Archive &ar) override;

  private:
    // ckpt-skip(constant): policy flags fixed at construction
    TapasPolicyConfig cfg;
    /** customer -> VM that served them last (KV-cache residency). */
    std::unordered_map<std::uint32_t, VmId> affinity;
    // ckpt-skip(scratch): per-call safe set, dead between calls
    std::vector<const RouteCandidate *> safeScratch;

    /**
     * Stage 0: fill safeScratch with the accepting candidates on
     * servers a fresh @p risk does not flag, with projected TTFT
     * within @p perfBar. If none qualify, fall back to every
     * accepting candidate and return false.
     */
    bool collectSafe(std::span<const RouteCandidate> candidates,
                     const RiskAssessor *risk, double perfBar);
};

} // namespace tapas

#endif // TAPAS_CORE_ROUTER_HH
