/**
 * @file
 * Structure-of-arrays VM table for the cluster simulator's hot path.
 *
 * Every per-step sweep (demand assignment, draw computation, power
 * capping, thermal throttling, metric collection) walks the whole VM
 * population but touches only a handful of scalar fields. Keeping
 * those fields in parallel arrays means a sweep streams a few packed
 * bytes per VM instead of dragging the full record/engine state
 * through cache. Cold state — the trace record, engine ownership, and
 * the configurator's change-gate — lives in a side table indexed by
 * the same VM id and is only touched on placement, departure, and
 * configuration events.
 */

#ifndef TAPAS_SIM_VMTABLE_HH
#define TAPAS_SIM_VMTABLE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "workload/vmtrace.hh"

namespace tapas {

class Archive;
class InferenceEngine;

/**
 * SoA VM table: hot per-step arrays plus a cold side table, all
 * indexed by VmId (the trace pre-assigns dense ids).
 */
class VmTable
{
  public:
    static constexpr std::uint32_t kNoServer =
        Id<ServerTag>::invalidIndex;

    /** Size every array for @p n VM slots, all empty. */
    void reset(std::size_t n);

    std::size_t size() const { return slot.size(); }

    // ------------------------------------------------ hot arrays --
    // Public by design: the simulator's sweeps iterate them directly.

    /** Active flag and service kind in one byte. */
    std::vector<VmSlot> slot;
    /** Hosting server index; kNoServer while unplaced. */
    std::vector<std::uint32_t> serverOf;
    /** GPU load fraction this step. */
    std::vector<double> load;
    /** Hardware frequency cap applied this step (1 = uncapped). */
    std::vector<double> freqCap;
    /** Token demand routed this step (SaaS). */
    std::vector<double> demandTps;
    /** Smoothed demand used for configuration decisions. */
    std::vector<double> demandEmaTps;
    /** Departure time, mirrored hot for the per-step departure scan. */
    std::vector<SimTime> departureAt;
    /** Raw serving-engine pointer (SaaS); cold table owns it. */
    std::vector<InferenceEngine *> engine;
    /** Owning endpoint index, mirrored hot for routing and
     *  telemetry sweeps. */
    std::vector<std::uint32_t> endpointOf;
    /** Owning customer index, mirrored hot for telemetry sweeps. */
    std::vector<std::uint32_t> customerOf;
    /**
     * Cached predicted peak load. The underlying telemetry digests
     * only change on telemetry ticks, so the cache is refreshed
     * there (and on placement) and is otherwise exact.
     */
    std::vector<double> predictedPeak;

    // ------------------------------------------- cold side table --

    /** Rarely-touched per-VM state. */
    struct Cold
    {
        VmRecord record;
        /** SaaS only. */
        std::unique_ptr<InferenceEngine> engineOwner;
        /** Demand at the last configuration decision (change gate). */
        double lastConfigDemand = -1.0;
        /** Time of the last configuration decision. */
        SimTime lastConfigAt = -1;
    };

    std::vector<Cold> cold;

    // ------------------------------------------------- accessors --

    bool active(std::size_t i) const
    { return slot[i] != VmSlot::Empty; }

    bool isSaas(std::size_t i) const
    { return slot[i] == VmSlot::Saas; }

    bool isIaas(std::size_t i) const
    { return slot[i] == VmSlot::Iaas; }

    ServerId server(std::size_t i) const
    { return ServerId(serverOf[i]); }

    const VmRecord &record(std::size_t i) const
    { return cold[i].record; }

    InferenceEngine *engineAt(std::size_t i) const
    { return engine[i]; }

    // ------------------------------------------------ mutations --

    /**
     * Install an arriving VM's trace record (it may wait unplaced;
     * only place() flips the slot active).
     */
    void admitRecord(const VmRecord &record);

    /**
     * Mark slot @p i placed on @p server, taking engine ownership
     * (null for IaaS) and caching @p predicted_peak.
     */
    void place(std::size_t i, ServerId server,
               std::unique_ptr<InferenceEngine> engine_owner,
               double predicted_peak);

    /** Release slot @p i (departure): engine destroyed, state reset. */
    void depart(std::size_t i);

    /**
     * Structural consistency of the hot mirrors against the cold
     * side table (tests; debug builds assert it per step).
     */
    bool consistent() const;

    /**
     * Serialize/restore every hot array and the cold side table,
     * including owned engine state; the raw engine mirror is
     * re-derived from the restored owners.
     */
    void checkpointState(Archive &ar);
};

} // namespace tapas

#endif // TAPAS_SIM_VMTABLE_HH
