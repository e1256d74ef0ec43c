/**
 * @file
 * Telemetry history: 10-minute-cadence samples per server, row power
 * series, and per-VM power by customer/endpoint — the raw material
 * for weekly template building and profile refits (paper Section 4.5).
 *
 * Every series is a fixed-capacity ring (telemetry/series.hh):
 * appends are O(1), trimBefore() is a binary search plus a head
 * advance instead of an erase-from-front scan, and span/peak digests
 * are maintained incrementally on append. Queries return
 * SeriesView — a contiguous-chunk view that iterates and indexes
 * like the vectors it replaced.
 */

#ifndef TAPAS_TELEMETRY_HISTORY_HH
#define TAPAS_TELEMETRY_HISTORY_HH

#include <bit>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/types.hh"
#include "telemetry/series.hh"

namespace tapas {

class Archive;

/** One aggregated server sample (the paper's 10-min sensor rows). */
struct ServerSample
{
    SimTime time = 0;
    float inletC = 0.0f;
    float hottestGpuC = 0.0f;
    float serverPowerW = 0.0f;
    float gpuLoad = 0.0f;
    float outsideC = 0.0f;
    float dcLoadFrac = 0.0f;
};

/** One (time, value) observation keyed by an entity. */
struct KeyedSample
{
    SimTime time = 0;
    float value = 0.0f;
};

// A server sample's memory image is its wire image (an i64, then six
// f32 in declaration order, no padding), so checkpoints copy whole
// rings of them. These guards turn a layout change into a build
// error instead of a silent format change.
static_assert(std::is_trivially_copyable_v<ServerSample>);
static_assert(std::endian::native == std::endian::little);
static_assert(sizeof(SimTime) == 8);
static_assert(sizeof(ServerSample) == 8 + 6 * 4);
static_assert(offsetof(ServerSample, time) == 0);
static_assert(offsetof(ServerSample, inletC) == 8);
static_assert(offsetof(ServerSample, hottestGpuC) == 12);
static_assert(offsetof(ServerSample, serverPowerW) == 16);
static_assert(offsetof(ServerSample, gpuLoad) == 20);
static_assert(offsetof(ServerSample, outsideC) == 24);
static_assert(offsetof(ServerSample, dcLoadFrac) == 28);

/**
 * Ring traits for the two sample kinds: the digested time and value,
 * the bytes a sample takes on the wire, and whether its memory image
 * is that wire image (whole-record checkpoints).
 */
struct ServerSampleTraits
{
    static SimTime timeOf(const ServerSample &s) { return s.time; }
    static double valueOf(const ServerSample &s)
    { return s.serverPowerW; }
    static constexpr std::size_t kWireBytes = sizeof(ServerSample);
    static constexpr bool kWireImage = true;
};

struct KeyedSampleTraits
{
    static SimTime timeOf(const KeyedSample &s) { return s.time; }
    static double valueOf(const KeyedSample &s) { return s.value; }
    /** i64 time + f32 value; 16 bytes in memory with padding. */
    static constexpr std::size_t kWireBytes = 8 + 4;
    static constexpr bool kWireImage = false;

    template <typename Ar>
    static void
    fields(Ar &ar, KeyedSample &s)
    {
        ar.value(s.time);
        ar.value(s.value);
    }
};

using ServerSeriesRing = SampleRing<ServerSample, ServerSampleTraits>;
using KeyedSeriesRing = SampleRing<KeyedSample, KeyedSampleTraits>;

/** Bounded telemetry store with time-range queries. */
class TelemetryStore
{
  public:
    /**
     * Default per-series capacity, in samples: ten weeks at the
     * 10-minute sensor cadence — comfortably beyond the longest
     * history any harness in this repo feeds a standalone store.
     * Owners with a known retention window (the cluster simulator)
     * should size the store explicitly.
     */
    static constexpr std::size_t kDefaultSeriesCapacity =
        10 * 7 * 24 * 6;

    explicit TelemetryStore(
        std::size_t series_capacity = kDefaultSeriesCapacity)
        : seriesCapacity(series_capacity)
    {}

    /** Per-series sample bound this store was sized with. */
    std::size_t capacity() const { return seriesCapacity; }

    void recordServer(ServerId id, const ServerSample &sample);
    void recordRowPower(RowId id, SimTime t, double watts);
    /** Per-VM average power attributed to an IaaS customer. */
    void recordCustomerVmPower(CustomerId id, SimTime t,
                               double watts);
    /** Per-VM average power attributed to a SaaS endpoint. */
    void recordEndpointVmPower(EndpointId id, SimTime t,
                               double watts);
    /** Observed utilization of one VM (for load prediction). */
    void recordVmLoad(VmId id, CustomerId customer,
                      EndpointId endpoint, SimTime t, double load);

    SeriesView<ServerSample> serverSeries(ServerId id) const;
    SeriesView<KeyedSample> rowPowerSeries(RowId id) const;
    SeriesView<KeyedSample>
    customerVmPowerSeries(CustomerId id) const;
    SeriesView<KeyedSample>
    endpointVmPowerSeries(EndpointId id) const;

    /** Peak row power seen in the retained window (O(1) digest). */
    double rowPowerPeak(RowId id) const;
    /** Retained row power series time span (O(1) digest). */
    SimTime rowPowerSpan(RowId id) const;

    /** All row ids with any samples. */
    std::vector<RowId> rowsWithData() const;
    std::vector<CustomerId> customersWithData() const;
    std::vector<EndpointId> endpointsWithData() const;

    /**
     * Observation span for a customer's VM loads; used for the
     * "assume peak when history is under a week" rule.
     */
    SimTime customerLoadSpan(CustomerId id) const;
    SimTime endpointLoadSpan(EndpointId id) const;

    /** Peak (p99-ish: max) observed per-VM load for a customer. */
    double customerPeakLoad(CustomerId id) const;
    double endpointPeakLoad(EndpointId id) const;

    /**
     * Peak load if at least @p min_span of history exists, else the
     * conservative 1.0 — one hash lookup instead of span + peak.
     */
    double customerPredictedPeak(CustomerId id,
                                 SimTime min_span) const;
    double endpointPredictedPeak(EndpointId id,
                                 SimTime min_span) const;

    // --- Freshness / gap queries (sensor-fault handling). ---

    /**
     * Age of the newest server sample relative to @p now; -1 when
     * the server has never recorded a sample. A dropped-sample
     * sensor fault shows up as a growing age.
     */
    SimTime serverLastSampleAge(ServerId id, SimTime now) const;

    /** Gap between the server's two newest samples (0 if < 2). */
    SimTime serverSampleGap(ServerId id) const;

    /** Largest inter-sample gap seen for the server's series. */
    SimTime serverMaxSampleGap(ServerId id) const;

    /**
     * "Is this series fresh?": true when the newest sample is at
     * most @p max_age old. Servers with no samples are stale.
     */
    bool serverFresh(ServerId id, SimTime now, SimTime max_age)
        const;

    /** Drop samples older than the cutoff (weekly refit window). */
    void trimBefore(SimTime cutoff);

    /** Serialize/restore every ring and digest (checkpointing). */
    void checkpointState(Archive &ar);

  private:
    struct LoadDigest
    {
        SimTime first = -1;
        SimTime last = -1;
        double peak = 0.0;
    };

    std::size_t seriesCapacity;

    // Dense slot tables indexed by the (dense, small) entity ids:
    // the recorder runs every sensor tick for every server and VM,
    // so each record is one bounds check plus a direct index instead
    // of a hash probe. Slots materialize lazily on first record;
    // untouched slots read as empty series / absent digests.
    std::vector<ServerSeriesRing> serverData;
    std::vector<KeyedSeriesRing> rowPower;
    std::vector<KeyedSeriesRing> customerVmPower;
    std::vector<KeyedSeriesRing> endpointVmPower;
    std::vector<LoadDigest> customerLoads;
    std::vector<LoadDigest> endpointLoads;

    KeyedSeriesRing &keyedRing(std::vector<KeyedSeriesRing> &table,
                               std::uint32_t key);
};

} // namespace tapas

#endif // TAPAS_TELEMETRY_HISTORY_HH
