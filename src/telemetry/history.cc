#include "telemetry/history.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace tapas {

KeyedSeriesRing &
TelemetryStore::keyedRing(std::vector<KeyedSeriesRing> &table,
                          std::uint32_t key)
{
    if (key >= table.size())
        table.resize(key + 1, KeyedSeriesRing(seriesCapacity));
    return table[key];
}

void
TelemetryStore::recordServer(ServerId id, const ServerSample &sample)
{
    if (id.index >= serverData.size()) {
        serverData.resize(id.index + 1,
                          ServerSeriesRing(seriesCapacity));
    }
    serverData[id.index].push(sample);
}

void
TelemetryStore::recordRowPower(RowId id, SimTime t, double watts)
{
    keyedRing(rowPower, id.index)
        .push({t, static_cast<float>(watts)});
}

void
TelemetryStore::recordCustomerVmPower(CustomerId id, SimTime t,
                                      double watts)
{
    keyedRing(customerVmPower, id.index)
        .push({t, static_cast<float>(watts)});
}

void
TelemetryStore::recordEndpointVmPower(EndpointId id, SimTime t,
                                      double watts)
{
    keyedRing(endpointVmPower, id.index)
        .push({t, static_cast<float>(watts)});
}

void
TelemetryStore::recordVmLoad(VmId id, CustomerId customer,
                             EndpointId endpoint, SimTime t,
                             double load)
{
    (void)id;
    auto update = [&](LoadDigest &digest) {
        if (digest.first < 0)
            digest.first = t;
        digest.last = t;
        digest.peak = std::max(digest.peak, load);
    };
    if (customer.valid()) {
        if (customer.index >= customerLoads.size())
            customerLoads.resize(customer.index + 1);
        update(customerLoads[customer.index]);
    }
    if (endpoint.valid()) {
        if (endpoint.index >= endpointLoads.size())
            endpointLoads.resize(endpoint.index + 1);
        update(endpointLoads[endpoint.index]);
    }
}

SeriesView<ServerSample>
TelemetryStore::serverSeries(ServerId id) const
{
    return id.index < serverData.size()
        ? serverData[id.index].view()
        : SeriesView<ServerSample>();
}

SeriesView<KeyedSample>
TelemetryStore::rowPowerSeries(RowId id) const
{
    return id.index < rowPower.size() ? rowPower[id.index].view()
                                      : SeriesView<KeyedSample>();
}

SeriesView<KeyedSample>
TelemetryStore::customerVmPowerSeries(CustomerId id) const
{
    return id.index < customerVmPower.size()
        ? customerVmPower[id.index].view()
        : SeriesView<KeyedSample>();
}

SeriesView<KeyedSample>
TelemetryStore::endpointVmPowerSeries(EndpointId id) const
{
    return id.index < endpointVmPower.size()
        ? endpointVmPower[id.index].view()
        : SeriesView<KeyedSample>();
}

std::vector<RowId>
TelemetryStore::rowsWithData() const
{
    std::vector<RowId> out;
    out.reserve(rowPower.size());
    for (std::size_t key = 0; key < rowPower.size(); ++key) {
        if (!rowPower[key].empty())
            out.push_back(RowId(static_cast<std::uint32_t>(key)));
    }
    return out;
}

std::vector<CustomerId>
TelemetryStore::customersWithData() const
{
    std::vector<CustomerId> out;
    out.reserve(customerVmPower.size());
    for (std::size_t key = 0; key < customerVmPower.size(); ++key) {
        if (!customerVmPower[key].empty()) {
            out.push_back(
                CustomerId(static_cast<std::uint32_t>(key)));
        }
    }
    return out;
}

std::vector<EndpointId>
TelemetryStore::endpointsWithData() const
{
    std::vector<EndpointId> out;
    out.reserve(endpointVmPower.size());
    for (std::size_t key = 0; key < endpointVmPower.size(); ++key) {
        if (!endpointVmPower[key].empty()) {
            out.push_back(
                EndpointId(static_cast<std::uint32_t>(key)));
        }
    }
    return out;
}

double
TelemetryStore::customerPredictedPeak(CustomerId id,
                                      SimTime min_span) const
{
    // A slot materialized by a higher id but never recorded reads
    // as absent (first < 0). The predicted-peak refresh calls this
    // for every customer on telemetry ticks.
    if (id.index >= customerLoads.size())
        return 1.0;
    const LoadDigest &digest = customerLoads[id.index];
    if (digest.first < 0 || digest.last - digest.first < min_span)
        return 1.0;
    return digest.peak;
}

double
TelemetryStore::endpointPredictedPeak(EndpointId id,
                                      SimTime min_span) const
{
    if (id.index >= endpointLoads.size())
        return 1.0;
    const LoadDigest &digest = endpointLoads[id.index];
    if (digest.first < 0 || digest.last - digest.first < min_span)
        return 1.0;
    return digest.peak;
}

SimTime
TelemetryStore::serverLastSampleAge(ServerId id, SimTime now) const
{
    if (id.index >= serverData.size() ||
        serverData[id.index].empty()) {
        return -1;
    }
    return now - serverData[id.index].lastTime();
}

SimTime
TelemetryStore::serverSampleGap(ServerId id) const
{
    return id.index < serverData.size()
        ? serverData[id.index].lastGap()
        : 0;
}

SimTime
TelemetryStore::serverMaxSampleGap(ServerId id) const
{
    return id.index < serverData.size()
        ? serverData[id.index].maxGap()
        : 0;
}

bool
TelemetryStore::serverFresh(ServerId id, SimTime now,
                            SimTime max_age) const
{
    const SimTime age = serverLastSampleAge(id, now);
    return age >= 0 && age <= max_age;
}

namespace {

void
keyedTable(Archive &ar, std::vector<KeyedSeriesRing> &table)
{
    ar.each(
        table,
        [](Archive &a, KeyedSeriesRing &ring) { ring.checkpointState(a); },
        KeyedSeriesRing::kHeaderWireBytes);
}

/** first, last and peak. */
constexpr std::size_t kLoadDigestWireBytes = 3 * 8;

} // namespace

void
TelemetryStore::checkpointState(Archive &ar)
{
    // Every table count is bounded by its elements' wire bytes: a
    // restore decodes this section before its frame CRC is checked,
    // so a flipped count must not drive a resize far past the frame.
    ar.count(seriesCapacity);
    ar.each(
        serverData,
        [](Archive &a, ServerSeriesRing &ring) { ring.checkpointState(a); },
        ServerSeriesRing::kHeaderWireBytes);
    keyedTable(ar, rowPower);
    keyedTable(ar, customerVmPower);
    keyedTable(ar, endpointVmPower);
    const auto digest = [](Archive &a, LoadDigest &d) {
        a.value(d.first);
        a.value(d.last);
        a.value(d.peak);
    };
    ar.each(customerLoads, digest, kLoadDigestWireBytes);
    ar.each(endpointLoads, digest, kLoadDigestWireBytes);
}

} // namespace tapas
