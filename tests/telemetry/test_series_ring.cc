/**
 * @file
 * Ring-buffer telemetry series versus a naive unbounded-vector
 * reference: append/trim/digest equality under churn, eviction
 * semantics at capacity, and the contiguous-chunk view contract.
 * Also the rings' checkpoint codec: whole-record server rings keep
 * the field-wise wire bytes, copied or gathered into a checkpoint
 * file, and crafted sample counts fail the archive instead of
 * driving an allocation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/serialize.hh"
#include "telemetry/history.hh"
#include "telemetry/series.hh"

namespace tapas {
namespace {

/** Naive reference: unbounded vector with erase-from-front trims. */
struct NaiveSeries
{
    std::vector<KeyedSample> data;

    void push(const KeyedSample &s) { data.push_back(s); }

    void
    trimBefore(SimTime cutoff)
    {
        auto first_kept = std::find_if(
            data.begin(), data.end(), [cutoff](const KeyedSample &s) {
                return s.time >= cutoff;
            });
        data.erase(data.begin(), first_kept);
    }

    double
    peak() const
    {
        double out = 0.0;
        for (std::size_t i = 0; i < data.size(); ++i)
            out = i == 0 ? data[i].value
                         : std::max(out, double(data[i].value));
        return out;
    }

    SimTime
    span() const
    {
        return data.empty() ? 0
                            : data.back().time - data.front().time;
    }
};

void
expectEqual(const KeyedSeriesRing &ring, const NaiveSeries &ref)
{
    const SeriesView<KeyedSample> view = ring.view();
    ASSERT_EQ(view.size(), ref.data.size());
    for (std::size_t i = 0; i < ref.data.size(); ++i) {
        EXPECT_EQ(view[i].time, ref.data[i].time);
        EXPECT_EQ(view[i].value, ref.data[i].value);
    }
    EXPECT_DOUBLE_EQ(ring.peakValue(), ref.peak());
    EXPECT_EQ(ring.span(), ref.span());
}

TEST(SampleRing, MatchesNaiveReferenceUnderChurn)
{
    // Random interleaving of appends and trims; as long as the ring
    // never overflows, it must be indistinguishable from the naive
    // unbounded store.
    Rng rng(41);
    KeyedSeriesRing ring(512);
    NaiveSeries ref;
    SimTime t = 0;
    SimTime cutoff = 0;
    for (int op = 0; op < 4000; ++op) {
        if (rng.bernoulli(0.85) || ref.data.empty()) {
            t += rng.uniformInt(1, 600);
            const KeyedSample s{
                t, static_cast<float>(rng.uniform(0.0, 5000.0))};
            ring.push(s);
            ref.push(s);
        } else {
            cutoff = std::max(
                cutoff,
                ref.data.front().time +
                    rng.uniformInt(0, ref.span() + 1));
            ring.trimBefore(cutoff);
            ref.trimBefore(cutoff);
        }
        // Keep the churn below capacity so the semantics must agree.
        if (ref.data.size() > 480) {
            cutoff =
                std::max(cutoff, ref.data[ref.data.size() / 2].time);
            ring.trimBefore(cutoff);
            ref.trimBefore(cutoff);
        }
        if (op % 7 == 0)
            expectEqual(ring, ref);
    }
    expectEqual(ring, ref);
}

TEST(SampleRing, EvictsOldestAtCapacity)
{
    KeyedSeriesRing ring(8);
    for (SimTime t = 0; t < 20; ++t)
        ring.push({t, static_cast<float>(t)});
    EXPECT_EQ(ring.size(), 8u);
    EXPECT_EQ(ring.front().time, 12);
    EXPECT_EQ(ring.back().time, 19);
    // Digest tracks the retained window only.
    EXPECT_DOUBLE_EQ(ring.peakValue(), 19.0);
    EXPECT_EQ(ring.span(), 7);
}

TEST(SampleRing, PeakRecomputesAfterEvictingThePeak)
{
    KeyedSeriesRing ring(4);
    ring.push({0, 100.0f});
    ring.push({1, 5.0f});
    ring.push({2, 7.0f});
    EXPECT_DOUBLE_EQ(ring.peakValue(), 100.0);
    ring.push({3, 6.0f});
    ring.push({4, 1.0f}); // evicts the 100 peak
    EXPECT_DOUBLE_EQ(ring.peakValue(), 7.0);
    ring.trimBefore(3); // evicts the 7 peak via trim
    EXPECT_DOUBLE_EQ(ring.peakValue(), 6.0);
}

TEST(SampleRing, TrimExactlyAtHeadRemovesNothing)
{
    // Samples strictly below the cutoff are dropped, so a cutoff at
    // exactly the head sample's timestamp is a no-op — including on
    // a wrapped full ring and with duplicate head timestamps.
    KeyedSeriesRing ring(4);
    for (SimTime t = 0; t < 6; ++t)
        ring.push({t, static_cast<float>(t)});
    ASSERT_EQ(ring.front().time, 2);
    ring.trimBefore(2);
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.front().time, 2);
    EXPECT_DOUBLE_EQ(ring.peakValue(), 5.0);
    EXPECT_EQ(ring.span(), 3);

    KeyedSeriesRing dup(8);
    dup.push({5, 1.0f});
    dup.push({5, 2.0f});
    dup.push({6, 3.0f});
    dup.trimBefore(5);
    EXPECT_EQ(dup.size(), 3u);
    EXPECT_DOUBLE_EQ(dup.peakValue(), 3.0);
}

TEST(SampleRing, TrimPastLastSampleEmptiesAndRegrows)
{
    // A cutoff beyond the last sample empties the ring and resets it
    // to a fresh growth phase; pushes afterwards must land in order
    // with exact digests — on a growth-phase ring, a wrapped full
    // ring, and repeatedly (the PR-2 regrow bug was a reset that
    // left the physical run misaligned).
    for (int prefill : {3, 12}) { // below capacity / wrapped-full
        KeyedSeriesRing ring(8);
        for (SimTime t = 0; t < prefill; ++t)
            ring.push({t, static_cast<float>(100 + t)});
        ring.trimBefore(1000);
        EXPECT_EQ(ring.size(), 0u);
        EXPECT_TRUE(ring.view().empty());
        EXPECT_DOUBLE_EQ(ring.peakValue(), 0.0);
        EXPECT_EQ(ring.span(), 0);

        // Regrow past capacity: eviction and digests must behave
        // like a freshly constructed ring.
        for (SimTime t = 2000; t < 2012; ++t)
            ring.push({t, static_cast<float>(t - 2000)});
        EXPECT_EQ(ring.size(), 8u);
        EXPECT_EQ(ring.front().time, 2004);
        EXPECT_EQ(ring.back().time, 2011);
        EXPECT_DOUBLE_EQ(ring.peakValue(), 11.0);
        EXPECT_EQ(ring.span(), 7);

        // And a second trim-to-empty on the regrown ring.
        ring.trimBefore(3000);
        EXPECT_EQ(ring.size(), 0u);
        ring.push({3000, 9.0f});
        EXPECT_EQ(ring.size(), 1u);
        EXPECT_EQ(ring.front().time, 3000);
        EXPECT_DOUBLE_EQ(ring.peakValue(), 9.0);
    }
}

TEST(SampleRing, TrimToEmptyWhilePeakDigestIsInvalid)
{
    // Evicting the peak defers the digest rescan; trimming the rest
    // away while the digest is invalid must still leave a clean
    // empty ring (peak 0) and exact digests after regrowth.
    KeyedSeriesRing ring(4);
    ring.push({0, 50.0f});
    ring.push({1, 1.0f});
    ring.push({2, 2.0f});
    ring.trimBefore(1); // evicts the 50 peak -> digest invalid
    ring.trimBefore(10); // empties the ring before any peak query
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_DOUBLE_EQ(ring.peakValue(), 0.0);
    ring.push({20, 4.0f});
    EXPECT_DOUBLE_EQ(ring.peakValue(), 4.0);
}

TEST(SampleRing, ViewChunksAreContiguousAndOrdered)
{
    KeyedSeriesRing ring(6);
    for (SimTime t = 0; t < 10; ++t)
        ring.push({t, static_cast<float>(t)});
    const SeriesView<KeyedSample> view = ring.view();
    ASSERT_EQ(view.size(), 6u);
    // A wrapped ring exposes exactly two chunks covering the data.
    EXPECT_EQ(view.firstChunk().size + view.secondChunk().size, 6u);
    EXPECT_GT(view.secondChunk().size, 0u);
    SimTime prev = -1;
    for (const KeyedSample &s : view) {
        EXPECT_GT(s.time, prev);
        prev = s.time;
    }
    EXPECT_EQ(view.front().time, 4);
    EXPECT_EQ(view.back().time, 9);
}

TEST(TelemetryStore, RingCapacityBoundsSeries)
{
    // A store sized to a small retention window keeps only the most
    // recent samples, in order.
    TelemetryStore store(16);
    for (SimTime t = 0; t < 100; ++t)
        store.recordRowPower(RowId(0), t * 600, 1000.0 + t);
    const auto series = store.rowPowerSeries(RowId(0));
    EXPECT_EQ(series.size(), 16u);
    EXPECT_EQ(series.front().time, 84 * 600);
    EXPECT_EQ(series.back().time, 99 * 600);
    EXPECT_DOUBLE_EQ(store.rowPowerPeak(RowId(0)), 1099.0);
}

TEST(TelemetryStore, TrimBeforeMatchesEraseSemantics)
{
    TelemetryStore store;
    for (SimTime t = 0; t < 10 * kHour; t += kHour)
        store.recordRowPower(RowId(0), t, 1.0);
    store.trimBefore(5 * kHour);
    EXPECT_EQ(store.rowPowerSeries(RowId(0)).size(), 5u);
    EXPECT_EQ(store.rowPowerSeries(RowId(0)).front().time,
              5 * kHour);
    // Trimming everything leaves an empty, reusable series.
    store.trimBefore(kWeek);
    EXPECT_TRUE(store.rowPowerSeries(RowId(0)).empty());
    store.recordRowPower(RowId(0), kWeek, 2.0);
    EXPECT_EQ(store.rowPowerSeries(RowId(0)).size(), 1u);
}

/** Field-wise ServerSample codec: the oracle for the wire bytes of
 *  the whole-record ring path. */
void
serverSampleFields(Archive &ar, ServerSample &s)
{
    ar.value(s.time);
    ar.value(s.inletC);
    ar.value(s.hottestGpuC);
    ar.value(s.serverPowerW);
    ar.value(s.gpuLoad);
    ar.value(s.outsideC);
    ar.value(s.dcLoadFrac);
}

/** A ring's header, then each sample field by field, oldest first. */
std::vector<std::uint8_t>
fieldWiseRingBytes(const ServerSeriesRing &ring)
{
    Archive ar = Archive::writer();
    std::size_t cap = ring.capacity();
    std::size_t n = ring.size();
    SimTime last_gap = ring.lastGap();
    SimTime max_gap = ring.maxGap();
    ar.count(cap);
    ar.count(n);
    ar.value(last_gap);
    ar.value(max_gap);
    for (ServerSample sample : ring.view())
        serverSampleFields(ar, sample);
    return {ar.buffer().begin(), ar.buffer().end()};
}

template <typename Ring>
std::vector<std::uint8_t>
ringBytes(Ring &ring)
{
    Archive ar = Archive::writer();
    ring.checkpointState(ar);
    EXPECT_TRUE(ar.ok());
    return {ar.buffer().begin(), ar.buffer().end()};
}

/** A sample whose every field differs from its neighbours'. */
ServerSample
serverSampleAt(SimTime t)
{
    const float f = static_cast<float>(t);
    return {t, 20.0f + f, 60.0f + f, 3000.0f + f, 0.01f * f, -5.0f + f,
            0.5f + 0.001f * f};
}

/** An empty ring, a growing one (one chunk) and a wrapped, trimmed
 *  one (head != 0, both chunks non-empty). */
std::vector<ServerSeriesRing>
checkpointRings()
{
    std::vector<ServerSeriesRing> rings(3, ServerSeriesRing(8));
    for (SimTime t = 0; t < 5; ++t)
        rings[1].push(serverSampleAt(t * 600));
    for (SimTime t = 0; t < 12; ++t)
        rings[2].push(serverSampleAt(t * 600 + (t > 9 ? 900 : 0)));
    rings[2].trimBefore(6 * 600);
    return rings;
}

TEST(SampleRingCheckpoint, WholeRecordBytesEqualFieldWiseEncoding)
{
    std::vector<ServerSeriesRing> rings = checkpointRings();
    ASSERT_EQ(rings[1].view().secondChunk().size, 0u);
    ASSERT_GT(rings[2].view().firstChunk().size, 0u);
    ASSERT_GT(rings[2].view().secondChunk().size, 0u);

    for (ServerSeriesRing *ring : {&rings[0], &rings[1], &rings[2]}) {
        const std::vector<std::uint8_t> bytes = ringBytes(*ring);
        EXPECT_EQ(bytes, fieldWiseRingBytes(*ring));

        ServerSeriesRing back;
        Archive r = Archive::reader(bytes);
        back.checkpointState(r);
        EXPECT_TRUE(r.done());
        EXPECT_EQ(back.capacity(), ring->capacity());
        EXPECT_EQ(back.lastGap(), ring->lastGap());
        EXPECT_EQ(back.maxGap(), ring->maxGap());
        EXPECT_DOUBLE_EQ(back.peakValue(), ring->peakValue());
        ASSERT_EQ(back.size(), ring->size());
        for (std::size_t i = 0; i < back.size(); ++i) {
            EXPECT_EQ(std::memcmp(&back.at(i), &ring->at(i),
                                  sizeof(ServerSample)),
                      0)
                << "sample " << i;
        }
        EXPECT_EQ(ringBytes(back), bytes);
    }
}

TEST(SampleRingCheckpoint, GatheredCheckpointFileHoldsFieldWiseBytes)
{
    // Through a CheckpointWriter the chunks are gathered in place,
    // not copied: each section's payload read back from the file must
    // still be the field-wise encoding.
    std::vector<ServerSeriesRing> rings = checkpointRings();
    ASSERT_GT(rings[2].view().secondChunk().size, 0u);
    const std::string path =
        std::string(::testing::TempDir()) + "ring_gathered.tapasckp";
    CheckpointWriter writer(0x77);
    for (std::uint32_t id = 0; id < rings.size(); ++id) {
        writer.section(id, [&](Archive &ar) {
            rings[id].checkpointState(ar);
        });
    }
    ASSERT_TRUE(writer.write(path).ok());

    Result<CheckpointData> back = readCheckpointFile(path);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back.value().sections.size(), rings.size());
    for (std::uint32_t id = 0; id < rings.size(); ++id) {
        const std::span<const std::uint8_t> payload =
            back.value().find(id)->payload;
        EXPECT_EQ(std::vector<std::uint8_t>(payload.begin(),
                                            payload.end()),
                  fieldWiseRingBytes(rings[id]))
            << "ring " << id;
    }
    removeFileIfExists(path);
}

/** A ring header claiming @p n samples, followed by @p payload bytes. */
std::vector<std::uint8_t>
craftedRing(std::size_t cap, std::size_t n, std::size_t payload)
{
    Archive ar = Archive::writer();
    SimTime gap = 0;
    ar.count(cap);
    ar.count(n);
    ar.value(gap);
    ar.value(gap);
    std::vector<std::uint8_t> zeros(payload);
    ar.bytes(zeros.data(), zeros.size());
    return {ar.buffer().begin(), ar.buffer().end()};
}

template <typename Ring, typename Sample>
void
expectCraftedCountsFail(const Sample &seed_sample,
                        std::size_t wire_bytes)
{
    // An untrusted count bounded only by an untrusted capacity: it
    // must latch fail() and leave the ring empty, not throw
    // std::bad_alloc out of the walk.
    const std::size_t huge = std::size_t{1} << 40;
    const std::vector<std::uint8_t> crafted =
        craftedRing(huge, huge - 1, 4 * wire_bytes);
    Ring ring(4);
    ring.push(seed_sample);
    Archive r = Archive::reader(crafted);
    EXPECT_NO_THROW(ring.checkpointState(r));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_TRUE(ring.view().empty());

    // The guard is the wire width: three samples in exactly three
    // wire widths decode, one byte short does not.
    const std::vector<std::uint8_t> exact =
        craftedRing(8, 3, 3 * wire_bytes);
    Ring fits;
    Archive ok_reader = Archive::reader(exact);
    fits.checkpointState(ok_reader);
    EXPECT_TRUE(ok_reader.done());
    EXPECT_EQ(fits.size(), 3u);

    const std::vector<std::uint8_t> short_by_one =
        craftedRing(8, 3, 3 * wire_bytes - 1);
    Ring short_ring;
    Archive short_reader = Archive::reader(short_by_one);
    short_ring.checkpointState(short_reader);
    EXPECT_FALSE(short_reader.ok());
    EXPECT_EQ(short_ring.size(), 0u);
}

TEST(SampleRingCheckpoint, CraftedSampleCountsFailWithoutAllocating)
{
    expectCraftedCountsFail<ServerSeriesRing>(serverSampleAt(0), 32);
    expectCraftedCountsFail<KeyedSeriesRing>(KeyedSample{0, 1.0f},
                                             12);
}

} // namespace
} // namespace tapas
