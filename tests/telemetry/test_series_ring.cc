/**
 * @file
 * Ring-buffer telemetry series versus a naive bounded-vector
 * reference: equality through many wraps and checkpoint round trips,
 * eviction semantics at capacity, and the contiguous-chunk view
 * contract.
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

/** Naive reference: a vector that drops its front once it holds
 *  more than the ring's capacity, plus the gap bookkeeping. */
template <typename Sample>
struct BoundedReference
{
    std::size_t cap;
    std::vector<Sample> data;
    SimTime lastGap = 0;
    SimTime maxGap = 0;

    void
    push(const Sample &s)
    {
        if (!data.empty()) {
            lastGap = s.time - data.back().time;
            maxGap = std::max(maxGap, lastGap);
        }
        data.push_back(s);
        if (data.size() > cap)
            data.erase(data.begin());
    }
};

bool
sameSample(const KeyedSample &a, const KeyedSample &b)
{
    return a.time == b.time && a.value == b.value;
}

bool
sameSample(const ServerSample &a, const ServerSample &b)
{
    return std::memcmp(&a, &b, sizeof(ServerSample)) == 0;
}

template <typename Ring, typename Sample>
void
expectEqual(const Ring &ring, const BoundedReference<Sample> &ref)
{
    const SeriesView<Sample> view = ring.view();
    ASSERT_EQ(ring.size(), ref.data.size());
    ASSERT_EQ(view.size(), ref.data.size());
    EXPECT_EQ(ring.capacity(), ref.cap);
    for (std::size_t i = 0; i < ref.data.size(); ++i) {
        EXPECT_TRUE(sameSample(view[i], ref.data[i])) << "sample " << i;
        EXPECT_TRUE(sameSample(ring.at(i), ref.data[i]))
            << "sample " << i;
    }
    EXPECT_EQ(ring.lastTime(),
              ref.data.empty() ? -1 : ref.data.back().time);
    EXPECT_EQ(ring.lastGap(), ref.lastGap);
    EXPECT_EQ(ring.maxGap(), ref.maxGap);
}

/** The ring after a checkpoint round trip into a fresh ring, which
 *  comes back at head 0 whatever the original's layout. */
template <typename Ring>
Ring
roundTrip(Ring &ring)
{
    Archive w = Archive::writer();
    ring.checkpointState(w);
    const std::vector<std::uint8_t> bytes(w.buffer().begin(),
                                          w.buffer().end());
    Ring back;
    Archive r = Archive::reader(bytes);
    back.checkpointState(r);
    EXPECT_TRUE(r.done());
    return back;
}

/** A sample whose every field differs from its neighbours'. */
ServerSample
serverSampleAt(SimTime t)
{
    const float f = static_cast<float>(t);
    return {t, 20.0f + f, 60.0f + f, 3000.0f + f, 0.01f * f, -5.0f + f,
            0.5f + 0.001f * f};
}

template <typename Ring, typename Sample, typename Make>
void
churnAgainstReference(Make make)
{
    // Push many times past capacity (so the ring wraps over and over)
    // with duplicate timestamps allowed; at random points, continue
    // in a ring restored from a checkpoint of this one. Throughout,
    // the ring must read exactly like the bounded reference.
    for (std::size_t cap : {1u, 7u, 64u}) {
        Rng rng(41 + cap);
        Ring ring(cap);
        BoundedReference<Sample> ref{cap, {}};
        SimTime t = 0;
        int restores = 0;
        for (int op = 0; op < 4000; ++op) {
            t += rng.uniformInt(0, 600);
            const Sample s = make(t, rng);
            ring.push(s);
            ref.push(s);
            if (rng.bernoulli(0.01)) {
                ring = roundTrip(ring);
                ++restores;
            }
            if (op % 7 == 0)
                expectEqual(ring, ref);
        }
        expectEqual(ring, ref);
        EXPECT_GT(restores, 10) << "capacity " << cap;
    }
}

TEST(SampleRing, MatchesNaiveReferenceUnderChurn)
{
    churnAgainstReference<KeyedSeriesRing, KeyedSample>(
        [](SimTime t, Rng &rng) {
            return KeyedSample{
                t, static_cast<float>(rng.uniform(0.0, 5000.0))};
        });
    churnAgainstReference<ServerSeriesRing, ServerSample>(
        [](SimTime t, Rng &) { return serverSampleAt(t); });
}

TEST(SampleRing, EvictsOldestAtCapacity)
{
    KeyedSeriesRing ring(8);
    for (SimTime t = 0; t < 20; ++t)
        ring.push({t, static_cast<float>(t)});
    EXPECT_EQ(ring.size(), 8u);
    EXPECT_EQ(ring.front().time, 12);
    EXPECT_EQ(ring.back().time, 19);
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

/** An empty ring, a growing one (one chunk) and a wrapped one
 *  (head != 0, both chunks non-empty). */
std::vector<ServerSeriesRing>
checkpointRings()
{
    std::vector<ServerSeriesRing> rings(3, ServerSeriesRing(8));
    for (SimTime t = 0; t < 5; ++t)
        rings[1].push(serverSampleAt(t * 600));
    for (SimTime t = 0; t < 13; ++t)
        rings[2].push(serverSampleAt(t * 600 + (t > 9 ? 900 : 0)));
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
