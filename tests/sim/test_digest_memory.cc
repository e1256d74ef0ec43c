/**
 * @file
 * stateDigest() hashes the checkpoint stream without a copy of it,
 * saveCheckpoint() writes it through one window, and
 * restoreCheckpoint() streams the file without a buffer the size of
 * it: no allocation made while any of them runs may be as large as
 * the telemetry section, not even for a damaged ring count, and none
 * made by a save is larger than the window. A binary of
 * its own, because it replaces the global allocation functions to see
 * every allocation's size.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "common/serialize.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"
#include "telemetry/history.hh"

namespace {

std::atomic<bool> recording{false};
std::atomic<std::size_t> largest{0};

void *
allocate(std::size_t n)
{
    if (recording.load(std::memory_order_relaxed)) {
        std::size_t seen = largest.load(std::memory_order_relaxed);
        while (n > seen &&
               !largest.compare_exchange_weak(seen, n,
                                              std::memory_order_relaxed))
        {
        }
    }
    return std::malloc(n ? n : 1);
}

} // namespace

// Every replaceable non-aligned form, so each pointer is freed by
// the family that allocated it (sanitizer builds check that).
void *
operator new(std::size_t n)
{
    if (void *p = allocate(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace tapas {
namespace {

/** The ring-heavy case of test_checkpoint.cc: six hours of
 *  retention over a simulated day, every server ring wrapped. */
SimConfig
ringHeavyConfig()
{
    SimConfig cfg = faultDrillScenario(323).asTapas();
    cfg.telemetryRetention = 6 * kHour;
    return cfg;
}

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** Section 3 is the telemetry section (src/sim/checkpoint.cc). */
constexpr std::uint32_t kTelemetrySection = 3;

std::size_t
telemetryBytes(const CheckpointData &data)
{
    const CheckpointSection *telemetry = data.find(kTelemetrySection);
    return telemetry ? telemetry->payload.size() : 0;
}

/** Run @p largest's recording around @p fn. */
template <typename Fn>
void
recorded(Fn fn)
{
    largest = 0;
    recording = true;
    fn();
    recording = false;
}

TEST(DigestMemory, StateDigestAllocatesLessThanTheRingSection)
{
    const SimConfig cfg = ringHeavyConfig();
    ClusterSim sim(cfg);
    sim.runSteps(static_cast<int>(kDay / cfg.stepLength));

    const std::string path = tmpPath("digest_memory.tapasckp");
    ASSERT_TRUE(sim.saveCheckpoint(path).ok());
    Result<CheckpointData> data = readCheckpointFile(path);
    removeFileIfExists(path);
    ASSERT_TRUE(data.ok());
    const std::size_t telemetry_bytes = telemetryBytes(data.value());
    ASSERT_GT(telemetry_bytes, 4 * DigestWriter::kBlockBytes);

    recorded([&] { sim.stateDigest(); });
    EXPECT_LT(largest.load(), telemetry_bytes)
        << "the digest copied the stream it hashes";
}

TEST(CheckpointMemory, RestoreAllocatesLessThanTheRingSection)
{
    const SimConfig cfg = ringHeavyConfig();
    ClusterSim sim(cfg);
    sim.runSteps(static_cast<int>(kDay / cfg.stepLength));

    const std::string path = tmpPath("restore_memory.tapasckp");
    ASSERT_TRUE(sim.saveCheckpoint(path).ok());
    Result<CheckpointData> data = readCheckpointFile(path);
    ASSERT_TRUE(data.ok());
    const std::size_t telemetry_bytes = telemetryBytes(data.value());
    // Else the reader's window could not be told from a buffer the
    // size of the section.
    ASSERT_GT(telemetry_bytes, CheckpointReader::kWindowBytes);

    ClusterSim restored(cfg);
    Error err;
    recorded([&] { err = restored.restoreCheckpoint(path); });
    removeFileIfExists(path);
    ASSERT_TRUE(err.ok()) << err.message();
    EXPECT_EQ(restored.stateDigest(), sim.stateDigest());
    EXPECT_LT(largest.load(), telemetry_bytes)
        << "the restore buffered the file it reads";
}

TEST(CheckpointMemory, SaveAllocatesLessThanTheRingSection)
{
    // A week of the ring-heavy case: the metrics' samples alone fill
    // several windows, so a save that buffered its small fields would
    // allocate past the window.
    SimConfig cfg = ringHeavyConfig();
    cfg.horizon = kWeek;
    ClusterSim sim(cfg);
    sim.runSteps(static_cast<int>(cfg.horizon / cfg.stepLength));

    const std::string path = tmpPath("save_memory.tapasckp");
    Error err;
    recorded([&] { err = sim.saveCheckpoint(path); });
    const std::size_t save_largest = largest.load();
    ASSERT_TRUE(err.ok()) << err.message();
    Result<CheckpointData> data = readCheckpointFile(path);
    removeFileIfExists(path);
    ASSERT_TRUE(data.ok());
    std::size_t small_bytes = 0;
    for (const CheckpointSection &section : data.value().sections) {
        if (section.id != kTelemetrySection)
            small_bytes += section.payload.size();
    }
    ASSERT_GT(small_bytes, 3 * CheckpointReader::kWindowBytes);
    ASSERT_GT(telemetryBytes(data.value()), CheckpointReader::kWindowBytes);
    EXPECT_LE(save_largest, CheckpointReader::kWindowBytes)
        << "the save buffered the fields it writes";
}

TEST(CheckpointMemory, DamagedRingCountsAllocateLessThanTheirFrame)
{
    // CRC-valid files whose telemetry section overstates a count: the
    // telemetry decodes before its frame CRC is checked, so each
    // count must be bounded by the frame's bytes and its elements'
    // wire size. The restore fails as Corrupt without a resize of the
    // claimed size, and the sim stays as it was.
    const SimConfig cfg = ringHeavyConfig();
    ClusterSim sim(cfg);
    sim.runSteps(static_cast<int>(kDay / cfg.stepLength));
    const std::string path = tmpPath("damaged_count.tapasckp");
    ASSERT_TRUE(sim.saveCheckpoint(path).ok());
    Result<CheckpointData> saved = readCheckpointFile(path);
    ASSERT_TRUE(saved.ok());
    const std::size_t telemetry_bytes = telemetryBytes(saved.value());

    // The telemetry payload leads with the store's capacity and the
    // server ring count; the first ring's capacity and sample count
    // follow (u64 each), its samples 48 bytes in. The file holds
    // after_run bytes from there.
    std::size_t after_run = telemetry_bytes - 48 + 4;
    bool past = false;
    for (const CheckpointSection &section : saved.value().sections) {
        if (past)
            after_run += 16 + section.payload.size();
        past = past || section.id == kTelemetrySection;
    }
    // More samples than the frame holds, fewer than the file does.
    const std::uint64_t samples =
        (telemetry_bytes + after_run) / 2 / sizeof(ServerSample);
    ASSERT_GT(samples * sizeof(ServerSample), telemetry_bytes);
    ASSERT_LT(samples * sizeof(ServerSample), after_run);
    // More server rings than the frame holds ring headers, though
    // fewer than its bytes.
    const std::uint64_t rings = telemetry_bytes / 2;

    struct Damage
    {
        const char *what;
        std::size_t at;
        std::uint64_t value;
    };
    for (const Damage &damage :
         {Damage{"ring sample count", 24, samples},
          Damage{"server ring count", 8, rings}}) {
        CheckpointData data = saved.value();
        CheckpointWriter writer(path, data.configDigest);
        for (CheckpointSection &section : data.sections) {
            if (section.id == kTelemetrySection) {
                std::memcpy(section.payload.data() + damage.at,
                            &damage.value, sizeof damage.value);
                // The capacity must admit the count it carries.
                if (damage.at == 24)
                    std::memcpy(section.payload.data() + 16,
                                &damage.value, sizeof damage.value);
            }
            writer.section(section.id, [&section](Archive &ar) {
                ar.bytes(section.payload.data(), section.payload.size());
            });
        }
        ASSERT_TRUE(writer.commit().ok());

        ClusterSim victim(cfg);
        Error err;
        recorded([&] { err = victim.restoreCheckpoint(path); });
        EXPECT_LT(largest.load(), telemetry_bytes)
            << "a damaged " << damage.what
            << " drove a resize past its frame";
        ASSERT_FALSE(err.ok()) << damage.what;
        EXPECT_EQ(err.code(), ErrorCode::Corrupt) << damage.what;
        ClusterSim fresh(cfg);
        EXPECT_EQ(victim.stateDigest(), fresh.stateDigest())
            << damage.what;
    }
    removeFileIfExists(path);
}

} // namespace
} // namespace tapas
