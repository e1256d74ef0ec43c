/**
 * @file
 * stateDigest() hashes the checkpoint stream without a copy of it:
 * no allocation made while it runs may be as large as the telemetry
 * section it hashes. A binary of its own, because it replaces the
 * global allocation functions to see every allocation's size.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "common/serialize.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"

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

TEST(DigestMemory, StateDigestAllocatesLessThanTheRingSection)
{
    // The ring-heavy case of test_checkpoint.cc: six hours of
    // retention over a simulated day, every server ring wrapped.
    SimConfig cfg = faultDrillScenario(323).asTapas();
    cfg.telemetryRetention = 6 * kHour;
    ClusterSim sim(cfg);
    sim.runSteps(static_cast<int>(kDay / cfg.stepLength));

    const std::string path =
        std::string(::testing::TempDir()) + "digest_memory.tapasckp";
    ASSERT_TRUE(sim.saveCheckpoint(path).ok());
    Result<CheckpointData> data = readCheckpointFile(path);
    removeFileIfExists(path);
    ASSERT_TRUE(data.ok());
    // Section 3 is the telemetry section (src/sim/checkpoint.cc).
    const CheckpointSection *telemetry = data.value().find(3);
    ASSERT_NE(telemetry, nullptr);
    const std::size_t telemetry_bytes = telemetry->payload.size();
    ASSERT_GT(telemetry_bytes, 4 * DigestWriter::kBlockBytes);

    largest = 0;
    recording = true;
    sim.stateDigest();
    recording = false;
    EXPECT_LT(largest.load(), telemetry_bytes)
        << "the digest copied the stream it hashes";
}

} // namespace
} // namespace tapas
