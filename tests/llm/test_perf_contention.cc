/**
 * @file
 * Contention smoke test for the PerfModel's one lock domain, the
 * profile cache (cacheMutex). Shared-pool workers hammer profile()
 * and the batched operatingPointBatch() concurrently while a driver
 * thread reads the cache counters. Functionally it pins that results
 * under contention match a serial reference; its real teeth are the
 * TSan leg of scripts/check.sh, where any lock-discipline regression
 * in perf.cc surfaces as a reported race.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/threadpool.hh"
#include "llm/perf.hh"

namespace tapas {
namespace {

PerfModel
makeModel()
{
    return PerfModel::withReferenceSlo(
        ServerSpec::a100(), PerfParams::forSku(GpuSku::A100));
}

TEST(PerfContention, ConcurrentProfileAndBatchSolvesMatchSerial)
{
    const PerfModel perf = makeModel();

    // Serial reference on an identical model: the batch solves below
    // must reproduce these bit for bit while other workers contend
    // on the profile cache. The profile space comes from the
    // reference so perf's cache counters start at an accountable
    // baseline.
    const PerfModel reference = makeModel();
    const std::vector<ConfigProfile> space =
        reference.allProfiles();
    ASSERT_FALSE(space.empty());
    const std::size_t lanes = space.size();
    std::vector<const ConfigProfile *> ptrs(lanes);
    std::vector<double> demands(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
        ptrs[i] = &space[i];
        demands[i] =
            space[i].goodputTps * (0.25 + 0.5 * double(i % 3));
    }
    std::vector<PerfModel::OperatingPoint> expected(lanes);
    reference.operatingPointBatch(ptrs.data(), demands.data(), lanes,
                                  expected.data());

    ThreadPool &pool = ThreadPool::shared();
    const std::uint64_t baseCalls =
        perf.profileCacheHits() + perf.profileCacheMisses();
    constexpr std::size_t kRounds = 64;
    std::vector<int> mismatches(kRounds, 0);
    pool.parallelFor(kRounds, [&](std::size_t round) {
        // Exact batch solve, concurrent with the profile() lookups
        // below.
        std::vector<PerfModel::OperatingPoint> got(lanes);
        perf.operatingPointBatch(ptrs.data(), demands.data(), lanes,
                                 got.data());
        int bad = 0;
        for (std::size_t i = 0; i < lanes; ++i) {
            if (got[i].busyFrac != expected[i].busyFrac ||
                got[i].gpuPower.value() !=
                    expected[i].gpuPower.value() ||
                got[i].serverPower.value() !=
                    expected[i].serverPower.value()) {
                ++bad;
            }
        }
        // profile() contends on cacheMutex: every round queries the
        // whole space, so hits and misses interleave across workers.
        for (std::size_t i = 0; i < lanes; ++i) {
            const ConfigProfile p =
                perf.profile(space[(i + round) % lanes].config);
            if (!(p.capacityTps > 0.0))
                ++bad;
        }
        mismatches[round] = bad;
    });

    for (std::size_t round = 0; round < kRounds; ++round)
        EXPECT_EQ(mismatches[round], 0) << "round " << round;

    // Counter accounting stays exact under contention: every
    // profile() call above is either a hit or a miss.
    EXPECT_EQ(perf.profileCacheHits() + perf.profileCacheMisses(),
              baseCalls + kRounds * lanes);
}

TEST(PerfContention, CounterReadsRaceWithWorkers)
{
    const PerfModel perf = makeModel();
    const std::vector<InstanceConfig> space =
        ConfigSpace::enumerate(perf.spec());
    ASSERT_FALSE(space.empty());

    // Reads of the locked counter accessors from the driver while
    // workers mutate the cache: TSan validates the accessors really
    // take cacheMutex (the pre-annotation code read them bare).
    ThreadPool &pool = ThreadPool::shared();
    const std::uint64_t base =
        perf.profileCacheHits() + perf.profileCacheMisses();
    pool.parallelFor(32, [&](std::size_t i) {
        perf.profile(space[i % space.size()]);
        // Unsynchronized-by-design driver-style read from a worker;
        // safe because the accessors lock cacheMutex internally.
        (void)perf.profileCacheHits();
    });
    const std::uint64_t observed =
        perf.profileCacheHits() + perf.profileCacheMisses();
    EXPECT_EQ(observed, base + 32u);
}

} // namespace
} // namespace tapas
