/**
 * @file
 * Equivalence suite for the batched operating-point solver: the
 * branch-free batch entry points must reproduce the scalar solves
 * bit for bit across every configuration profile and every demand
 * regime (zero, sub-saturated, saturated, clamped-batch), in the
 * default FP mode (-ffp-contract=off pins per-operation IEEE
 * semantics even under -march=native).
 */

#include <gtest/gtest.h>

#include <vector>

#include "llm/op_oracle.hh"
#include "llm/perf.hh"

namespace tapas {
namespace {

PerfModel
makeModel()
{
    return PerfModel::withReferenceSlo(
        ServerSpec::a100(), PerfParams::forSku(GpuSku::A100));
}

/**
 * Demand grid stressing every solver regime for one profile:
 * negative and zero demand, deep sub-saturation (batch 1), points
 * around the saturation boundary, the goodput/capacity band, and
 * demands large enough to clamp the decode batch at its max.
 */
std::vector<double>
demandGridFor(const ConfigProfile &p)
{
    const double anchor =
        p.goodputTps > 0.0 ? p.goodputTps : p.capacityTps;
    std::vector<double> grid = {-5.0, 0.0, 1e-6, 0.01, 0.1, 1.0};
    for (const double frac :
         {0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.2, 1.5,
          2.0, 4.0, 16.0, 256.0}) {
        grid.push_back(anchor * frac);
    }
    return grid;
}

void
expectPointsIdentical(const PerfModel::OperatingPoint &batch,
                      const PerfModel::OperatingPoint &scalar,
                      const ConfigProfile &p, double demand)
{
    const std::string at =
        p.config.label() + " @ " + std::to_string(demand);
    EXPECT_EQ(batch.busyFrac, scalar.busyFrac) << at;
    EXPECT_EQ(batch.prefillShare, scalar.prefillShare) << at;
    EXPECT_EQ(batch.decodeBatch, scalar.decodeBatch) << at;
    EXPECT_EQ(batch.gpuPower.value(), scalar.gpuPower.value()) << at;
    EXPECT_EQ(batch.serverPower.value(), scalar.serverPower.value())
        << at;
}

TEST(PerfOpBatch, PointerLanesBitIdenticalToScalarAllProfiles)
{
    const PerfModel model = makeModel();
    const std::vector<ConfigProfile> profiles = model.allProfiles();
    ASSERT_FALSE(profiles.empty());

    for (const ConfigProfile &p : profiles) {
        const std::vector<double> demands = demandGridFor(p);
        std::vector<const ConfigProfile *> lanes(demands.size(), &p);
        std::vector<PerfModel::OperatingPoint> full(demands.size());
        std::vector<PerfModel::OperatingPoint> gpu(demands.size());
        model.operatingPointBatch(lanes.data(), demands.data(),
                                  demands.size(), full.data());
        model.operatingGpuPointBatch(lanes.data(), demands.data(),
                                     demands.size(), gpu.data());
        for (std::size_t i = 0; i < demands.size(); ++i) {
            expectPointsIdentical(
                full[i], operatingPointAt(model, p, demands[i]), p,
                demands[i]);
            expectPointsIdentical(
                gpu[i], operatingGpuPointAt(model, p, demands[i]), p,
                demands[i]);
        }
    }
}

TEST(PerfOpBatch, MixedProfileLanesBitIdentical)
{
    const PerfModel model = makeModel();
    const std::vector<ConfigProfile> profiles = model.allProfiles();
    ASSERT_GT(profiles.size(), 1u);

    // Interleave every profile against a shared demand grid so one
    // batch call mixes regimes and configs across its chunks.
    std::vector<const ConfigProfile *> lanes;
    std::vector<double> demands;
    const std::vector<double> shared =
        demandGridFor(profiles.front());
    for (std::size_t d = 0; d < shared.size(); ++d) {
        for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
            lanes.push_back(&profiles[pi]);
            demands.push_back(shared[d] * (1.0 + 0.013 * pi));
        }
    }

    std::vector<PerfModel::OperatingPoint> full(lanes.size());
    std::vector<PerfModel::OperatingPoint> gpu(lanes.size());
    model.operatingPointBatch(lanes.data(), demands.data(),
                              lanes.size(), full.data());
    model.operatingGpuPointBatch(lanes.data(), demands.data(),
                                 lanes.size(), gpu.data());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const ConfigProfile &p = *lanes[i];
        expectPointsIdentical(
            full[i], operatingPointAt(model, p, demands[i]), p,
            demands[i]);
        expectPointsIdentical(
            gpu[i], operatingGpuPointAt(model, p, demands[i]), p,
            demands[i]);
    }
}

TEST(PerfOpBatch, UncachedDecodeEndpointsFallBackIdentically)
{
    const PerfModel model = makeModel();
    // Strip the precomputed decode-power endpoints: the batch kernel
    // must route those lanes through the same full formula the
    // scalar path uses.
    ConfigProfile p = model.profile(referenceConfig());
    p.decodePowerBatch1W = -1.0;
    p.decodePowerBatchMaxW = -1.0;

    const std::vector<double> demands = demandGridFor(p);
    std::vector<const ConfigProfile *> lanes(demands.size(), &p);
    std::vector<PerfModel::OperatingPoint> full(demands.size());
    model.operatingPointBatch(lanes.data(), demands.data(),
                              demands.size(), full.data());
    for (std::size_t i = 0; i < demands.size(); ++i) {
        expectPointsIdentical(
            full[i], operatingPointAt(model, p, demands[i]), p,
            demands[i]);
    }
}

TEST(PerfOpBatch, ChunkBoundariesCoverEveryResidue)
{
    // Lane counts straddling the kernel's internal chunking must all
    // produce the same per-lane answers (no tail mishandling).
    const PerfModel model = makeModel();
    const ConfigProfile p = model.profile(referenceConfig());
    for (const std::size_t n : {1u, 2u, 7u, 31u, 32u, 33u, 64u, 65u,
                                100u}) {
        std::vector<const ConfigProfile *> lanes(n, &p);
        std::vector<double> demands(n);
        for (std::size_t i = 0; i < n; ++i) {
            demands[i] =
                p.goodputTps * 1.3 * static_cast<double>(i) /
                static_cast<double>(n);
        }
        std::vector<PerfModel::OperatingPoint> out(n);
        model.operatingPointBatch(lanes.data(), demands.data(), n,
                                  out.data());
        for (std::size_t i = 0; i < n; ++i) {
            expectPointsIdentical(
                out[i], operatingPointAt(model, p, demands[i]), p,
                demands[i]);
        }
    }
}

} // namespace
} // namespace tapas
