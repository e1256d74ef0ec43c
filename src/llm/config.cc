#include "llm/config.hh"

#include <cstdint>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace tapas {

std::string
InstanceConfig::label() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s/%s/TP%d/B%d/F%.2f",
                  modelSizeName(model), quantizationName(quant),
                  tensorParallel, maxBatchSize, freqFrac);
    return buf;
}

std::size_t
InstanceConfigHash::operator()(const InstanceConfig &c) const
{
    // SplitMix64-style mix over the packed discrete knobs plus the
    // bit pattern of the frequency fraction.
    std::uint64_t h = static_cast<std::uint64_t>(c.model);
    h = h * 31 + static_cast<std::uint64_t>(c.quant);
    h = h * 31 + static_cast<std::uint64_t>(c.tensorParallel);
    h = h * 31 + static_cast<std::uint64_t>(c.maxBatchSize);
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(c.freqFrac));
    std::memcpy(&bits, &c.freqFrac, sizeof(bits));
    h ^= bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    return static_cast<std::size_t>(h);
}

const std::vector<int> &
ConfigSpace::tpDegrees()
{
    static const std::vector<int> degrees = {2, 4, 8};
    return degrees;
}

const std::vector<int> &
ConfigSpace::batchSizes()
{
    static const std::vector<int> sizes = {1, 4, 16, 64};
    return sizes;
}

const std::vector<double> &
ConfigSpace::freqSteps()
{
    static const std::vector<double> steps = {0.6, 0.7, 0.8, 0.9, 1.0};
    return steps;
}

bool
ConfigSpace::memoryFeasible(const InstanceConfig &config,
                            const ServerSpec &spec)
{
    return kvHeadroomFraction(config, spec) >= 0.2;
}

double
ConfigSpace::kvHeadroomFraction(const InstanceConfig &config,
                                const ServerSpec &spec)
{
    tapas_assert(config.tensorParallel >= 1 &&
                 config.tensorParallel <= spec.gpusPerServer,
                 "TP degree %d out of range", config.tensorParallel);
    const double group_hbm =
        spec.hbmGb * static_cast<double>(config.tensorParallel);
    const double weights = modelWeightsGb(config.model, config.quant);
    return (group_hbm - weights) / group_hbm;
}

std::vector<InstanceConfig>
ConfigSpace::enumerate(const ServerSpec &spec)
{
    std::vector<InstanceConfig> out;
    for (ModelSize model : kAllModelSizes) {
        for (Quantization quant : kAllQuantizations) {
            for (int tp : tpDegrees()) {
                for (int batch : batchSizes()) {
                    for (double freq : freqSteps()) {
                        InstanceConfig config;
                        config.model = model;
                        config.quant = quant;
                        config.tensorParallel = tp;
                        config.maxBatchSize = batch;
                        config.freqFrac = freq;
                        if (memoryFeasible(config, spec))
                            out.push_back(config);
                    }
                }
            }
        }
    }
    return out;
}

} // namespace tapas
