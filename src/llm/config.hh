/**
 * @file
 * Instance configuration: the five knobs the paper's Table 1 studies
 * (model size, quantization, tensor parallelism, batch size, GPU
 * frequency), plus feasibility checks and config-space enumeration.
 */

#ifndef TAPAS_LLM_CONFIG_HH
#define TAPAS_LLM_CONFIG_HH

#include <string>
#include <vector>

#include "dcsim/specs.hh"
#include "llm/model.hh"

namespace tapas {

/** One complete configuration of an LLM inference instance. */
struct InstanceConfig
{
    ModelSize model = ModelSize::B70;
    Quantization quant = Quantization::FP16;
    /** Tensor-parallel degree: GPUs cooperating per instance. */
    int tensorParallel = 8;
    /** Continuous-batching admission limit. */
    int maxBatchSize = 64;
    /** GPU clock as a fraction of max boost. */
    double freqFrac = 1.0;

    bool operator==(const InstanceConfig &) const = default;

    /** "70B/FP16/TP8/B64/F1.00" style label. */
    std::string label() const;

    /**
     * True if switching from @p from requires a model reload
     * (model size, quantization, or parallelism changed). Frequency
     * and batch-size changes apply instantly.
     */
    bool
    requiresReload(const InstanceConfig &from) const
    {
        return model != from.model || quant != from.quant ||
            tensorParallel != from.tensorParallel;
    }
};

/** Hash for InstanceConfig (profile caches and lookup tables). */
struct InstanceConfigHash
{
    std::size_t operator()(const InstanceConfig &c) const;
};

/** Enumeration and feasibility rules for the config space. */
class ConfigSpace
{
  public:
    /** Tensor-parallel degrees compatible with the KV-head counts. */
    static const std::vector<int> &tpDegrees();

    /** Batch-size steps. */
    static const std::vector<int> &batchSizes();

    /** Frequency steps (fractions of max clock). */
    static const std::vector<double> &freqSteps();

    /**
     * Whether weights fit in the TP group's HBM with working-set
     * headroom for KV cache and activations.
     */
    static bool memoryFeasible(const InstanceConfig &config,
                               const ServerSpec &spec);

    /** All memory-feasible configurations on the given server. */
    static std::vector<InstanceConfig>
    enumerate(const ServerSpec &spec);

    /** Fraction of HBM left for KV cache after loading weights. */
    static double kvHeadroomFraction(const InstanceConfig &config,
                                     const ServerSpec &spec);
};

} // namespace tapas

#endif // TAPAS_LLM_CONFIG_HH
