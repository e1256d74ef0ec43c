/**
 * @file
 * Analytic LLM performance/power model (paper Section 3.3).
 *
 * Prefill is modeled compute-bound (throughput scales with TFLOPs,
 * frequency, TP width and quantization speedup); decode is modeled
 * memory-bound (a batched decode step streams the weights once plus
 * per-sequence KV state, so step time is affine in batch size). Phase
 * power and memory-boundedness follow the characterization in
 * Figs. 15-16:
 *
 *  - lower TP concentrates work: whole-server power drops but
 *    per-GPU power (and thus the hottest GPU's temperature) rises;
 *  - smaller batches cut power but raise the decode memory-bound
 *    fraction (more per-token fetch overhead heats HBM);
 *  - smaller/quantized models cut both power and quality;
 *  - lower frequency cuts power superlinearly at a modest
 *    performance cost, with no quality impact.
 *
 * Goodput = tokens/s sustainable within TTFT/TBT SLOs, the paper's
 * definition (SLO = 5x execution time on an unloaded system).
 */

#ifndef TAPAS_LLM_PERF_HH
#define TAPAS_LLM_PERF_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/units.hh"
#include "dcsim/specs.hh"
#include "llm/config.hh"

namespace tapas {

/**
 * Latency SLOs for an endpoint. The paper defines SLOs as 5x the
 * execution time on an unloaded system; TTFT therefore scales with
 * the request's prompt length (floored at the reference-prompt
 * anchor so tiny prompts are not impossible to serve).
 */
struct SloSpec
{
    /** TTFT anchor for the reference prompt, seconds. */
    double ttftS = 0.0;
    /** TBT bound, seconds per output token. */
    double tbtS = 0.0;
    /** TTFT seconds per prompt token (5 / reference prefill rate). */
    double ttftPerPromptTokenS = 0.0;

    /** Effective TTFT SLO for a given prompt length. */
    double
    ttftSloFor(int prompt_tokens) const
    {
        return std::max(ttftS,
                        ttftPerPromptTokenS * prompt_tokens);
    }
};

/** Request-mix assumptions used for capacity computations. */
struct RequestMix
{
    double promptTokens = 512.0;
    double outputTokens = 128.0;

    double prefillFraction() const
    { return promptTokens / (promptTokens + outputTokens); }
    double decodeFraction() const
    { return outputTokens / (promptTokens + outputTokens); }
};

/** Hardware/efficiency constants of the analytic model. */
struct PerfParams
{
    /** Dense FP16 TFLOPs of one GPU at max clock. */
    double gpuTflops = 312.0;
    /** HBM bandwidth of one GPU, TB/s. */
    double hbmTbPerS = 1.94;
    /** Model FLOPs utilization achieved in prefill. */
    double prefillMfu = 0.55;
    /** Memory bandwidth utilization achieved in decode. */
    double decodeMbu = 0.55;
    /** KV bytes streamed per sequence per decode step, FP16. */
    double kvBytesPerSeq = 0.33e6 * 576.0;
    /** Exponent for frequency's effect on dynamic power. */
    double freqPowerExponent = 2.4;
    RequestMix mix;

    /** Defaults tuned per SKU. */
    static PerfParams forSku(GpuSku sku);
};

/** Per-phase operating point of one configuration. */
struct PhaseProfile
{
    /** Phase-saturated throughput, tokens/s (prefill) — see below. */
    double throughputTps = 0.0;
    /** Per-active-GPU power when this phase saturates the GPU. */
    Watts gpuPower{0.0};
    /** Fraction of traffic that is memory-system-bound. */
    double memBoundFrac = 0.0;
};

/** Complete derived profile of one instance configuration. */
struct ConfigProfile
{
    InstanceConfig config;

    PhaseProfile prefill;
    PhaseProfile decode;

    /** Decode step time components: tau(B) = weightS + kvS * B. */
    double decodeWeightS = 0.0;
    double decodeKvS = 0.0;

    /** GPUs used by the instance (= TP degree). */
    int activeGpus = 0;

    /** Output quality in [0,1]. */
    double quality = 0.0;

    /** Unloaded time to first token for the reference prompt. */
    double unloadedTtftS = 0.0;
    /** Unloaded time between tokens at batch 1. */
    double unloadedTbtS = 0.0;

    /**
     * Aggregate token capacity (prefill+decode interleaved on the
     * same GPUs) at the configured max batch, tokens/s.
     */
    double capacityTps = 0.0;

    /** Max tokens/s sustainable within the given SLOs. */
    double goodputTps = 0.0;

    /**
     * Cached decode GPU power at batch 1 and at the configured max
     * batch — the two endpoints the operating-point solver hits on
     * almost every evaluation (sub-saturated decode pins batch to
     * 1; saturated decode clamps to the max). Negative = not
     * precomputed; PerfModel falls back to the full formula.
     */
    double decodePowerBatch1W = -1.0;
    double decodePowerBatchMaxW = -1.0;

    /** Decode throughput at batch size b: b / tau(b). */
    double decodeTpsAt(int b) const;
};

/** Derives ConfigProfiles and server-power estimates. */
class PerfModel
{
  public:
    PerfModel(const ServerSpec &spec, const PerfParams &params,
              const SloSpec &slo);

    PerfModel(const PerfModel &other);
    PerfModel &operator=(const PerfModel &other);

    /**
     * Convenience: model with the paper's SLO definition — 5x the
     * unloaded latencies of the reference (largest) configuration.
     */
    static PerfModel withReferenceSlo(const ServerSpec &spec,
                                      const PerfParams &params,
                                      double slo_factor = 5.0);

    const ServerSpec &spec() const { return hwSpec; }
    const PerfParams &params() const { return perfParams; }
    const SloSpec &slo() const { return sloSpec; }

    /**
     * Derive the full profile of one configuration. Memoized: the
     * config space is small and profiles are pure functions of the
     * config, so repeated queries hit a cache keyed on the config.
     * Safe to call concurrently (the cache is internally locked).
     */
    ConfigProfile profile(const InstanceConfig &config) const;

    /** Profile cache hits so far (perf counters for tests/benches). */
    std::uint64_t
    profileCacheHits() const
    {
        // Counters mutate under cacheMutex (profile() hot path);
        // reading them unlocked here was a latent data race the
        // thread-safety annotations now reject.
        MutexLock lock(cacheMutex);
        return cacheHits;
    }
    /** Profile cache misses so far. */
    std::uint64_t
    profileCacheMisses() const
    {
        MutexLock lock(cacheMutex);
        return cacheMisses;
    }

    /** Profiles for every feasible configuration. */
    std::vector<ConfigProfile> allProfiles() const;

    /**
     * Estimated whole-server power when this instance runs at the
     * given utilization (busy fraction) with the standard request
     * mix. Inactive GPUs idle.
     */
    Watts estimateServerPower(const ConfigProfile &profile,
                              double utilization) const;

    /** Per-active-GPU power at a utilization with the standard mix. */
    Watts estimateGpuPower(const ConfigProfile &profile,
                           double utilization) const;

    /** Traffic-weighted memory-bound fraction at the standard mix. */
    double mixMemBoundFrac(const ConfigProfile &profile) const;

    /**
     * Steady-state operating point of an instance serving a token
     * demand: continuous batching keeps decode running at a small
     * batch whenever work exists, so busy time saturates quickly
     * while power tracks the (low) batch intensity.
     */
    struct OperatingPoint
    {
        /** GPU busy fraction (prefill + decode share). */
        double busyFrac = 0.0;
        /** Share of busy time spent prefilling. */
        double prefillShare = 0.0;
        /** Steady decode batch size. */
        double decodeBatch = 0.0;
        /** Mean per-active-GPU power. */
        Watts gpuPower{0.0};
        /** Whole-server power (inactive GPUs idle). */
        Watts serverPower{0.0};
    };

    // ------------------------------------------------------------
    // Batched operating-point solver.
    //
    // Packed spans of (profile, demand_tps) in, caller-owned
    // OperatingPoint spans out. The solve body is restructured
    // branch-free (the sub-saturated/saturated decode split becomes
    // select/clamp arithmetic over chunked stride-1 arrays) so the
    // autovectorizer gets through; only the rare mid-range decode
    // batch falls back to the scalar power formula per lane.
    // Results are bit-identical to the scalar reference solve in
    // tests/llm/op_oracle.hh in the default FP mode
    // (-ffp-contract=off pins this even under -march=native).
    // ------------------------------------------------------------

    /** Batched full solve over per-lane profile pointers (lanes may
     *  mix configs, e.g. per-VM engines or candidate blocks). */
    void operatingPointBatch(const ConfigProfile *const *profiles,
                             const double *demand_tps, std::size_t n,
                             OperatingPoint *out) const;

    /** Batched GPU-only solve (serverPower left 0). */
    void operatingGpuPointBatch(const ConfigProfile *const *profiles,
                                const double *demand_tps,
                                std::size_t n,
                                OperatingPoint *out) const;

    /** Decode per-GPU power at an arbitrary running batch size. */
    Watts decodeGpuPowerAt(const ConfigProfile &profile,
                           double batch) const;

    /** Whole-server power from GPU draw (chassis + fans on heat). */
    Watts serverPowerFromGpu(double active_gpu_w, int active_gpus,
                             double prefill_share) const;

    /**
     * Pareto frontier over (goodput up, metric down). @p use_power
     * selects per-server power as the metric; otherwise the hottest
     * GPU's power (temperature proxy) is used.
     */
    static std::vector<ConfigProfile>
    paretoFrontier(const std::vector<ConfigProfile> &profiles,
                   bool use_power);

    /** TP communication efficiency factor. */
    static double tpEfficiency(int tp);

    /** Per-GPU power concentration factor (lower TP -> hotter GPU). */
    static double perGpuPowerFactor(int tp);

  private:
    ServerSpec hwSpec;
    PerfParams perfParams;
    SloSpec sloSpec;

    /** Uncached profile derivation (the actual analytic model). */
    ConfigProfile computeProfile(const InstanceConfig &config) const;

    /** Lanes per chunk of the batched solve (stack-resident SoA). */
    static constexpr std::size_t kOpChunk = 32;

    /**
     * One chunk (<= kOpChunk lanes) of the branch-free batched
     * operating-point solve; the shared kernel behind both batch
     * entry points. @p server_power selects the full solve (inlined
     * serverPowerFromGpu arithmetic) versus the GPU-only variant.
     */
    void solveOpChunk(const ConfigProfile *const *profiles,
                      const double *demand_tps, std::size_t m,
                      OperatingPoint *out, bool server_power) const;

    /** Chunked dispatch over pointer lanes. */
    void solveOpBatch(const ConfigProfile *const *profiles,
                      const double *demand_tps, std::size_t n,
                      OperatingPoint *out, bool server_power) const;

    mutable Mutex cacheMutex;
    mutable std::unordered_map<InstanceConfig, ConfigProfile,
                               InstanceConfigHash>
        profileCache TAPAS_GUARDED_BY(cacheMutex);
    mutable std::uint64_t cacheHits TAPAS_GUARDED_BY(cacheMutex) = 0;
    mutable std::uint64_t cacheMisses TAPAS_GUARDED_BY(cacheMutex) =
        0;
};

/** The reference configuration the paper's SLOs anchor on. */
InstanceConfig referenceConfig();

} // namespace tapas

#endif // TAPAS_LLM_PERF_HH
