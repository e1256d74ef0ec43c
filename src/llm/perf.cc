#include "llm/perf.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace tapas {

PerfParams
PerfParams::forSku(GpuSku sku)
{
    PerfParams params;
    if (sku == GpuSku::H100) {
        params.gpuTflops = 990.0;
        params.hbmTbPerS = 3.35;
    }
    return params;
}

namespace {

/**
 * Saturated power intensity factors: smaller models keep tensor
 * cores less utilized (lower MFU at small matmul shapes) and
 * reduced-precision kernels move fewer bytes per token, so both
 * draw measurably less power at saturation (paper Fig. 15c and the
 * quantization row of Table 1).
 */
double
sizeIntensityFactor(ModelSize size)
{
    switch (size) {
      case ModelSize::B70:
        return 1.0;
      case ModelSize::B13:
        return 0.93;
      case ModelSize::B7:
        return 0.88;
    }
    return 1.0;
}

double
quantIntensityFactor(Quantization quant)
{
    switch (quant) {
      case Quantization::FP16:
        return 1.0;
      case Quantization::FP8:
        return 0.92;
      case Quantization::INT4:
        return 0.85;
    }
    return 1.0;
}

} // namespace

double
ConfigProfile::decodeTpsAt(int b) const
{
    tapas_assert(b >= 1, "batch size must be positive");
    const double batch = static_cast<double>(b);
    return batch / (decodeWeightS + decodeKvS * batch);
}

InstanceConfig
referenceConfig()
{
    InstanceConfig config;
    config.model = ModelSize::B70;
    config.quant = Quantization::FP16;
    config.tensorParallel = 8;
    config.maxBatchSize = 64;
    config.freqFrac = 1.0;
    return config;
}

PerfModel::PerfModel(const ServerSpec &spec, const PerfParams &params,
                     const SloSpec &slo)
    : hwSpec(spec), perfParams(params), sloSpec(slo)
{
}

PerfModel::PerfModel(const PerfModel &other)
    : hwSpec(other.hwSpec), perfParams(other.perfParams),
      sloSpec(other.sloSpec)
{
    {
        MutexLock lock(other.cacheMutex);
        profileCache = other.profileCache;
        cacheHits = other.cacheHits;
        cacheMisses = other.cacheMisses;
    }
}

PerfModel &
PerfModel::operator=(const PerfModel &other)
{
    if (this == &other)
        return *this;
    MutexLock2 lock(cacheMutex, other.cacheMutex);
    hwSpec = other.hwSpec;
    perfParams = other.perfParams;
    sloSpec = other.sloSpec;
    profileCache = other.profileCache;
    cacheHits = other.cacheHits;
    cacheMisses = other.cacheMisses;
    return *this;
}

PerfModel
PerfModel::withReferenceSlo(const ServerSpec &spec,
                            const PerfParams &params,
                            double slo_factor)
{
    PerfModel unconstrained(spec, params, SloSpec{1e9, 1e9});
    const ConfigProfile ref =
        unconstrained.profile(referenceConfig());
    SloSpec slo;
    slo.ttftS = slo_factor * ref.unloadedTtftS;
    slo.tbtS = slo_factor * ref.unloadedTbtS;
    slo.ttftPerPromptTokenS =
        slo_factor / ref.prefill.throughputTps;
    return PerfModel(spec, params, slo);
}

double
PerfModel::tpEfficiency(int tp)
{
    // All-reduce cost grows with group width.
    return 1.02 - 0.025 * static_cast<double>(tp);
}

double
PerfModel::perGpuPowerFactor(int tp)
{
    // Narrower TP concentrates the same work on fewer GPUs: each one
    // stalls less on communication and burns closer to its envelope.
    return 1.03 - 0.026 * static_cast<double>(tp);
}

ConfigProfile
PerfModel::profile(const InstanceConfig &config) const
{
    {
        MutexLock lock(cacheMutex);
        auto it = profileCache.find(config);
        if (it != profileCache.end()) {
            ++cacheHits;
#ifndef NDEBUG
            // Cross-check: cached profiles must match a recompute.
            const ConfigProfile fresh = computeProfile(config);
            tapas_assert(fresh.goodputTps == it->second.goodputTps &&
                         fresh.capacityTps ==
                             it->second.capacityTps &&
                         fresh.quality == it->second.quality &&
                         fresh.prefill.gpuPower.value() ==
                             it->second.prefill.gpuPower.value() &&
                         fresh.decode.gpuPower.value() ==
                             it->second.decode.gpuPower.value(),
                         "profile cache diverged for %s",
                         config.label().c_str());
#endif
            return it->second;
        }
    }
    ConfigProfile out = computeProfile(config);
    MutexLock lock(cacheMutex);
    ++cacheMisses;
    profileCache.emplace(config, out);
    return out;
}

ConfigProfile
PerfModel::computeProfile(const InstanceConfig &config) const
{
    tapas_assert(ConfigSpace::memoryFeasible(config, hwSpec),
                 "profiling infeasible config %s",
                 config.label().c_str());

    ConfigProfile out;
    out.config = config;
    out.activeGpus = config.tensorParallel;
    out.quality = modelQuality(config.model, config.quant);

    const double params_b = modelParamsB(config.model);
    const double tp = static_cast<double>(config.tensorParallel);
    const double freq = config.freqFrac;
    const double qspeed = quantSpeedup(config.quant);
    const double tp_eff = tpEfficiency(config.tensorParallel);

    // --- Prefill: compute bound. ---
    const double flops_per_token = 2.0 * params_b * 1e9;
    const double group_flops =
        tp * perfParams.gpuTflops * 1e12 * freq * perfParams.prefillMfu;
    out.prefill.throughputTps =
        group_flops * tp_eff * qspeed / flops_per_token;
    out.prefill.memBoundFrac = 0.15;

    // --- Decode: memory bound. tau(B) = weight stream + B * KV. ---
    const double group_bw =
        tp * perfParams.hbmTbPerS * 1e12 * perfParams.decodeMbu;
    // Decode is only mildly clock-sensitive.
    const double decode_freq_factor = 0.7 + 0.3 * freq;
    const double weight_bytes =
        modelWeightsGb(config.model, config.quant) * 1e9;
    const double kv_bytes = perfParams.kvBytesPerSeq *
        (quantBytesPerParam(config.quant) / 2.0 * 0.5 + 0.5);
    out.decodeWeightS =
        weight_bytes / (group_bw * decode_freq_factor);
    out.decodeKvS = kv_bytes / (group_bw * decode_freq_factor);
    out.decode.throughputTps = out.decodeTpsAt(config.maxBatchSize);
    const double batch_frac =
        std::log2(static_cast<double>(config.maxBatchSize)) /
        std::log2(64.0);
    out.decode.memBoundFrac = 0.60 + 0.25 * (1.0 - batch_frac);

    // --- Phase power, per active GPU. ---
    const double span =
        hwSpec.gpuMaxPower.value() - hwSpec.gpuIdlePower.value();
    const double concentration =
        perGpuPowerFactor(config.tensorParallel);
    const double freq_pow =
        std::pow(freq, perfParams.freqPowerExponent);
    const double model_factor = sizeIntensityFactor(config.model) *
        quantIntensityFactor(config.quant);
    const double prefill_intensity = 0.95 * model_factor;
    const double decode_intensity =
        (0.35 + 0.35 * batch_frac) * model_factor;
    out.prefill.gpuPower = Watts(
        hwSpec.gpuIdlePower.value() +
        span * prefill_intensity * concentration * freq_pow);
    out.decode.gpuPower = Watts(
        hwSpec.gpuIdlePower.value() +
        span * decode_intensity * concentration * freq * freq);

    // Precompute the solver's decode-power endpoints with the same
    // formula the fallback path uses (bit-identical fast path).
    out.decodePowerBatch1W = decodeGpuPowerAt(out, 1.0).value();
    out.decodePowerBatchMaxW =
        decodeGpuPowerAt(
            out, static_cast<double>(config.maxBatchSize))
            .value();

    // --- Latency anchors. ---
    out.unloadedTtftS =
        perfParams.mix.promptTokens / out.prefill.throughputTps;
    out.unloadedTbtS = out.decodeWeightS + out.decodeKvS;

    // --- Capacity: phases interleave on the same GPUs. ---
    const double fp = perfParams.mix.prefillFraction();
    const double fd = perfParams.mix.decodeFraction();
    // Largest batch meeting the TBT SLO (decode step = TBT).
    int usable_batch = 0;
    for (int b = 1; b <= config.maxBatchSize; b *= 2) {
        const double step = out.decodeWeightS + out.decodeKvS * b;
        if (step <= sloSpec.tbtS)
            usable_batch = b;
    }
    out.capacityTps = 1.0 /
        (fp / out.prefill.throughputTps +
         fd / out.decode.throughputTps);

    if (usable_batch == 0 || out.unloadedTtftS >= sloSpec.ttftS) {
        out.goodputTps = 0.0;
        return out;
    }
    const double usable_capacity = 1.0 /
        (fp / out.prefill.throughputTps +
         fd / out.decodeTpsAt(usable_batch));
    // M/M/1-style queueing headroom on TTFT.
    const double rho_max =
        std::max(0.0, 1.0 - out.unloadedTtftS / sloSpec.ttftS);
    out.goodputTps = usable_capacity * rho_max;
    return out;
}

std::vector<ConfigProfile>
PerfModel::allProfiles() const
{
    std::vector<ConfigProfile> out;
    for (const InstanceConfig &config :
         ConfigSpace::enumerate(hwSpec)) {
        out.push_back(profile(config));
    }
    return out;
}

double
PerfModel::mixMemBoundFrac(const ConfigProfile &profile) const
{
    // Weight by the share of GPU *time* each phase occupies.
    const double fp = perfParams.mix.prefillFraction();
    const double fd = perfParams.mix.decodeFraction();
    const double t_prefill = fp / profile.prefill.throughputTps;
    const double t_decode = fd / profile.decode.throughputTps;
    const double total = t_prefill + t_decode;
    if (total <= 0.0)
        return 0.0;
    return (profile.prefill.memBoundFrac * t_prefill +
            profile.decode.memBoundFrac * t_decode) / total;
}

Watts
PerfModel::estimateGpuPower(const ConfigProfile &profile,
                            double utilization) const
{
    const double util = std::clamp(utilization, 0.0, 1.0);
    const double fp = perfParams.mix.prefillFraction();
    const double fd = perfParams.mix.decodeFraction();
    const double t_prefill = fp / profile.prefill.throughputTps;
    const double t_decode = fd / profile.decode.throughputTps;
    const double total = t_prefill + t_decode;
    const double busy_power = total > 0.0
        ? (profile.prefill.gpuPower.value() * t_prefill +
           profile.decode.gpuPower.value() * t_decode) / total
        : hwSpec.gpuIdlePower.value();
    return Watts(hwSpec.gpuIdlePower.value() * (1.0 - util) +
                 busy_power * util);
}

Watts
PerfModel::estimateServerPower(const ConfigProfile &profile,
                               double utilization) const
{
    const double util = std::clamp(utilization, 0.0, 1.0);
    const Watts active = estimateGpuPower(profile, util);
    const double idle_gpus =
        static_cast<double>(hwSpec.gpusPerServer - profile.activeGpus);
    const double gpu_total =
        active.value() * profile.activeGpus +
        hwSpec.gpuIdlePower.value() * idle_gpus;
    // Chassis components and fans track the heat the GPUs shed, not
    // busy time: a down-clocked instance really does cool the box.
    const double idle_sum =
        hwSpec.gpuIdlePower.value() * hwSpec.gpusPerServer;
    const double max_sum =
        hwSpec.gpuMaxPower.value() * hwSpec.gpusPerServer;
    const double heat = max_sum > idle_sum
        ? std::clamp((gpu_total - idle_sum) / (max_sum - idle_sum),
                     0.0, 1.0)
        : 0.0;
    double total = hwSpec.chassisIdlePower.value() +
        hwSpec.chassisActivePower.value() * heat + gpu_total;
    const double speed = 0.35 + 0.65 * heat;
    total += hwSpec.fanMaxPower.value() * speed * speed * speed;
    return Watts(total);
}

Watts
PerfModel::decodeGpuPowerAt(const ConfigProfile &profile,
                            double batch) const
{
    // Endpoint fast paths: batch <= 1 evaluates exactly like batch
    // 1 (the log2 term clamps to zero), and the saturated solver
    // clamps to the configured max batch. Both cached values were
    // produced by the formula below, so the shortcut is
    // bit-identical.
    if (batch <= 1.0 && profile.decodePowerBatch1W >= 0.0)
        return Watts(profile.decodePowerBatch1W);
    if (batch ==
            static_cast<double>(profile.config.maxBatchSize) &&
        profile.decodePowerBatchMaxW >= 0.0) {
        return Watts(profile.decodePowerBatchMaxW);
    }
    const double span =
        hwSpec.gpuMaxPower.value() - hwSpec.gpuIdlePower.value();
    const double batch_frac =
        std::log2(std::max(1.0, batch)) / std::log2(64.0);
    const double intensity =
        (0.35 + 0.35 * std::clamp(batch_frac, 0.0, 1.0)) *
        sizeIntensityFactor(profile.config.model) *
        quantIntensityFactor(profile.config.quant);
    const double concentration =
        perGpuPowerFactor(profile.config.tensorParallel);
    const double freq_pow =
        profile.config.freqFrac * profile.config.freqFrac;
    return Watts(hwSpec.gpuIdlePower.value() +
                 span * intensity * concentration * freq_pow);
}

Watts
PerfModel::serverPowerFromGpu(double active_gpu_w, int active_gpus,
                              double prefill_share) const
{
    (void)prefill_share;
    const double idle_gpus =
        static_cast<double>(hwSpec.gpusPerServer - active_gpus);
    const double gpu_total = active_gpu_w * active_gpus +
        hwSpec.gpuIdlePower.value() * idle_gpus;
    const double idle_sum =
        hwSpec.gpuIdlePower.value() * hwSpec.gpusPerServer;
    const double max_sum =
        hwSpec.gpuMaxPower.value() * hwSpec.gpusPerServer;
    const double heat = max_sum > idle_sum
        ? std::clamp((gpu_total - idle_sum) / (max_sum - idle_sum),
                     0.0, 1.0)
        : 0.0;
    double total = hwSpec.chassisIdlePower.value() +
        hwSpec.chassisActivePower.value() * heat + gpu_total;
    const double speed = 0.35 + 0.65 * heat;
    total += hwSpec.fanMaxPower.value() * speed * speed * speed;
    return Watts(total);
}

void
PerfModel::solveOpChunk(const ConfigProfile *const *profiles,
                        const double *demand_tps, std::size_t m,
                        OperatingPoint *out, bool server_power) const
{
    tapas_assert(m <= kOpChunk, "operating-point chunk overflow");
    const double fp = perfParams.mix.prefillFraction();
    const double fd = perfParams.mix.decodeFraction();
    const double idle = hwSpec.gpuIdlePower.value();

    double prefT[kOpChunk], wS[kOpChunk], kS[kOpChunk];
    double maxB[kOpChunk], b1W[kOpChunk], bMaxW[kOpChunk];
    double prefW[kOpChunk], act[kOpChunk];
    double upA[kOpChunk], udA[kOpChunk], batchA[kOpChunk];
    double busyA[kOpChunk], pshareA[kOpChunk], dwA[kOpChunk];
    double gwA[kOpChunk];

    // Gather: one pass of pointer-chasing, then everything below is
    // stride-1 arithmetic over the stack arrays.
    for (std::size_t i = 0; i < m; ++i) {
        const ConfigProfile &p = *profiles[i];
        prefT[i] = p.prefill.throughputTps;
        wS[i] = p.decodeWeightS;
        kS[i] = p.decodeKvS;
        maxB[i] = static_cast<double>(p.config.maxBatchSize);
        b1W[i] = p.decodePowerBatch1W;
        bMaxW[i] = p.decodePowerBatchMaxW;
        prefW[i] = p.prefill.gpuPower.value();
        act[i] = static_cast<double>(p.activeGpus);
    }

    // Branch-free solve: the scalar sub-saturated/saturated decode
    // split becomes selects over speculatively computed values. The
    // speculative division wS*r/denom is only selected when
    // denom > 1e-9, and every lane that reaches the select keeps it
    // finite (r == 0 forces denom = share > 0), so no NaN/inf
    // survives selection. Expression order mirrors the scalar
    // reference solve (tests/llm/op_oracle.hh) term for term — the
    // std::min/max/clamp
    // calls are spelled as the ternaries they expand to, because
    // their by-reference returns block the loop vectorizer — so with
    // -ffp-contract=off every lane is bit-identical to the scalar
    // solve.
    for (std::size_t i = 0; i < m; ++i) {
        const double d_raw = demand_tps[i];
        const double demand = 0.0 < d_raw ? d_raw : 0.0;
        const double u_raw = demand * fp / prefT[i];
        const double u_p = u_raw < 1.0 ? u_raw : 1.0;
        const double r = demand * fd;
        const double tau1 = wS[i] + kS[i];
        const double s_raw = 1.0 - u_p;
        const double share = 0.05 < s_raw ? s_raw : 0.05;
        const double rt = r * tau1;
        const double denom = share - kS[i] * r;
        const double braw = wS[i] * r / denom;
        const double bsel = denom > 1e-9 ? braw : maxB[i];
        const double bsat = bsel < 1.0
            ? 1.0
            : (maxB[i] < bsel ? maxB[i] : bsel);
        const bool sat = !(rt < share);
        double batch = sat ? bsat : 1.0;
        double u_d = sat ? share : rt;
        batch = r > 0.0 ? batch : 0.0;
        u_d = r > 0.0 ? u_d : 0.0;
        const double sum = u_p + u_d;
        const double busy = sum < 1.0 ? sum : 1.0;
        upA[i] = u_p;
        udA[i] = u_d;
        batchA[i] = batch;
        busyA[i] = busy;
        pshareA[i] = busy > 0.0 ? u_p / sum : 0.0;
        // Decode power endpoints (the two cases continuous batching
        // actually lands on, batch <= 1 taking priority like the
        // scalar fast path); -1 marks the rare mid-range-batch or
        // uncached-endpoint lanes for the scalar fixup below.
        double dw = (batch == maxB[i] && bMaxW[i] >= 0.0)
            ? bMaxW[i]
            : -1.0;
        dw = (batch <= 1.0 && b1W[i] >= 0.0) ? b1W[i] : dw;
        dwA[i] = u_d > 0.0 ? dw : 0.0;
    }

    // Scalar fixup: lanes whose decode power needs the full log2
    // formula (or whose profile lacks cached endpoints) go through
    // the very function the scalar reference uses.
    for (std::size_t i = 0; i < m; ++i) {
        if (dwA[i] < 0.0)
            dwA[i] =
                decodeGpuPowerAt(*profiles[i], batchA[i]).value();
    }

    for (std::size_t i = 0; i < m; ++i) {
        gwA[i] = idle * (1.0 - busyA[i]) + upA[i] * prefW[i] +
            udA[i] * dwA[i];
    }

    if (server_power) {
        // serverPowerFromGpu, element-wise, with the loop-invariant
        // spec terms hoisted (same values, same per-lane expression
        // order as the scalar function).
        const double gps =
            static_cast<double>(hwSpec.gpusPerServer);
        const double idle_sum = idle * gps;
        const double max_sum = hwSpec.gpuMaxPower.value() * gps;
        const double span_sum = max_sum - idle_sum;
        const bool has_span = max_sum > idle_sum;
        const double chassis_idle = hwSpec.chassisIdlePower.value();
        const double chassis_active =
            hwSpec.chassisActivePower.value();
        const double fan_max = hwSpec.fanMaxPower.value();
        for (std::size_t i = 0; i < m; ++i) {
            const double gpu_total =
                gwA[i] * act[i] + idle * (gps - act[i]);
            const double h_raw = (gpu_total - idle_sum) / span_sum;
            const double h_clamped =
                h_raw < 0.0 ? 0.0 : (1.0 < h_raw ? 1.0 : h_raw);
            const double heat = has_span ? h_clamped : 0.0;
            double total = chassis_idle + chassis_active * heat +
                gpu_total;
            const double speed = 0.35 + 0.65 * heat;
            total += fan_max * speed * speed * speed;
            out[i].serverPower = Watts(total);
        }
    } else {
        for (std::size_t i = 0; i < m; ++i)
            out[i].serverPower = Watts(0.0);
    }

    for (std::size_t i = 0; i < m; ++i) {
        out[i].busyFrac = busyA[i];
        out[i].prefillShare = pshareA[i];
        out[i].decodeBatch = batchA[i];
        out[i].gpuPower = Watts(gwA[i]);
    }
}

void
PerfModel::solveOpBatch(const ConfigProfile *const *profiles,
                        const double *demand_tps, std::size_t n,
                        OperatingPoint *out, bool server_power) const
{
    for (std::size_t base = 0; base < n; base += kOpChunk) {
        const std::size_t m = std::min(kOpChunk, n - base);
        solveOpChunk(profiles + base, demand_tps + base, m,
                     out + base, server_power);
    }
}

void
PerfModel::operatingPointBatch(const ConfigProfile *const *profiles,
                               const double *demand_tps,
                               std::size_t n,
                               OperatingPoint *out) const
{
    solveOpBatch(profiles, demand_tps, n, out, true);
}

void
PerfModel::operatingGpuPointBatch(
    const ConfigProfile *const *profiles, const double *demand_tps,
    std::size_t n, OperatingPoint *out) const
{
    solveOpBatch(profiles, demand_tps, n, out, false);
}

std::vector<ConfigProfile>
PerfModel::paretoFrontier(const std::vector<ConfigProfile> &profiles,
                          bool use_power)
{
    auto metric = [use_power](const ConfigProfile &p) {
        if (use_power) {
            // Whole-instance power at saturation.
            return p.prefill.gpuPower.value() * p.activeGpus;
        }
        // Hottest-GPU proxy: per-GPU power drives temperature.
        return p.prefill.gpuPower.value();
    };
    // Single-pass dominance sweep instead of the all-pairs scan:
    // sorted by goodput descending, a candidate is dominated iff a
    // strictly-higher-goodput candidate has metric <= its own, or an
    // equal-goodput candidate has a strictly smaller metric. Both
    // are prefix minima of the sweep, so one ordered pass decides
    // every candidate (O(n log n) versus the old O(n^2)); exact
    // duplicates (equal goodput and metric) all survive, as before.
    // Survivors are collected in input order and run through the
    // same final sort, so the output — tie order included — matches
    // the old scan element for element (pinned by
    // tests/llm/test_perf.cc).
    struct Entry
    {
        double goodput;
        double metric;
        std::uint32_t index;
    };
    std::vector<Entry> entries;
    entries.reserve(profiles.size());
    for (std::uint32_t i = 0; i < profiles.size(); ++i) {
        if (profiles[i].goodputTps <= 0.0)
            continue;
        entries.push_back(
            {profiles[i].goodputTps, metric(profiles[i]), i});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.goodput > b.goodput;
              });

    std::vector<char> survives(profiles.size(), 0);
    constexpr double inf = std::numeric_limits<double>::infinity();
    // Min metric among strictly higher goodputs seen so far.
    double best_above = inf;
    for (std::size_t lo = 0; lo < entries.size();) {
        // Group of equal goodputs.
        std::size_t hi = lo;
        double group_min = inf;
        while (hi < entries.size() &&
               entries[hi].goodput == entries[lo].goodput) {
            group_min = std::min(group_min, entries[hi].metric);
            ++hi;
        }
        for (std::size_t k = lo; k < hi; ++k) {
            const double m = entries[k].metric;
            if (best_above > m && group_min >= m)
                survives[entries[k].index] = 1;
        }
        best_above = std::min(best_above, group_min);
        lo = hi;
    }

    std::vector<ConfigProfile> frontier;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        if (survives[i])
            frontier.push_back(profiles[i]);
    }
    std::sort(frontier.begin(), frontier.end(),
              [](const ConfigProfile &a, const ConfigProfile &b) {
                  return a.goodputTps < b.goodputTps;
              });
    return frontier;
}

} // namespace tapas
