/**
 * @file
 * Scalar operating-point solve: the reference the batched solver
 * (PerfModel::operatingPointBatch / operatingGpuPointBatch) must
 * match bit for bit. It is written straight from the model, with
 * the sub-saturated/saturated decode split as branches, and reads
 * only PerfModel's public accessors.
 */

#ifndef TAPAS_TESTS_LLM_OP_ORACLE_HH
#define TAPAS_TESTS_LLM_OP_ORACLE_HH

#include <algorithm>

#include "llm/perf.hh"

namespace tapas {

/**
 * Operating point at a token demand without the whole-server power
 * term (left at 0): utilization and GPU power only.
 */
inline PerfModel::OperatingPoint
operatingGpuPointAt(const PerfModel &model, const ConfigProfile &profile,
                    double demand_tps)
{
    PerfModel::OperatingPoint out;
    const double demand = std::max(0.0, demand_tps);
    const double fp = model.params().mix.prefillFraction();
    const double fd = model.params().mix.decodeFraction();

    // Prefill is bursty: busy exactly its work fraction.
    const double u_p = std::min(
        1.0, demand * fp / profile.prefill.throughputTps);

    // Decode runs continuously whenever sequences are in flight,
    // at whatever batch the demand sustains.
    const double r = demand * fd; // decode tokens/s
    const double tau1 =
        profile.decodeWeightS + profile.decodeKvS;
    double u_d = 0.0;
    double batch = 0.0;
    if (r > 0.0) {
        const double share = std::max(0.05, 1.0 - u_p);
        if (r * tau1 < share) {
            // Sub-saturated even at batch 1: idles between tokens.
            batch = 1.0;
            u_d = r * tau1;
        } else {
            // Decode fills all non-prefill time; batch grows until
            // share * B / tau(B) = r.
            const double denom = share - profile.decodeKvS * r;
            batch = denom > 1e-9
                ? profile.decodeWeightS * r / denom
                : static_cast<double>(profile.config.maxBatchSize);
            batch = std::clamp(
                batch, 1.0,
                static_cast<double>(profile.config.maxBatchSize));
            u_d = share;
        }
    }

    out.busyFrac = std::min(1.0, u_p + u_d);
    out.prefillShare =
        out.busyFrac > 0.0 ? u_p / (u_p + u_d) : 0.0;
    out.decodeBatch = batch;

    const double idle = model.spec().gpuIdlePower.value();
    // Idle decode contributes u_d * decode_w == 0 regardless of the
    // decode power, so skip its evaluation (and the log2 inside)
    // when decode is not running.
    const double decode_w =
        u_d > 0.0 ? model.decodeGpuPowerAt(profile, batch).value()
                  : 0.0;
    const double prefill_w = profile.prefill.gpuPower.value();
    out.gpuPower = Watts(idle * (1.0 - out.busyFrac) +
                         u_p * prefill_w + u_d * decode_w);
    return out;
}

/** Full operating point at a token demand (tokens/s). */
inline PerfModel::OperatingPoint
operatingPointAt(const PerfModel &model, const ConfigProfile &profile,
                 double demand_tps)
{
    PerfModel::OperatingPoint out =
        operatingGpuPointAt(model, profile, demand_tps);
    out.serverPower = model.serverPowerFromGpu(
        out.gpuPower.value(), profile.activeGpus, out.prefillShare);
    return out;
}

} // namespace tapas

#endif // TAPAS_TESTS_LLM_OP_ORACLE_HH
