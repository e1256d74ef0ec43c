#include "core/configurator.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace tapas {

namespace {
/** Demand headroom factor for right-sized configurations. */
constexpr double kDemandHeadroom = 1.5;
} // namespace

InstanceConfigurator::InstanceConfigurator(
    const PerfModel &perf_, const TapasPolicyConfig &config)
    : perf(perf_), cfg(config), space(perf_.allProfiles())
{
    // Pre-sort: quality first (last-resort ordering), then goodput.
    std::sort(space.begin(), space.end(),
              [](const ConfigProfile &a, const ConfigProfile &b) {
                  if (a.quality != b.quality)
                      return a.quality > b.quality;
                  return a.goodputTps > b.goodputTps;
              });
    while (topTierLen < space.size() &&
           space[topTierLen].quality == space.front().quality) {
        ++topTierLen;
    }
    plan.ops.resize(topTierLen);
    plan.heat.resize(topTierLen);
    plan.byPower.resize(topTierLen);
    plan.byReloadPower.resize(topTierLen);
}

PerfModel::OperatingPoint
InstanceConfigurator::solveOne(const ConfigProfile &profile,
                               double demand_tps) const
{
    const ConfigProfile *lane = &profile;
    PerfModel::OperatingPoint op;
    perf.operatingPointBatch(&lane, &demand_tps, 1, &op);
    return op;
}

bool
InstanceConfigurator::feasible(ServerId server,
                               const ProfileBank &profiles,
                               const InstanceLimits &limits,
                               const ConfigProfile &profile,
                               double demand_tps) const
{
    if (profile.goodputTps <= 0.0)
        return false;
    const PerfModel::OperatingPoint op =
        solveOne(profile, std::min(demand_tps, profile.goodputTps));
    return withinLimits(server, profiles, limits, op,
                        heatFractionOf(profile, op));
}

double
InstanceConfigurator::heatFractionOf(
    const ConfigProfile &profile,
    const PerfModel::OperatingPoint &op) const
{
    // Airflow tracks heat: normalized GPU draw across the server.
    const ServerSpec &spec = perf.spec();
    const double idle_sum =
        spec.gpuIdlePower.value() * spec.gpusPerServer;
    const double max_sum =
        spec.gpuMaxPower.value() * spec.gpusPerServer;
    const double gpu_total = op.gpuPower.value() *
            profile.activeGpus +
        spec.gpuIdlePower.value() *
            (spec.gpusPerServer - profile.activeGpus);
    return max_sum > idle_sum
        ? std::clamp((gpu_total - idle_sum) / (max_sum - idle_sum),
                     0.0, 1.0)
        : 0.0;
}

bool
InstanceConfigurator::withinLimits(ServerId server,
                                   const ProfileBank &profiles,
                                   const InstanceLimits &limits,
                                   const PerfModel::OperatingPoint &op,
                                   double heat) const
{
    if (op.serverPower.value() > limits.maxServerPowerW)
        return false;

    const ServerBatch probe = ServerBatch::repeat(server, 1);
    double hottest = 0.0;
    profiles.predictHottestGpu(probe, limits.inletC, op.gpuPower.value(),
                               &hottest);
    if (hottest > limits.maxGpuTempC)
        return false;

    double airflow = 0.0;
    profiles.predictAirflow(probe, heat, &airflow);
    return airflow <= limits.maxAirflowCfm;
}

void
InstanceConfigurator::preparePlan(double demand_tps, double quality_floor)
{
    if (plan.demandTps == demand_tps &&
        plan.qualityFloor == quality_floor) {
        return;
    }
    plan.demandTps = demand_tps;
    plan.qualityFloor = quality_floor;

    const double target_tps = demand_tps * kDemandHeadroom;
    std::size_t n = 0;
    while (n < topTierLen && space[n].quality >= quality_floor &&
           space[n].goodputTps > 0.0 &&
           space[n].goodputTps >= target_tps) {
        ++n;
    }
    plan.meetingLen = n;

    // Inside P goodput >= 1.5 x demand, so both the feasibility
    // demand min(demand, goodput) and the rank demand
    // min(demand, max(1, goodput)) are the demand itself.
    constexpr std::size_t kLanes = 32;
    const ConfigProfile *lanes[kLanes];
    double demands[kLanes];
    std::fill(demands, demands + kLanes, demand_tps);
    for (std::size_t i = 0; i < n; i += kLanes) {
        const std::size_t m = std::min(kLanes, n - i);
        for (std::size_t k = 0; k < m; ++k)
            lanes[k] = &space[i + k];
        perf.operatingPointBatch(lanes, demands, m, &plan.ops[i]);
    }
    for (std::size_t i = 0; i < n; ++i)
        plan.heat[i] = heatFractionOf(space[i], plan.ops[i]);

    const double gain = cfg.reloadHysteresisGain;
    auto power = [&](std::uint32_t i) {
        return plan.ops[i].serverPower.value();
    };
    const auto by_power = plan.byPower.begin();
    const auto by_reload = plan.byReloadPower.begin();
    std::iota(by_power, by_power + n, 0u);
    std::sort(by_power, by_power + n,
              [&](std::uint32_t a, std::uint32_t b) {
                  return power(a) != power(b) ? power(a) < power(b)
                                              : a < b;
              });
    std::copy(by_power, by_power + n, by_reload);
    if (gain < 0.0) {
        // A negative gain reverses the power order.
        std::sort(by_reload, by_reload + n,
                  [&](std::uint32_t a, std::uint32_t b) {
                      const double pa = power(a) * gain;
                      const double pb = power(b) * gain;
                      return pa != pb ? pa < pb : a < b;
                  });
        return;
    }
    // Rounding is monotone, so scaling by a non-negative gain keeps
    // the power order except where neighbours become equal; those
    // runs re-rank by index.
    for (std::size_t lo = 0; lo < n;) {
        std::size_t hi = lo + 1;
        while (hi < n &&
               power(by_reload[hi]) * gain ==
                   power(by_reload[lo]) * gain) {
            ++hi;
        }
        std::sort(by_reload + lo, by_reload + hi);
        lo = hi;
    }
}

ConfigDecision
InstanceConfigurator::choose(ServerId server,
                             const ProfileBank &profiles,
                             const InstanceLimits &limits,
                             double demand_tps, double quality_floor,
                             const ConfigProfile &current)
{
    preparePlan(demand_tps, quality_floor);

    // Demand must be met with headroom so diurnal ramps do not
    // immediately outrun the chosen configuration.
    const double target_tps = demand_tps * kDemandHeadroom;
    const double gain = cfg.reloadHysteresisGain;

    const ConfigProfile *best = nullptr;
    bool best_meets = false;
    double best_power = 1e300;
    double best_raw_power_w = 1e300;

    // Stage 2: walk P in (penalized power, index) order, the free
    // candidates of the first order merged with the reload
    // candidates of the second, and take the first within limits.
    const std::size_t n = plan.meetingLen;
    const std::uint32_t *by_power = plan.byPower.data();
    const std::uint32_t *by_reload = plan.byReloadPower.data();
    auto power = [&](std::uint32_t i) {
        return plan.ops[i].serverPower.value();
    };
    auto reloads = [&](std::uint32_t i) {
        return space[i].config.requiresReload(current.config);
    };
    std::size_t a = 0; // next free candidate in by_power
    std::size_t b = 0; // next reload candidate in by_reload
    auto next_free = [&]() {
        while (a < n && reloads(by_power[a]))
            ++a;
    };
    auto next_reload = [&]() {
        while (b < n && !reloads(by_reload[b]))
            ++b;
    };
    next_free();
    next_reload();
    while (a < n || b < n) {
        const double free_w = a < n ? power(by_power[a]) : 0.0;
        const double reload_w =
            b < n ? power(by_reload[b]) * gain : 0.0;
        const bool take_free = b == n ||
            (a < n && (free_w < reload_w ||
                       (free_w == reload_w &&
                        by_power[a] < by_reload[b])));
        const std::uint32_t i =
            take_free ? by_power[a++] : by_reload[b++];
        if (take_free)
            next_free();
        else
            next_reload();
        ++plan.scored;
        if (withinLimits(server, profiles, limits, plan.ops[i],
                         plan.heat[i])) {
            best = &space[i];
            best_meets = true;
            best_raw_power_w = power(i);
            break;
        }
    }

    // Continuation (no feasible candidate in P): the sequential walk
    // from P's end. Until an incumbent exists, candidates are scored
    // one at a time, because the first feasible one usually ends the
    // scoring (the skip rule below); after that, in fixed blocks.
    // A block's operating points are solved in one batched pass,
    // then one predictHottestGpu + one predictAirflow pass over the
    // repeated server scores it (the server's coefficient block
    // streams once instead of per candidate) and the take/prune
    // logic replays over the results in order. The prune checks run
    // against the best as of the last flushed block, which is still
    // exact: a best over a shorter prefix stops the walk no earlier,
    // and candidates scored past the exact stop can never be taken.
    constexpr std::size_t kBlock = 8;
    const ConfigProfile *cands[kBlock];
    double feas_demands[kBlock];
    PerfModel::OperatingPoint ops[kBlock];
    double gpu_power[kBlock];
    double heat[kBlock];
    double hottest[kBlock];
    double airflow[kBlock];
    std::size_t pending = 0;

    auto flush = [&]() {
        if (pending == 0)
            return;
        perf.operatingPointBatch(cands, feas_demands, pending, ops);
        for (std::size_t i = 0; i < pending; ++i) {
            gpu_power[i] = ops[i].gpuPower.value();
            heat[i] = heatFractionOf(*cands[i], ops[i]);
        }
        const ServerBatch block = ServerBatch::repeat(server, pending);
        profiles.predictHottestGpu(block, limits.inletC, gpu_power,
                                   hottest);
        profiles.predictAirflow(block, heat, airflow);
        plan.scored += pending;
        for (std::size_t i = 0; i < pending; ++i) {
            const ConfigProfile &cand = *cands[i];
            const PerfModel::OperatingPoint &op = ops[i];
            if (op.serverPower.value() > limits.maxServerPowerW)
                continue;
            if (hottest[i] > limits.maxGpuTempC)
                continue;
            if (airflow[i] > limits.maxAirflowCfm)
                continue;
            const double feas_demand =
                std::min(demand_tps, cand.goodputTps);
            const double rank_demand =
                std::min(demand_tps, std::max(1.0, cand.goodputTps));
            // Only candidates whose goodput cannot serve 1 token/s
            // re-rank at a different demand.
            const double rank_power_w = rank_demand == feas_demand
                ? op.serverPower.value()
                : solveOne(cand, rank_demand).serverPower.value();
            const bool meets = cand.goodputTps >= target_tps;
            const double power =
                cand.config.requiresReload(current.config)
                ? rank_power_w * gain
                : rank_power_w;
            bool take = false;
            if (!best) {
                take = true;
            } else if (cand.quality > best->quality) {
                // Space is quality-sorted descending, so this only
                // happens on the first candidate; kept for clarity.
                take = true;
            } else if (cand.quality == best->quality) {
                if (meets && !best_meets) {
                    take = true;
                } else if (meets == best_meets) {
                    take = meets
                        ? power < best_power
                        : cand.goodputTps > best->goodputTps;
                }
            } else if (meets && !best_meets) {
                // Lower quality only buys its way in by meeting
                // demand the higher quality could not (emergency
                // last resort).
                take = true;
            }
            if (take) {
                best = &cand;
                best_meets = meets;
                best_power = power;
                best_raw_power_w = rank_power_w;
            }
        }
        pending = 0;
    };

    // A winner from P ends the search: nothing after P can be taken.
    const std::size_t walk_from = best ? space.size() : n;
    for (std::size_t idx = walk_from; idx < space.size(); ++idx) {
        const ConfigProfile &cand = space[idx];
        // Once the incumbent meets demand, a candidate of lower
        // quality can never be taken, and within its quality tier
        // every remaining candidate has goodput no higher than this
        // one, so none can start meeting demand either.
        if (best_meets && (cand.quality < best->quality ||
                           cand.goodputTps < target_tps)) {
            break;
        }
        // The space is quality-sorted descending: all that follows
        // is below the floor too.
        if (cand.quality < quality_floor)
            break;
        if (cand.goodputTps <= 0.0)
            continue;
        // A candidate missing the target can never displace an
        // incumbent: within its tier it does not out-produce it, and
        // a lower tier wins only by meeting demand.
        if (best && cand.goodputTps < target_tps)
            continue;
        cands[pending] = &cand;
        feas_demands[pending] = std::min(demand_tps,
                                         cand.goodputTps);
        if (++pending == (best ? kBlock : 1))
            flush();
    }
    flush();

    ConfigDecision out;
    if (!best) {
        // Nothing satisfies the limits: fall to the lowest-power
        // config at the current demand, preferring higher goodput
        // among near-equals so service degrades as little as the
        // power situation allows. Power probes are solved a block
        // at a time and replayed in order.
        const ConfigProfile *mildest = nullptr;
        double mildest_w = 1e300;
        auto settle = [&]() {
            perf.operatingPointBatch(cands, feas_demands, pending,
                                     ops);
            for (std::size_t k = 0; k < pending; ++k) {
                const ConfigProfile &cand = *cands[k];
                const double w = ops[k].serverPower.value();
                const bool better = w < mildest_w * 0.98 ||
                    (w < mildest_w * 1.02 && mildest &&
                     cand.goodputTps > mildest->goodputTps);
                if (!mildest || better) {
                    mildest_w = std::min(mildest_w, w);
                    mildest = &cand;
                }
            }
            pending = 0;
        };
        for (const ConfigProfile &cand : space) {
            if (cand.quality < quality_floor ||
                cand.goodputTps <= 0.0) {
                continue;
            }
            cands[pending] = &cand;
            feas_demands[pending] = std::min(
                demand_tps, std::max(1.0, cand.goodputTps));
            if (++pending == kBlock)
                settle();
        }
        settle();
        tapas_assert(mildest, "config space cannot be empty");
        out.profile = *mildest;
        out.infeasible = true;
        out.changed = !(out.profile.config == current.config);
        return out;
    }

    // Hysteresis: keep the current config when it is feasible, of
    // equal quality and demand coverage, and the winner's power
    // advantage is marginal. Evaluated only when the winner actually
    // differs, with one shared operating point covering the current
    // config's feasibility check and power ranking; the winner's
    // power at demand was already computed when it was taken.
    if (!(best->config == current.config) &&
        current.quality >= quality_floor &&
        current.goodputTps > 0.0) {
        const double cur_feas_demand =
            std::min(demand_tps, current.goodputTps);
        const PerfModel::OperatingPoint cur_op =
            solveOne(current, cur_feas_demand);
        if (withinLimits(server, profiles, limits, cur_op,
                         heatFractionOf(current, cur_op))) {
            const bool current_meets =
                current.goodputTps >= target_tps;
            const double cur_rank_demand = std::min(
                demand_tps, std::max(1.0, current.goodputTps));
            const double current_power =
                cur_rank_demand == cur_feas_demand
                ? cur_op.serverPower.value()
                : solveOne(current, cur_rank_demand)
                      .serverPower.value();
            // Reload-requiring switches (TP/model/quant) carry a
            // blackout, so they must buy a much larger gain.
            const double gain_bar =
                best->config.requiresReload(current.config)
                ? cfg.reloadHysteresisGain
                : cfg.hysteresisGain;
            const bool marginal_gain =
                best_raw_power_w * gain_bar >= current_power;
            if (best_meets == current_meets &&
                best->quality <= current.quality && marginal_gain) {
                out.profile = current;
                out.changed = false;
                return out;
            }
        }
    }

    out.profile = *best;
    out.changed = !(best->config == current.config);
    return out;
}

} // namespace tapas
