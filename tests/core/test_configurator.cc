/**
 * @file
 * Unit tests for the instance configurator: limit compliance,
 * quality-as-last-resort ordering, hysteresis, and emergency
 * behavior; plus a differential sweep of the ranked selection
 * against the sequential candidate walk it replaced.
 */

#include "fixture.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "core/configurator.hh"
#include "llm/op_oracle.hh"

namespace tapas {
namespace {

/**
 * The sequential candidate walk the ranked choose() replaced, kept
 * as the oracle: every candidate of the quality-desc, goodput-desc
 * space is scored against the limits in growing blocks and the
 * take/prune rules replay in order; then the infeasible fallback
 * and the hysteresis check. Scalar solves (llm/op_oracle.hh)
 * throughout.
 */
class ReferenceWalk
{
  public:
    ReferenceWalk(const PerfModel &perf_,
                  const TapasPolicyConfig &config,
                  const std::vector<ConfigProfile> &space_)
        : perf(perf_), cfg(config), space(space_)
    {}

    /** The walk's decision; @p scored counts candidates scored. */
    ConfigDecision
    choose(ServerId server, const ProfileBank &profiles,
           const InstanceLimits &limits, double demand_tps,
           double quality_floor, const ConfigProfile &current,
           std::uint64_t *scored = nullptr) const
    {
        const double target_tps = demand_tps * 1.5;
        auto power_at_demand = [&](const ConfigProfile &p) {
            const double capped =
                std::min(demand_tps, std::max(1.0, p.goodputTps));
            return operatingPointAt(perf, p, capped)
                .serverPower.value();
        };
        const ConfigProfile *best = nullptr;
        bool best_meets = false;
        double best_power = 1e300;
        double best_raw_power_w = 1e300;

        constexpr std::size_t kBlock = 8;
        std::size_t flush_target = 1;
        const ConfigProfile *cands[kBlock];
        PerfModel::OperatingPoint ops[kBlock];
        double hottest[kBlock];
        double airflow[kBlock];
        std::size_t pending = 0;

        auto flush = [&]() {
            if (pending == 0)
                return;
            double gpu_power[kBlock];
            double heat[kBlock];
            for (std::size_t i = 0; i < pending; ++i) {
                ops[i] = operatingPointAt(
                    perf, *cands[i],
                    std::min(demand_tps, cands[i]->goodputTps));
                gpu_power[i] = ops[i].gpuPower.value();
                heat[i] = heatFractionOf(*cands[i], ops[i]);
            }
            const ServerBatch block = ServerBatch::repeat(server, pending);
            profiles.predictHottestGpu(block, limits.inletC, gpu_power,
                                       hottest);
            profiles.predictAirflow(block, heat, airflow);
            if (scored)
                *scored += pending;
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
                const double rank_demand = std::min(
                    demand_tps, std::max(1.0, cand.goodputTps));
                const double rank_power_w =
                    rank_demand == feas_demand
                    ? op.serverPower.value()
                    : operatingPointAt(perf, cand, rank_demand)
                          .serverPower.value();
                const bool meets = cand.goodputTps >= target_tps;
                const double power =
                    cand.config.requiresReload(current.config)
                    ? rank_power_w * cfg.reloadHysteresisGain
                    : rank_power_w;
                bool take = false;
                if (!best) {
                    take = true;
                } else if (cand.quality > best->quality) {
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

        for (const ConfigProfile &cand : space) {
            if (best_meets && (cand.quality < best->quality ||
                               cand.goodputTps < target_tps)) {
                break;
            }
            if (cand.quality < quality_floor)
                continue;
            if (cand.goodputTps <= 0.0)
                continue;
            cands[pending++] = &cand;
            if (pending == flush_target) {
                flush();
                flush_target = std::min(kBlock, flush_target * 2);
            }
        }
        flush();

        ConfigDecision out;
        if (!best) {
            const ConfigProfile *mildest = nullptr;
            double mildest_w = 1e300;
            for (const ConfigProfile &cand : space) {
                if (cand.quality < quality_floor ||
                    cand.goodputTps <= 0.0) {
                    continue;
                }
                const double w = power_at_demand(cand);
                const bool better = w < mildest_w * 0.98 ||
                    (w < mildest_w * 1.02 && mildest &&
                     cand.goodputTps > mildest->goodputTps);
                if (!mildest || better) {
                    mildest_w = std::min(mildest_w, w);
                    mildest = &cand;
                }
            }
            out.profile = *mildest;
            out.infeasible = true;
            out.changed = !(out.profile.config == current.config);
            return out;
        }

        if (!(best->config == current.config) &&
            current.quality >= quality_floor &&
            current.goodputTps > 0.0) {
            const double cur_feas_demand =
                std::min(demand_tps, current.goodputTps);
            const PerfModel::OperatingPoint cur_op =
                operatingPointAt(perf, current, cur_feas_demand);
            if (feasibleAt(server, profiles, limits, current,
                           cur_op)) {
                const bool current_meets =
                    current.goodputTps >= target_tps;
                const double cur_rank_demand = std::min(
                    demand_tps, std::max(1.0, current.goodputTps));
                const double current_power =
                    cur_rank_demand == cur_feas_demand
                    ? cur_op.serverPower.value()
                    : operatingPointAt(perf, current, cur_rank_demand)
                          .serverPower.value();
                const double gain_bar =
                    best->config.requiresReload(current.config)
                    ? cfg.reloadHysteresisGain
                    : cfg.hysteresisGain;
                const bool marginal_gain =
                    best_raw_power_w * gain_bar >= current_power;
                if (best_meets == current_meets &&
                    best->quality <= current.quality &&
                    marginal_gain) {
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

  private:
    const PerfModel &perf;
    TapasPolicyConfig cfg;
    const std::vector<ConfigProfile> &space;

    double
    heatFractionOf(const ConfigProfile &profile,
                   const PerfModel::OperatingPoint &op) const
    {
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
            ? std::clamp((gpu_total - idle_sum) /
                             (max_sum - idle_sum),
                         0.0, 1.0)
            : 0.0;
    }

    bool
    feasibleAt(ServerId server, const ProfileBank &profiles,
               const InstanceLimits &limits,
               const ConfigProfile &profile,
               const PerfModel::OperatingPoint &op) const
    {
        if (op.serverPower.value() > limits.maxServerPowerW)
            return false;
        const ServerBatch probe = ServerBatch::repeat(server, 1);
        double hottest = 0.0;
        profiles.predictHottestGpu(probe, limits.inletC,
                                   op.gpuPower.value(), &hottest);
        if (hottest > limits.maxGpuTempC)
            return false;
        double airflow = 0.0;
        profiles.predictAirflow(probe, heatFractionOf(profile, op),
                                &airflow);
        return airflow <= limits.maxAirflowCfm;
    }
};

/** Every ConfigDecision field, bit for bit. */
void
expectSameDecision(const ConfigDecision &got,
                   const ConfigDecision &want)
{
    EXPECT_EQ(got.profile.config, want.profile.config);
    EXPECT_EQ(got.profile.quality, want.profile.quality);
    EXPECT_EQ(got.profile.goodputTps, want.profile.goodputTps);
    EXPECT_EQ(got.changed, want.changed);
    EXPECT_EQ(got.infeasible, want.infeasible);
}

class ConfiguratorTest : public CoreFixture
{
  protected:
    ConfiguratorTest()
        : configurator(perf, TapasPolicyConfig{}),
          refProfile(perf.profile(referenceConfig()))
    {}

    InstanceLimits
    looseLimits()
    {
        InstanceLimits limits;
        limits.maxServerPowerW = 1e9;
        limits.maxGpuTempC = 200.0;
        limits.maxAirflowCfm = 1e9;
        limits.inletC = 24.0;
        return limits;
    }

    InstanceConfigurator configurator;
    ConfigProfile refProfile;
};

TEST_F(ConfiguratorTest, LooseLimitsRightSizeWithoutQualityLoss)
{
    // Low demand under loose limits: right-sizing may pick a
    // cheaper config, but never at a quality or demand-coverage
    // cost, and never via a reload (frequency/batch only).
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, looseLimits(), 100.0, 0.999, refProfile);
    EXPECT_FALSE(decision.infeasible);
    EXPECT_DOUBLE_EQ(decision.profile.quality, 1.0);
    EXPECT_GE(decision.profile.goodputTps, 100.0 * 1.5);
    EXPECT_FALSE(decision.profile.config.requiresReload(
        referenceConfig()));
}

TEST_F(ConfiguratorTest, SaturatingDemandKeepsReferenceConfig)
{
    // At saturating demand the reference config is the optimum;
    // the configurator must not churn away from it.
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, looseLimits(), refProfile.goodputTps,
        0.999, refProfile);
    EXPECT_FALSE(decision.changed);
    EXPECT_EQ(decision.profile.config, referenceConfig());
}

TEST_F(ConfiguratorTest, PowerCapForcesLowerFrequency)
{
    InstanceLimits limits = looseLimits();
    // Cap below the reference config's full-load draw.
    const double full =
        perf.estimateServerPower(refProfile, 1.0).value();
    limits.maxServerPowerW = 0.8 * full;
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, limits, refProfile.goodputTps * 0.9,
        0.999, refProfile);
    EXPECT_TRUE(decision.changed);
    // Quality must not be sacrificed for a power cap in normal ops.
    EXPECT_DOUBLE_EQ(decision.profile.quality, 1.0);
    // The chosen config must actually fit the cap at its demand.
    EXPECT_TRUE(configurator.feasible(ServerId(0), bank, limits,
                                      decision.profile,
                                      refProfile.goodputTps * 0.9));
}

TEST_F(ConfiguratorTest, TempCapRespectedByProjection)
{
    InstanceLimits limits = looseLimits();
    limits.maxGpuTempC = 70.0;
    limits.inletC = 28.0;
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, limits, 200.0, 0.999, refProfile);
    const double util = std::min(
        1.0, 200.0 / decision.profile.goodputTps);
    const double gpu_w =
        perf.estimateGpuPower(decision.profile, util).value();
    EXPECT_LE(bank.predictHottestGpuC(ServerId(0), 28.0, gpu_w),
              70.0 + 1e-9);
}

TEST_F(ConfiguratorTest, QualityFloorBlocksSmallModels)
{
    InstanceLimits limits = looseLimits();
    limits.maxServerPowerW =
        bank.predictServerPowerW(ServerId(0), 0.0) + 100.0;
    // At near-saturating demand nothing quality-1.0 fits this cap;
    // with a 0.999 floor the configurator must NOT dip to 13B/7B,
    // only report infeasible.
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, limits, refProfile.goodputTps, 0.999,
        refProfile);
    // Under the 0.999 floor the configurator must not dip to
    // 13B/7B: quality holds at 1.0 and service degrades instead
    // (the chosen config cannot cover the demand).
    EXPECT_DOUBLE_EQ(decision.profile.quality, 1.0);
    EXPECT_LT(decision.profile.goodputTps,
              refProfile.goodputTps);
}

TEST_F(ConfiguratorTest, EmergencyFloorUnlocksSmallerModels)
{
    InstanceLimits limits = looseLimits();
    // A cap that quality-1.0 70B configs cannot meet at this demand,
    // but a quantized variant can (Table 2 last-resort behavior).
    const double idle = bank.predictServerPowerW(ServerId(0), 0.0);
    limits.maxServerPowerW = idle + 500.0;
    const double demand = 0.5 * refProfile.goodputTps;
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, limits, demand, 0.60, refProfile);
    EXPECT_FALSE(decision.infeasible);
    EXPECT_LT(decision.profile.quality, 1.0);
    // Smaller model meets the demand (Table 2: perf maintained).
    EXPECT_GE(decision.profile.goodputTps, demand);
}

TEST_F(ConfiguratorTest, PrefersQualityOverGoodputInEmergency)
{
    // Even with a relaxed floor, if a 70B config fits the limits,
    // it must win over a faster 7B config.
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, looseLimits(), 100.0, 0.60, refProfile);
    EXPECT_DOUBLE_EQ(decision.profile.quality, 1.0);
}

TEST_F(ConfiguratorTest, HysteresisHoldsNearEquivalentConfigs)
{
    // Current config slightly below the best: stay put.
    InstanceConfig near_best = referenceConfig();
    near_best.freqFrac = 1.0;
    near_best.maxBatchSize = 64;
    const ConfigProfile current = perf.profile(near_best);
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, looseLimits(), 50.0, 0.999, current);
    EXPECT_FALSE(decision.changed);
}

TEST_F(ConfiguratorTest, InfeasibleFallbackIsMildest)
{
    InstanceLimits limits = looseLimits();
    limits.maxServerPowerW = 1.0; // impossible
    const double demand = refProfile.goodputTps;
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, limits, demand, 0.999, refProfile);
    EXPECT_TRUE(decision.infeasible);
    // Fallback = lowest power at the current demand (within a small
    // tolerance), preferring higher goodput among near-equals. At
    // saturating demand this is a downsized configuration.
    auto power_at = [&](const ConfigProfile &p) {
        const double util =
            std::min(1.0, demand / std::max(1.0, p.goodputTps));
        return perf.estimateServerPower(p, util).value();
    };
    double min_power = 1e300;
    for (const ConfigProfile &p : configurator.profileSpace()) {
        if (p.quality >= 0.999 && p.goodputTps > 0.0)
            min_power = std::min(min_power, power_at(p));
    }
    EXPECT_LE(power_at(decision.profile), min_power * 1.03);
    EXPECT_LT(power_at(decision.profile), power_at(refProfile));
}

TEST_F(ConfiguratorTest, FeasibleChecksAirflow)
{
    InstanceLimits limits = looseLimits();
    limits.maxAirflowCfm =
        bank.predictServerAirflowCfm(ServerId(0), 0.05);
    EXPECT_FALSE(configurator.feasible(
        ServerId(0), bank, limits, refProfile,
        refProfile.goodputTps));
    EXPECT_TRUE(configurator.feasible(
        ServerId(0), bank, limits, refProfile, 0.0));
}

TEST_F(ConfiguratorTest, SpaceSortedQualityFirst)
{
    const auto &space = configurator.profileSpace();
    ASSERT_GT(space.size(), 10u);
    for (std::size_t i = 1; i < space.size(); ++i) {
        EXPECT_GE(space[i - 1].quality, space[i].quality);
        if (space[i - 1].quality == space[i].quality) {
            EXPECT_GE(space[i - 1].goodputTps,
                      space[i].goodputTps);
        }
    }
}

/** One differential case: the inputs of a choose() call. */
struct SweepCase
{
    ServerId server;
    InstanceLimits limits;
    double demandTps;
    double qualityFloor;
    const ConfigProfile *current;
};

class ConfiguratorDiffTest : public ConfiguratorTest
{
  protected:
    /** A space profile with the reference's weights and parallelism
     *  but a different frequency or batch (a free switch). */
    const ConfigProfile &
    neighbourOfReference() const
    {
        for (const ConfigProfile &p : configurator.profileSpace()) {
            if (!p.config.requiresReload(referenceConfig()) &&
                !(p.config == referenceConfig())) {
                return p;
            }
        }
        ADD_FAILURE() << "no frequency/batch neighbour in the space";
        return refProfile;
    }

    /** A top-quality space profile that needs a reload from the
     *  reference config. */
    const ConfigProfile &
    reloadOfReference() const
    {
        for (const ConfigProfile &p : configurator.profileSpace()) {
            if (p.quality == refProfile.quality &&
                p.config.requiresReload(referenceConfig())) {
                return p;
            }
        }
        ADD_FAILURE() << "no reload alternative in the space";
        return refProfile;
    }

    std::vector<SweepCase>
    sweepCases(const std::vector<const ConfigProfile *> &currents)
    {
        double max_goodput = 0.0;
        for (const ConfigProfile &p : configurator.profileSpace())
            max_goodput = std::max(max_goodput, p.goodputTps);
        const double ref_tps = refProfile.goodputTps;
        const std::vector<double> demands = {
            0.0, 0.3, 0.9, 25.0, 100.0, 400.0, 0.3 * ref_tps,
            0.6 * ref_tps, ref_tps, 2.0 * ref_tps,
            1.1 * max_goodput};
        const double full =
            perf.estimateServerPower(refProfile, 1.0).value();
        Rng rng(20261017);
        std::vector<SweepCase> cases;
        for (std::uint32_t s : {0u, 5u, 17u, 30u, 47u}) {
            const ServerId server(s);
            std::vector<InstanceLimits> limit_set;
            limit_set.push_back(looseLimits());
            InstanceLimits power = looseLimits();
            power.maxServerPowerW = rng.uniform(0.45, 1.0) * full;
            limit_set.push_back(power);
            InstanceLimits temp = looseLimits();
            temp.inletC = rng.uniform(22.0, 32.0);
            temp.maxGpuTempC = rng.uniform(55.0, 78.0);
            limit_set.push_back(temp);
            InstanceLimits air = looseLimits();
            air.maxAirflowCfm = bank.predictServerAirflowCfm(
                server, rng.uniform(0.05, 0.8));
            limit_set.push_back(air);
            InstanceLimits impossible = looseLimits();
            impossible.maxServerPowerW = 1.0;
            limit_set.push_back(impossible);
            for (const InstanceLimits &limits : limit_set) {
                for (double demand : demands) {
                    for (double floor : {0.999, 0.60}) {
                        for (const ConfigProfile *cur : currents) {
                            cases.push_back(
                                {server, limits, demand, floor, cur});
                        }
                    }
                }
            }
        }
        return cases;
    }

    /** Every case, with its plan rebuilt and with the plan kept
     *  from the previous case, decides exactly like the reference
     *  walk under @p config. */
    void
    expectSweepMatches(const TapasPolicyConfig &config)
    {
        InstanceConfigurator rebuilt(perf, config);
        InstanceConfigurator kept(perf, config);
        const ReferenceWalk reference(perf, config,
                                      kept.profileSpace());
        std::vector<SweepCase> cases = sweepCases(
            {&refProfile, &neighbourOfReference(),
             &reloadOfReference()});
        // The kept plan sees the controller's order: sorted by
        // demand, each demand repeated across servers, limits and
        // current configs (and both floors interleaved).
        std::stable_sort(cases.begin(), cases.end(),
                         [](const SweepCase &a, const SweepCase &b) {
                             return a.demandTps < b.demandTps;
                         });
        std::size_t infeasible = 0;
        for (const SweepCase &c : cases) {
            const ConfigDecision want = reference.choose(
                c.server, bank, c.limits, c.demandTps,
                c.qualityFloor, *c.current);
            SCOPED_TRACE(testing::Message()
                         << "server " << c.server.index << " demand "
                         << c.demandTps << " floor "
                         << c.qualityFloor << " current "
                         << c.current->config.label() << " power cap "
                         << c.limits.maxServerPowerW << " temp cap "
                         << c.limits.maxGpuTempC << " airflow cap "
                         << c.limits.maxAirflowCfm);
            // A call at another demand first: the case's call must
            // rebuild the plan.
            rebuilt.choose(c.server, bank, c.limits, c.demandTps + 1.0,
                           c.qualityFloor, *c.current);
            expectSameDecision(
                rebuilt.choose(c.server, bank, c.limits, c.demandTps,
                               c.qualityFloor, *c.current),
                want);
            expectSameDecision(
                kept.choose(c.server, bank, c.limits, c.demandTps,
                            c.qualityFloor, *c.current),
                want);
            infeasible += want.infeasible ? 1 : 0;
        }
        // The sweep reaches both the ranked path and the fallback.
        EXPECT_GT(infeasible, 0u);
        EXPECT_LT(infeasible, cases.size());
    }
};

TEST_F(ConfiguratorDiffTest, RankedChoiceMatchesReferenceWalk)
{
    expectSweepMatches(TapasPolicyConfig{});
}

TEST_F(ConfiguratorDiffTest, RankedChoiceMatchesAcrossReloadGains)
{
    // Gain 1 makes reload and free candidates tie on equal power,
    // gain 0 ties every reload candidate (the index decides), and a
    // negative gain reverses the power order of reload candidates.
    for (double gain : {1.0, 0.5, 0.0, -1.0}) {
        SCOPED_TRACE(testing::Message() << "reload gain " << gain);
        TapasPolicyConfig config;
        config.reloadHysteresisGain = gain;
        expectSweepMatches(config);
    }
}

TEST_F(ConfiguratorDiffTest, ReloadAndFreeTieBreakByIndex)
{
    // For each top-quality (weights, parallelism) group, the current
    // config is the group's slowest profile, at a demand it cannot
    // meet, so the hysteresis check never holds it and the ranked
    // winner is the decision. A reload gain then lands the cheapest
    // reload candidate's penalized power exactly on the cheapest
    // free candidate's: the tie must go to the earlier of the two,
    // whichever kind that is.
    const auto &space = configurator.profileSpace();
    bool reload_first = false;
    bool free_first = false;
    for (const ConfigProfile &group : space) {
        if (group.quality != space.front().quality ||
            group.goodputTps <= 0.0) {
            continue;
        }
        const ConfigProfile *current = nullptr;
        for (const ConfigProfile &p : space) {
            if (p.quality == group.quality && p.goodputTps > 0.0 &&
                !p.config.requiresReload(group.config)) {
                current = &p;
            }
        }
        if (current != &group)
            continue;
        const double demand = current->goodputTps / 1.5 * 1.01;
        const double target = demand * 1.5;

        // P, and its least-power free (x) and reload (y) candidates.
        auto power = [&](const ConfigProfile &p) {
            return operatingPointAt(perf, p, demand)
                .serverPower.value();
        };
        std::size_t x = space.size();
        std::size_t y = space.size();
        std::size_t p_len = 0;
        while (p_len < space.size() &&
               space[p_len].quality == space.front().quality &&
               space[p_len].goodputTps >= target) {
            const bool reload =
                space[p_len].config.requiresReload(current->config);
            std::size_t &slot = reload ? y : x;
            if (slot == space.size() ||
                power(space[p_len]) < power(space[slot])) {
                slot = p_len;
            }
            ++p_len;
        }
        if (x == space.size() || y == space.size())
            continue;

        const double px = power(space[x]);
        const double py = power(space[y]);
        double gain = px / py;
        for (int step = 0; step < 8 && py * gain != px; ++step) {
            gain = std::nextafter(gain,
                                  py * gain < px ? 2.0 * gain : 0.0);
        }
        ASSERT_EQ(py * gain, px);

        SCOPED_TRACE(testing::Message()
                     << "current " << current->config.label()
                     << " free " << space[x].config.label()
                     << " reload " << space[y].config.label());
        TapasPolicyConfig config;
        config.reloadHysteresisGain = gain;
        InstanceConfigurator ranked(perf, config);
        const ReferenceWalk reference(perf, config,
                                      ranked.profileSpace());
        const ConfigDecision want = reference.choose(
            ServerId(0), bank, looseLimits(), demand, 0.999, *current);
        const ConfigDecision got = ranked.choose(
            ServerId(0), bank, looseLimits(), demand, 0.999, *current);
        expectSameDecision(got, want);
        EXPECT_EQ(ranked.lastPlan().meetingLen, p_len);
        EXPECT_EQ(got.profile.config, space[std::min(x, y)].config);
        (y < x ? reload_first : free_first) = true;
    }
    EXPECT_TRUE(reload_first);
    EXPECT_TRUE(free_first);
}

TEST_F(ConfiguratorDiffTest, LooseLimitsScoreOneCandidate)
{
    // Under loose limits the least-power candidate of P is feasible,
    // so the ranked path tests exactly one; the sequential walk
    // scored every candidate of P.
    const ReferenceWalk reference(perf, TapasPolicyConfig{},
                                  configurator.profileSpace());
    std::uint64_t walk_scored = 0;
    const ConfigDecision want =
        reference.choose(ServerId(0), bank, looseLimits(), 100.0,
                         0.999, refProfile, &walk_scored);
    const ConfigDecision got =
        configurator.choose(ServerId(0), bank, looseLimits(), 100.0,
                            0.999, refProfile);
    expectSameDecision(got, want);
    const InstanceConfigurator::Plan &plan = configurator.lastPlan();
    EXPECT_EQ(plan.scored, 1u);
    EXPECT_GT(plan.meetingLen, 1u);
    EXPECT_EQ(walk_scored, plan.meetingLen);
}

} // namespace
} // namespace tapas
