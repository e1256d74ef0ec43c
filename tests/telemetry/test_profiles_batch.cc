/**
 * @file
 * Batched-vs-scalar predictor equivalence for every fitted model in
 * the ProfileBank. The four batched functions are the only call path
 * the risk/allocator/configurator hot loops may use, so every shape
 * they accept (first n servers, an id list, one server repeated;
 * each input per evaluation or shared) must be bit-identical to the
 * scalar predict* calls (EXPECT_EQ on doubles below means bitwise
 * equality, not a tolerance).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.hh"
#include "dcsim/layout.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"
#include "telemetry/profiles.hh"

namespace tapas {
namespace {

/** A server set and the server each of its evaluations reads. */
struct Shape
{
    std::string name;
    ServerBatch servers;
    std::vector<ServerId> server;
};

/** One input: a value per evaluation, or one shared value. */
struct Arg
{
    bool each = false;
    std::vector<double> values;
    double shared = 0.0;

    BatchInput
    input() const
    {
        return each ? BatchInput(values.data()) : BatchInput(shared);
    }

    double at(std::size_t i) const { return each ? values[i] : shared; }

    std::string
    name() const
    {
        return each ? "each" : "shared " + std::to_string(shared);
    }
};

/** The per-evaluation input (@p pool cycled) and each shared one. */
std::vector<Arg>
argsFrom(const std::vector<double> &pool, std::size_t n)
{
    std::vector<Arg> args(1);
    args[0].each = true;
    for (std::size_t i = 0; i < n; ++i)
        args[0].values.push_back(pool[(i * 5 + 1) % pool.size()]);
    for (double v : pool) {
        Arg shared;
        shared.shared = v;
        args.push_back(shared);
    }
    return args;
}

/** Outputs with a sentinel past the end: a kernel writes exactly n. */
constexpr double kSentinel = -12345.0;

class ProfileBatchTest : public ::testing::Test
{
  protected:
    ProfileBatchTest()
        : dc(makeLayout()), thermal(dc, ThermalConfig{}, 91),
          powerModel(PowerConfig{}), bank(dc)
    {
        bank.offlineProfile(thermal, powerModel, 17);
    }

    static LayoutConfig
    makeLayout()
    {
        LayoutConfig cfg;
        cfg.aisleCount = 2;
        cfg.rowsPerAisle = 2;
        cfg.racksPerRow = 3;
        cfg.serversPerRack = 4;
        return cfg;
    }

    /** Every shape the batched functions accept, edge sizes too. */
    std::vector<Shape>
    shapes() const
    {
        std::vector<Shape> out;
        for (std::size_t n : {dc.serverCount(), std::size_t{0},
                              std::size_t{1}}) {
            Shape shape{"first " + std::to_string(n),
                        ServerBatch::firstN(n), {}};
            for (std::size_t s = 0; s < n; ++s)
                shape.server.emplace_back(static_cast<std::uint32_t>(s));
            out.push_back(shape);
        }
        for (std::size_t n : {listIds.size(), std::size_t{1},
                              std::size_t{0}}) {
            out.push_back({"list " + std::to_string(n),
                           ServerBatch::list(listIds.data(), n),
                           {listIds.begin(), listIds.begin() + n}});
        }
        for (std::size_t n : {std::size_t{32}, std::size_t{1},
                              std::size_t{0}}) {
            out.push_back({"repeat " + std::to_string(n),
                           ServerBatch::repeat(ServerId(13), n),
                           std::vector<ServerId>(n, ServerId(13))});
        }
        return out;
    }

    /** Runs @p predict into a fresh buffer and checks the sentinel. */
    template <class Predict>
    std::vector<double>
    run(const Shape &shape, Predict predict) const
    {
        std::vector<double> out(shape.servers.n + 1, kSentinel);
        predict(out.data());
        EXPECT_EQ(out.back(), kSentinel) << shape.name;
        return out;
    }

    DatacenterLayout dc;
    ThermalModel thermal;
    PowerModel powerModel;
    ProfileBank bank;
    /** Odd length, unordered, with duplicates. */
    const std::vector<ServerId> listIds = {
        ServerId(7),  ServerId(0), ServerId(23), ServerId(7),
        ServerId(11), ServerId(47), ServerId(0)};
    /** Both hinge knots (15 C and 25 C) and beyond. */
    const std::vector<double> outsidePool = {5.0,  15.0, 20.0,
                                             25.0, 34.0, 40.0};
    const std::vector<double> dcLoadPool = {0.0, 0.5, 1.0};
    /** Outside [0, 1] too: the clamp is part of the model. */
    const std::vector<double> loadPool = {-0.2, 0.0, 0.33,
                                          0.61, 1.0,  1.3};
    const std::vector<double> inletPool = {18.5, 27.5, 38.0};
    const std::vector<double> gpuPowerPool = {60.0, 233.0, 420.0};
};

TEST_F(ProfileBatchTest, InletMatchesScalarForEveryShape)
{
    for (const Shape &shape : shapes()) {
        const std::size_t n = shape.servers.n;
        for (const Arg &outside : argsFrom(outsidePool, n)) {
            for (const Arg &dc_load : argsFrom(dcLoadPool, n)) {
                const std::vector<double> out =
                    run(shape, [&](double *o) {
                        bank.predictInlet(shape.servers, outside.input(),
                                          dc_load.input(), o);
                    });
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_EQ(out[i],
                              bank.predictInletC(shape.server[i],
                                                 outside.at(i),
                                                 dc_load.at(i)))
                        << shape.name << " outside " << outside.name()
                        << " dc load " << dc_load.name() << " i " << i;
                }
            }
        }
    }
}

TEST_F(ProfileBatchTest, PowerAndAirflowMatchScalarForEveryShape)
{
    for (const Shape &shape : shapes()) {
        const std::size_t n = shape.servers.n;
        for (const Arg &load : argsFrom(loadPool, n)) {
            const std::vector<double> power = run(shape, [&](double *o) {
                bank.predictPower(shape.servers, load.input(), o);
            });
            const std::vector<double> airflow =
                run(shape, [&](double *o) {
                    bank.predictAirflow(shape.servers, load.input(), o);
                });
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(power[i],
                          bank.predictServerPowerW(shape.server[i],
                                                   load.at(i)))
                    << shape.name << " load " << load.name() << " i "
                    << i;
                EXPECT_EQ(airflow[i],
                          bank.predictServerAirflowCfm(shape.server[i],
                                                       load.at(i)))
                    << shape.name << " load " << load.name() << " i "
                    << i;
            }
        }
    }
}

TEST_F(ProfileBatchTest, HottestGpuMatchesScalarForEveryShape)
{
    const std::size_t gpus = static_cast<std::size_t>(
        dc.specs().front().gpusPerServer);
    Rng rng(7);
    for (const Shape &shape : shapes()) {
        const std::size_t n = shape.servers.n;
        for (const Arg &inlet : argsFrom(inletPool, n)) {
            for (const Arg &power : argsFrom(gpuPowerPool, n)) {
                const std::vector<double> out =
                    run(shape, [&](double *o) {
                        bank.predictHottestGpu(shape.servers,
                                               inlet.input(),
                                               power.input(), o);
                    });
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_EQ(out[i], bank.predictHottestGpuC(
                                          shape.server[i], inlet.at(i),
                                          power.at(i)))
                        << shape.name << " inlet " << inlet.name()
                        << " power " << power.name() << " i " << i;
                }
            }

            // Measured per-GPU powers (the risk refresh's input).
            std::vector<double> per_gpu(n * gpus);
            for (double &v : per_gpu)
                v = rng.uniform(60.0, 420.0);
            const std::vector<double> out = run(shape, [&](double *o) {
                bank.predictHottestGpu(shape.servers, inlet.input(),
                                       BatchInput::perGpu(per_gpu.data()),
                                       o);
            });
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(out[i], bank.predictHottestGpuC(
                                      shape.server[i], inlet.at(i),
                                      &per_gpu[i * gpus]))
                    << shape.name << " inlet " << inlet.name()
                    << " per-GPU power, i " << i;
            }
        }
    }
}

TEST_F(ProfileBatchTest, BatchesCoverNewlyProfiledServers)
{
    // Servers profiled after construction (oversubscription racks)
    // must be reachable by every model's batch too.
    const std::size_t before = dc.serverCount();
    dc.addRack(RowId(0));
    thermal.extend();
    bank.profileNewServers(thermal, powerModel, 21);
    const std::size_t after = dc.serverCount();
    ASSERT_GT(after, before);

    const ServerBatch fleet = ServerBatch::firstN(after);
    Rng rng(9);
    std::vector<double> load(after);
    std::vector<double> inlet(after);
    for (std::size_t s = 0; s < after; ++s) {
        load[s] = rng.uniform(-0.2, 1.3);
        inlet[s] = rng.uniform(18.0, 38.0);
    }
    std::vector<double> inlet_out(after);
    std::vector<double> power(after);
    std::vector<double> airflow(after);
    std::vector<double> hottest(after);
    bank.predictInlet(fleet, 30.0, 0.8, inlet_out.data());
    bank.predictPower(fleet, load.data(), power.data());
    bank.predictAirflow(fleet, load.data(), airflow.data());
    bank.predictHottestGpu(fleet, inlet.data(), 250.0, hottest.data());
    for (std::size_t s = 0; s < after; ++s) {
        const ServerId id(static_cast<std::uint32_t>(s));
        EXPECT_EQ(inlet_out[s], bank.predictInletC(id, 30.0, 0.8));
        EXPECT_EQ(power[s], bank.predictServerPowerW(id, load[s]));
        EXPECT_EQ(airflow[s],
                  bank.predictServerAirflowCfm(id, load[s]));
        EXPECT_EQ(hottest[s],
                  bank.predictHottestGpuC(id, inlet[s], 250.0));
    }
}

} // namespace
} // namespace tapas
