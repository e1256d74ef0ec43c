#include "telemetry/profiles.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "common/threadpool.hh"
#include "telemetry/history.hh"

namespace tapas {

namespace {
/** Bench sweep grids for the offline profiling phase. */
const double kOutsideGrid[] = {5.0, 12.0, 16.0, 20.0, 24.0, 28.0,
                               32.0, 36.0};
const double kDcLoadGrid[] = {0.2, 0.5, 0.8, 1.0};
const double kGpuPowerGrid[] = {60.0, 150.0, 250.0, 350.0, 400.0};
const double kInletGrid[] = {18.0, 22.0, 26.0, 30.0};
const double kLoadGrid[] = {0.0, 0.25, 0.5, 0.75, 1.0};
/** Repetitions per grid point (sensor noise averaging). */
constexpr int kReps = 3;
/** Inlet spline hinge locations (piecewise-linear knots). */
constexpr double kInletKnots[] = {15.0, 25.0};
/** Reference conditions for the cold/medium/warm classification. */
constexpr double kRefOutsideC = 24.0;
constexpr double kRefDcLoad = 0.7;
/** Below this fleet size the parallel fit fan-out is overhead. */
constexpr std::size_t kParallelFitThreshold = 64;
/** Coefficient widths of the flat model arrays. */
constexpr std::size_t kInletWidth = 5;
constexpr std::size_t kGpuTempWidth = 3;
constexpr std::size_t kPowerWidth = 4;
constexpr std::size_t kAirflowWidth = 2;

// Refit sanity gate (refitPowerFromTelemetry). The envelope is
// anchored to the offline bench fit, so a slowly drifting sensor
// cannot walk the model away one accepted refit at a time.
/** Minimum telemetry samples before a refit is attempted. */
constexpr std::size_t kRefitMinSamples = 12;
/** Minimum observed load spread to identify the cubic. */
constexpr double kRefitMinLoadSpread = 0.08;
/** Allowed refit deviation from the offline curve, relative. */
constexpr double kRefitEnvelopeFrac = 0.25;
/** Absolute envelope floor, watts. */
constexpr double kRefitEnvelopeFloorW = 250.0;
/** Max refit residual RMS, watts (sensor-noise scale). */
constexpr double kRefitMaxResidualW = 150.0;

/** In-place 4x4 Gaussian elimination with partial pivoting. */
bool
solveNormal4(double a[4][4], double b[4], double *out)
{
    int perm[4] = {0, 1, 2, 3};
    for (int col = 0; col < 4; ++col) {
        int pivot = col;
        for (int r = col + 1; r < 4; ++r) {
            if (std::abs(a[perm[r]][col]) >
                std::abs(a[perm[pivot]][col])) {
                pivot = r;
            }
        }
        std::swap(perm[col], perm[pivot]);
        const double diag = a[perm[col]][col];
        if (std::abs(diag) < 1e-9)
            return false;
        for (int r = col + 1; r < 4; ++r) {
            const double f = a[perm[r]][col] / diag;
            for (int c = col; c < 4; ++c)
                a[perm[r]][c] -= f * a[perm[col]][c];
            b[perm[r]] -= f * b[perm[col]];
        }
    }
    for (int col = 3; col >= 0; --col) {
        double acc = b[perm[col]];
        for (int c = col + 1; c < 4; ++c)
            acc -= a[perm[col]][c] * out[c];
        out[col] = acc / a[perm[col]][col];
    }
    return true;
}

// Each fitted model's expression, written once for the batched
// kernels and the refit gate. Term order matches the scalar
// reference calls exactly, so results are bit-identical to them.

/** Fitted Eq. 1; same term order as PiecewiseLinearModel::predict:
 *  intercept, linear x0, hinges, then the extra linear feature. */
inline double
inletSpline(const double *w, double outside_c, double dc_load_frac)
{
    double acc = w[0];
    acc += w[1] * outside_c;
    acc += w[2] * std::max(0.0, outside_c - kInletKnots[0]);
    acc += w[3] * std::max(0.0, outside_c - kInletKnots[1]);
    acc += w[4] * dc_load_frac;
    return acc;
}

/** Fitted Eq. 2 for one GPU. */
inline double
gpuTempLine(const double *w, double inlet_c, double gpu_power_w)
{
    return w[0] + w[1] * inlet_c + w[2] * gpu_power_w;
}

/** Fitted Eq. 4; same power basis as PolynomialRegression::predict. */
inline double
powerCubic(const double *w, double x)
{
    double acc = w[0];
    double term = x;
    for (std::size_t p = 1; p < kPowerWidth; ++p) {
        acc += w[p] * term;
        term *= x;
    }
    return acc;
}

/** Fitted Eq. 3. */
inline double
airflowLine(const double *w, double x)
{
    return w[0] + w[1] * x;
}

// Shape dispatch of the batched kernels: each kernel body is
// instantiated once per (server set, input) shape, so the shape is
// decided once per call, never per element. The accessors map
// evaluation i to its server index, and to its input value (for
// GPU g).

template <class Fn>
void
withServers(const ServerBatch &servers, std::size_t profiled, Fn &&fn)
{
    switch (servers.kind) {
    case ServerBatch::Kind::FirstN:
        tapas_assert(servers.n <= profiled,
                     "batch of %zu exceeds %zu profiled servers",
                     servers.n, profiled);
        fn([](std::size_t i) { return i; });
        return;
    case ServerBatch::Kind::List:
        fn([ids = servers.ids, profiled](std::size_t i) {
            tapas_assert(ids[i].index < profiled,
                         "server %u not profiled", ids[i].index);
            return static_cast<std::size_t>(ids[i].index);
        });
        return;
    case ServerBatch::Kind::Repeat:
        tapas_assert(servers.one.index < profiled,
                     "server %u not profiled", servers.one.index);
        fn([s = static_cast<std::size_t>(servers.one.index)](
               std::size_t) { return s; });
        return;
    }
}

/**
 * @p map applies to each input value; a shared value is mapped once,
 * before the kernel loop, so the loop sees a plain invariant.
 */
template <class Fn, class Map = std::identity>
void
withInput(const BatchInput &in, Fn &&fn, Map map = {})
{
    tapas_assert(!in.gpuWide, "per-GPU values need predictHottestGpu");
    if (in.each) {
        fn([v = in.each, map](std::size_t i, std::size_t = 0) {
            return map(v[i]);
        });
    } else {
        fn([v = map(in.shared)](std::size_t, std::size_t = 0) { return v; });
    }
}

/**
 * Batched kernel of a load model (power cubic or airflow line): the
 * fitted models saturate outside load [0, 1], so inputs are clamped.
 */
template <double (*Model)(const double *, double), std::size_t Width>
void
predictAtLoad(const ServerBatch &servers, std::size_t profiled,
              const double *coeffs, const BatchInput &load_frac,
              double *out)
{
    const std::size_t n = servers.n;
    withServers(servers, profiled, [&](auto server) {
        auto kernel = [&](auto load) {
            for (std::size_t i = 0; i < n; ++i)
                out[i] = Model(coeffs + server(i) * Width, load(i));
        };
        withInput(load_frac, kernel,
                  [](double x) { return std::clamp(x, 0.0, 1.0); });
    });
}

/** Inlet spline basis rows: {x0, hinge(15), hinge(25), x1}. */
SharedDesign
makeInletDesign()
{
    std::vector<std::vector<double>> rows;
    for (double outside : kOutsideGrid) {
        for (double dc_load : kDcLoadGrid) {
            for (int rep = 0; rep < kReps; ++rep) {
                (void)rep;
                rows.push_back({outside,
                                std::max(0.0,
                                         outside - kInletKnots[0]),
                                std::max(0.0,
                                         outside - kInletKnots[1]),
                                dc_load});
            }
        }
    }
    return SharedDesign(rows);
}

/** Per-GPU temperature line rows: {inlet, gpu_power}. */
SharedDesign
makeGpuTempDesign()
{
    std::vector<std::vector<double>> rows;
    for (double inlet : kInletGrid) {
        for (double gpu_power : kGpuPowerGrid)
            rows.push_back({inlet, gpu_power});
    }
    return SharedDesign(rows);
}

/** Cubic power-polynomial rows: {x, x^2, x^3}. */
SharedDesign
makePowerDesign()
{
    std::vector<std::vector<double>> rows;
    for (double load : kLoadGrid) {
        for (int rep = 0; rep < kReps; ++rep) {
            (void)rep;
            double term = load;
            std::vector<double> row;
            for (int p = 1; p <= 3; ++p) {
                row.push_back(term);
                term *= load;
            }
            rows.push_back(std::move(row));
        }
    }
    return SharedDesign(rows);
}

/** Airflow line rows: {load}. */
SharedDesign
makeAirflowDesign()
{
    std::vector<std::vector<double>> rows;
    for (double load : kLoadGrid)
        rows.push_back({load});
    return SharedDesign(rows);
}

} // namespace

ProfileBank::ProfileBank(const DatacenterLayout &layout_)
    : layout(layout_), inletDesign(makeInletDesign()),
      gpuTempDesign(makeGpuTempDesign()),
      powerDesign(makePowerDesign()),
      airflowDesign(makeAirflowDesign()),
      gpusPerServer(layout_.specs().front().gpusPerServer)
{
}

void
ProfileBank::offlineProfile(const ThermalModel &thermal,
                            const PowerModel &power,
                            std::uint64_t seed)
{
    inletCoeffs.clear();
    gpuTempCoeffs.clear();
    powerCoeffs.clear();
    airflowCoeffs.clear();
    inletBias.clear();
    profiledServers = 0;
    profileRange(0, layout.serverCount(), thermal, power,
                 mixSeed(seed, 0x70726f66ULL));
    recomputeClasses();
}

void
ProfileBank::profileNewServers(const ThermalModel &thermal,
                               const PowerModel &power,
                               std::uint64_t seed)
{
    profileRange(profiledServers, layout.serverCount(), thermal,
                 power, mixSeed(seed, 0x6e657773ULL));
    recomputeClasses();
}

void
ProfileBank::profileRange(std::size_t begin, std::size_t end,
                          const ThermalModel &thermal,
                          const PowerModel &power,
                          std::uint64_t noise_base)
{
    tapas_assert(begin == profiledServers,
                 "servers must be profiled in id order");
    if (begin >= end)
        return;
    const std::size_t count = end - begin;
    const std::size_t gpus =
        static_cast<std::size_t>(gpusPerServer);

    const std::size_t inlet_n = inletDesign.sampleCount();
    const std::size_t gpu_n = gpuTempDesign.sampleCount();
    const std::size_t power_n = powerDesign.sampleCount();
    const std::size_t air_n = airflowDesign.sampleCount();
    tapas_assert(inlet_n <= 128 && gpu_n <= 128 && power_n <= 128 &&
                     air_n <= 128,
                 "observation buffers sized for the bench grids");

    inletCoeffs.resize(end * kInletWidth);
    gpuTempCoeffs.resize(end * gpus * kGpuTempWidth);
    powerCoeffs.resize(end * kPowerWidth);
    airflowCoeffs.resize(end * kAirflowWidth);

    const double inlet_sigma = thermal.config().noiseSigmaC;

    // One server = one unit of work: observe the bench sweep with a
    // counter-based noise stream (seeded by server id, so results
    // are identical for any profiling order and thread count), then
    // solve each model against the shared designs.
    auto profile_server = [&](std::size_t s) {
        const std::size_t idx = begin + s;
        const ServerId id(static_cast<std::uint32_t>(idx));
        Rng rng(mixSeed(noise_base, idx));
        double y[128];

        // Inlet spline: observe Eq. 1 with sensor noise. The
        // noiseless response per grid point is shared by the reps.
        std::size_t k = 0;
        for (double outside : kOutsideGrid) {
            for (double dc_load : kDcLoadGrid) {
                const double clean =
                    thermal
                        .inletTemperature(id, Celsius(outside),
                                          dc_load, 0.0)
                        .value();
                for (int rep = 0; rep < kReps; ++rep) {
                    (void)rep;
                    y[k++] =
                        clean + rng.gaussianFast(0.0, inlet_sigma);
                }
            }
        }
        inletDesign.solveInto(y, &inletCoeffs[idx * kInletWidth]);

        // Per-GPU temperature lines: observe Eq. 2. The ground
        // truth is linear (Eq. 2: inlet + offset + coeff * power),
        // so hoist the per-GPU terms out of the grid walk; the sums
        // associate exactly as gpuTemperature() evaluates them.
        for (std::size_t g = 0; g < gpus; ++g) {
            const double off =
                thermal.gpuOffset(id, static_cast<int>(g));
            const double coeff =
                thermal.gpuCoeff(id, static_cast<int>(g));
            k = 0;
            for (double inlet : kInletGrid) {
                const double base = inlet + off;
                for (double gpu_power : kGpuPowerGrid) {
                    y[k++] = base + coeff * gpu_power +
                        rng.gaussianFast(0.0, 0.3);
                }
            }
            gpuTempDesign.solveInto(
                y,
                &gpuTempCoeffs[(idx * gpus + g) * kGpuTempWidth]);
        }

        // Power polynomial: observe Eq. 4 (cubic for fan law).
        const ServerSpec &spec = layout.specOf(id);
        k = 0;
        for (double load : kLoadGrid) {
            const double clean =
                power.serverPowerAtLoad(spec, load).value();
            for (int rep = 0; rep < kReps; ++rep) {
                (void)rep;
                y[k++] = clean + rng.gaussianFast(0.0, 20.0);
            }
        }
        powerDesign.solveInto(y, &powerCoeffs[idx * kPowerWidth]);

        // Airflow line: observe Eq. 3's per-server fan curve.
        k = 0;
        for (double load : kLoadGrid) {
            y[k++] = thermal.serverAirflow(id, load).value() +
                rng.gaussianFast(0.0, 5.0);
        }
        airflowDesign.solveInto(y,
                                &airflowCoeffs[idx * kAirflowWidth]);
    };

    // Nested pools deadlock (sweep jobs construct simulators on
    // worker threads), and tiny fleets are faster profiled inline.
    if (count >= kParallelFitThreshold &&
        !ThreadPool::onWorkerThread() &&
        ThreadPool::shared().size() > 1) {
        ThreadPool::shared().parallelFor(count, profile_server);
    } else {
        for (std::size_t s = 0; s < count; ++s)
            profile_server(s);
    }

    profiledServers = end;
}

void
ProfileBank::recomputeClasses()
{
    inletBias.resize(profiledServers, 0.0);
    predictInlet(ServerBatch::firstN(profiledServers), kRefOutsideC,
                 kRefDcLoad, inletBias.data());
    std::vector<std::size_t> order(profiledServers);
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return inletBias[a] < inletBias[b];
              });
    classes.assign(profiledServers, ThermalClass::Medium);
    const std::size_t third = profiledServers / 3;
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
        if (rank < third) {
            classes[order[rank]] = ThermalClass::Cold;
        } else if (rank >= profiledServers - third) {
            classes[order[rank]] = ThermalClass::Warm;
        }
    }
    // Normalize bias to the fleet median.
    if (!order.empty()) {
        const double median = inletBias[order[order.size() / 2]];
        for (double &bias : inletBias)
            bias -= median;
    }
}

void
ProfileBank::predictInlet(const ServerBatch &servers,
                          const BatchInput &outside_c,
                          const BatchInput &dc_load_frac,
                          double *out) const
{
    const std::size_t n = servers.n;
    const double *coeffs = inletCoeffs.data();
    withServers(servers, profiledServers, [&](auto server) {
        withInput(outside_c, [&](auto outside) {
            withInput(dc_load_frac, [&](auto dc_load) {
                for (std::size_t i = 0; i < n; ++i) {
                    out[i] = inletSpline(coeffs + server(i) * kInletWidth,
                                         outside(i), dc_load(i));
                }
            });
        });
    });
}

void
ProfileBank::predictPower(const ServerBatch &servers,
                          const BatchInput &load_frac, double *out) const
{
    predictAtLoad<powerCubic, kPowerWidth>(
        servers, profiledServers, powerCoeffs.data(), load_frac, out);
}

void
ProfileBank::predictAirflow(const ServerBatch &servers,
                            const BatchInput &load_frac,
                            double *out) const
{
    predictAtLoad<airflowLine, kAirflowWidth>(
        servers, profiledServers, airflowCoeffs.data(), load_frac, out);
}

void
ProfileBank::predictHottestGpu(const ServerBatch &servers,
                               const BatchInput &inlet_c,
                               const BatchInput &gpu_power_w,
                               double *out) const
{
    const std::size_t n = servers.n;
    const std::size_t gpus = static_cast<std::size_t>(gpusPerServer);
    const std::size_t block = gpus * kGpuTempWidth;
    const double *coeffs = gpuTempCoeffs.data();
    auto kernel = [&](auto server, auto inlet, auto power) {
        // Two evaluations per pass: each max still folds its GPUs in
        // order (bit-identical to the scalar call), but the two max
        // chains are independent, so their latencies overlap. An odd
        // tail pairs the last evaluation with itself.
        for (std::size_t i = 0; i < n; i += 2) {
            const std::size_t j = i + 1 < n ? i + 1 : i;
            const double *wa = coeffs + server(i) * block;
            const double *wb = coeffs + server(j) * block;
            const double inlet_a = inlet(i);
            const double inlet_b = inlet(j);
            double hottest_a = -1e9;
            double hottest_b = -1e9;
            for (std::size_t g = 0; g < gpus; ++g) {
                const std::size_t k = g * kGpuTempWidth;
                hottest_a = std::max(
                    hottest_a, gpuTempLine(wa + k, inlet_a, power(i, g)));
                hottest_b = std::max(
                    hottest_b, gpuTempLine(wb + k, inlet_b, power(j, g)));
            }
            out[j] = hottest_b;
            out[i] = hottest_a;
        }
    };
    withServers(servers, profiledServers, [&](auto server) {
        withInput(inlet_c, [&](auto inlet) {
            if (gpu_power_w.gpuWide) {
                kernel(server, inlet,
                       [v = gpu_power_w.each, gpus](std::size_t i,
                                                    std::size_t g) {
                           return v[i * gpus + g];
                       });
                return;
            }
            withInput(gpu_power_w,
                      [&](auto power) { kernel(server, inlet, power); });
        });
    });
}

double
ProfileBank::predictInletC(ServerId id, double outside_c,
                           double dc_load_frac) const
{
    tapas_assert(id.index < profiledServers,
                 "server %u not profiled", id.index);
    // Same term order as PiecewiseLinearModel::predict: intercept,
    // linear x0, hinges, then the extra linear feature.
    const double *w = &inletCoeffs[id.index * kInletWidth];
    double acc = w[0];
    acc += w[1] * outside_c;
    acc += w[2] * std::max(0.0, outside_c - kInletKnots[0]);
    acc += w[3] * std::max(0.0, outside_c - kInletKnots[1]);
    acc += w[4] * dc_load_frac;
    return acc;
}

double
ProfileBank::predictGpuTempC(ServerId id, int gpu, double inlet_c,
                             double gpu_power_w) const
{
    tapas_assert(id.index < profiledServers,
                 "server %u not profiled", id.index);
    const double *w = &gpuTempCoeffs[(id.index *
                                          static_cast<std::size_t>(
                                              gpusPerServer) +
                                      static_cast<std::size_t>(gpu)) *
                                     kGpuTempWidth];
    return w[0] + w[1] * inlet_c + w[2] * gpu_power_w;
}

double
ProfileBank::predictHottestGpuC(ServerId id, double inlet_c,
                                double per_gpu_power_w) const
{
    tapas_assert(id.index < profiledServers,
                 "server %u not profiled", id.index);
    const double *w =
        &gpuTempCoeffs[id.index *
                       static_cast<std::size_t>(gpusPerServer) *
                       kGpuTempWidth];
    double hottest = -1e9;
    for (int g = 0; g < gpusPerServer; ++g, w += kGpuTempWidth) {
        hottest = std::max(
            hottest,
            w[0] + w[1] * inlet_c + w[2] * per_gpu_power_w);
    }
    return hottest;
}

double
ProfileBank::predictHottestGpuC(ServerId id, double inlet_c,
                                const double *gpu_power_w) const
{
    tapas_assert(id.index < profiledServers,
                 "server %u not profiled", id.index);
    const double *w =
        &gpuTempCoeffs[id.index *
                       static_cast<std::size_t>(gpusPerServer) *
                       kGpuTempWidth];
    double hottest = -1e9;
    for (int g = 0; g < gpusPerServer; ++g, w += kGpuTempWidth) {
        hottest = std::max(
            hottest,
            w[0] + w[1] * inlet_c + w[2] * gpu_power_w[g]);
    }
    return hottest;
}

double
ProfileBank::predictServerPowerW(ServerId id, double load_frac) const
{
    tapas_assert(id.index < profiledServers,
                 "server %u not profiled", id.index);
    // Same inline power basis as PolynomialRegression::predict.
    const double x = std::clamp(load_frac, 0.0, 1.0);
    const double *w = &powerCoeffs[id.index * kPowerWidth];
    double acc = w[0];
    double term = x;
    for (std::size_t p = 1; p < kPowerWidth; ++p) {
        acc += w[p] * term;
        term *= x;
    }
    return acc;
}

double
ProfileBank::predictServerAirflowCfm(ServerId id,
                                     double load_frac) const
{
    tapas_assert(id.index < profiledServers,
                 "server %u not profiled", id.index);
    const double x = std::clamp(load_frac, 0.0, 1.0);
    const double *w = &airflowCoeffs[id.index * kAirflowWidth];
    return w[0] + w[1] * x;
}

ThermalClass
ProfileBank::thermalClass(ServerId id) const
{
    tapas_assert(id.index < profiledServers,
                 "server %u not profiled", id.index);
    return classes[id.index];
}

void
ProfileBank::refitPowerFromTelemetry(const TelemetryStore &store)
{
    tapas_assert(profiled(),
                 "power refit before offline profiling");
    if (fitQuarantinedFlag.size() != profiledServers)
        fitQuarantinedFlag.resize(profiledServers, 0);
    // Anchor the envelope at the offline fit the first time each
    // server is eligible (coefficients are still the bench fit
    // then; refits are the only writer afterwards).
    if (offlinePowerCoeffs.size() < powerCoeffs.size()) {
        offlinePowerCoeffs.insert(
            offlinePowerCoeffs.end(),
            powerCoeffs.begin() +
                static_cast<std::ptrdiff_t>(
                    offlinePowerCoeffs.size()),
            powerCoeffs.end());
    }

    for (std::size_t s = 0; s < profiledServers; ++s) {
        const ServerId id(static_cast<std::uint32_t>(s));
        const SeriesView<ServerSample> samples =
            store.serverSeries(id);
        if (samples.size() < kRefitMinSamples)
            continue;

        // Live loads differ per server, so the shared offline
        // design doesn't apply; accumulate this server's cubic
        // normal equations directly.
        double xtx[4][4] = {};
        double xty[4] = {};
        double lo = 1.0;
        double hi = 0.0;
        for (const ServerSample &sample : samples) {
            const double x = std::clamp(
                static_cast<double>(sample.gpuLoad), 0.0, 1.0);
            lo = std::min(lo, x);
            hi = std::max(hi, x);
            const double basis[4] = {1.0, x, x * x, x * x * x};
            for (int i = 0; i < 4; ++i) {
                for (int j = 0; j < 4; ++j)
                    xtx[i][j] += basis[i] * basis[j];
                xty[i] += basis[i] *
                    static_cast<double>(sample.serverPowerW);
            }
        }
        // One operating point cannot identify a cubic; wait for a
        // wider sweep of observed loads.
        if (hi - lo < kRefitMinLoadSpread)
            continue;

        double w[4];
        if (!solveNormal4(xtx, xty, w))
            continue;

        // Gate 1: the refit curve must stay inside a band around
        // the offline anchor over the whole load range.
        const double *anchor = &offlinePowerCoeffs[s * kPowerWidth];
        bool diverging = false;
        for (const double x : {0.0, 0.25, 0.5, 0.75, 1.0}) {
            const double ref = powerCubic(anchor, x);
            const double tol =
                std::max(kRefitEnvelopeFloorW,
                         kRefitEnvelopeFrac * std::abs(ref));
            if (std::abs(powerCubic(w, x) - ref) > tol) {
                diverging = true;
                break;
            }
        }
        // Gate 2: residuals against the fitted samples stay at
        // sensor-noise scale (a stuck sensor leaves a bimodal cloud
        // no cubic fits tightly).
        if (!diverging) {
            double sq = 0.0;
            for (const ServerSample &sample : samples) {
                const double x = std::clamp(
                    static_cast<double>(sample.gpuLoad), 0.0, 1.0);
                const double resid = powerCubic(w, x) -
                    static_cast<double>(sample.serverPowerW);
                sq += resid * resid;
            }
            const double rms = std::sqrt(
                sq / static_cast<double>(samples.size()));
            diverging = rms > kRefitMaxResidualW;
        }

        if (diverging) {
            ++refitsRejectedCount;
            if (!fitQuarantinedFlag[s]) {
                fitQuarantinedFlag[s] = 1;
                ++fitQuarantinedServers;
            }
            continue; // keep the last accepted model
        }
        ++refitsAcceptedCount;
        if (fitQuarantinedFlag[s]) {
            fitQuarantinedFlag[s] = 0;
            --fitQuarantinedServers;
        }
        double *dst = &powerCoeffs[s * kPowerWidth];
        for (int i = 0; i < 4; ++i)
            dst[i] = w[i];
    }
}

void
ProfileBank::checkpointState(Archive &ar)
{
    ar.podVector(inletCoeffs);
    ar.podVector(gpuTempCoeffs);
    ar.podVector(powerCoeffs);
    ar.podVector(airflowCoeffs);
    ar.podVector(inletBias);
    ar.podVector(classes);
    ar.count(profiledServers);
    ar.value(gpusPerServer);
    ar.podVector(offlinePowerCoeffs);
    ar.podVector(fitQuarantinedFlag);
    ar.count(fitQuarantinedServers);
    ar.value(refitsAcceptedCount);
    ar.value(refitsRejectedCount);
    if (ar.writing())
        return;
    // A CRC-valid file can still carry vectors that disagree with
    // each other or with the layout; the predictions would then
    // read past them.
    const std::size_t n = profiledServers;
    const std::size_t gpus = static_cast<std::size_t>(gpusPerServer);
    const std::size_t quarantined = fitQuarantinedFlag.size() -
        static_cast<std::size_t>(std::count(
            fitQuarantinedFlag.begin(), fitQuarantinedFlag.end(), 0));
    if (n > layout.serverCount() ||
        gpusPerServer != layout.specs().front().gpusPerServer ||
        inletCoeffs.size() != n * kInletWidth ||
        gpuTempCoeffs.size() != n * gpus * kGpuTempWidth ||
        powerCoeffs.size() != n * kPowerWidth ||
        airflowCoeffs.size() != n * kAirflowWidth ||
        inletBias.size() != n || classes.size() != n ||
        offlinePowerCoeffs.size() > powerCoeffs.size() ||
        (!fitQuarantinedFlag.empty() &&
         fitQuarantinedFlag.size() != n) ||
        fitQuarantinedServers != quarantined)
        ar.fail();
}

} // namespace tapas
