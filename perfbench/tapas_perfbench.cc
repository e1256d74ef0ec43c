/**
 * @file
 * Host-time and outcome benchmark of ClusterSim (see README.md in this
 * directory for the workloads, the metrics and the layer table).
 *
 * One invocation runs one named workload for a wall-time budget. An
 * episode runs the workload's sims in turn (one, or six small ones):
 * it constructs each from its seed's SimConfig, drives it to the
 * horizon as a closed loop of one caller (the next runSteps(1) is
 * issued only after the previous one returns), checkpoints and digests
 * the horizon state, and restores the checkpoint into a freshly
 * constructed sim whose digest must match. Episodes repeat until the
 * budget is spent, and every episode of one seed must end on the same
 * digest.
 *
 * Steps, saves, restores and digests are timed on the driving thread's
 * CPU clock, which a shared host's hypervisor cannot inflate by
 * running another tenant (construction, which refits on the shared
 * pool, is timed on the wall clock). Episodes of one seed replay the
 * same simulated work, so each operation has one time per episode and
 * counts at its median replay: a disturbance has to hit the same step
 * in half of the episodes to show.
 *
 * Only public ClusterSim calls are timed: the constructor, runSteps,
 * saveCheckpoint, restoreCheckpoint, stateDigest, and the
 * enablePhaseTiming()/phaseTimes() accessors. The program starts no
 * threads; the library's shared pool refits profiles during
 * construction.
 *
 * With --trace 1, every other episode turns on phase timing and
 * records spans in memory, written as Chrome trace-event JSON at exit;
 * the untraced episodes in between give the tracing overhead.
 *
 * Prints one JSON object on stdout: correctness counts, digests, and
 * the metrics (end-to-end without --trace, per-layer with it).
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"

using namespace tapas;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

// ------------------------------------------------------------ workloads --

struct Workload
{
    const char *name;
    SimConfig (*config)(std::uint64_t seed);
    /** Checkpoint every this many steps inside the timed loop; 0 saves
     *  only after the loop, as the restore check's input. */
    int savePeriodSteps;
    /** Independent sims per episode, seeded seed * sims + i, run one
     *  after another: a small scenario's host cost depends on its
     *  seed's VM population, and several populations average it. */
    int sims;
};

/** Paper-scale steady state: 960 servers, one week, no faults. */
SimConfig
fleetWeek(std::uint64_t seed)
{
    return largeScaleScenario(seed).asTapas();
}

/** fig21's costliest cell: +40% racks (1344 servers), half a day. */
SimConfig
oversubPlace(std::uint64_t seed)
{
    SimConfig cfg = largeScaleScenario(seed);
    cfg.oversubscriptionPct = 40;
    cfg.horizon = 12 * kHour;
    return cfg.asTapas();
}

/** The 80-server real cluster, request-level, up to its demand peak. */
SimConfig
clusterRequests(std::uint64_t seed)
{
    SimConfig cfg = realClusterScenario(seed);
    cfg.horizon = 30 * kMinute;
    return cfg.asTapas();
}

/** The fault drill widened to 320 servers with stochastic faults. */
SimConfig
recoveryDrill(std::uint64_t seed)
{
    SimConfig cfg = faultDrillScenario(seed);
    cfg.layout.aisleCount = 4;
    cfg.layout.racksPerRow = 10;
    cfg.vmTrace.endpointCount = 10;
    cfg.horizon = 3 * kDay;
    cfg.faults.ahu.mtbfS = 2.0 * static_cast<double>(kDay);
    cfg.faults.ups.mtbfS = 3.0 * static_cast<double>(kDay);
    cfg.faults.sensor.mtbfS = 4.0 * static_cast<double>(kDay);
    cfg.policy.sensorQuarantineEnabled = true;
    cfg.profileRefitPeriod = 6 * kHour;
    return cfg.asTapas();
}

constexpr Workload kWorkloads[] = {
    {"fleet_week", fleetWeek, 0, 1},
    {"oversub_place", oversubPlace, 0, 1},
    {"cluster_requests", clusterRequests, 0, 6},
    // Hourly, SweepRecovery's default snapshot period at 5-min steps.
    {"recovery_drill", recoveryDrill, 12, 1},
};

/** Stand-alone constructions per run, besides the episodes' own:
 *  construction takes milliseconds, so it is sampled often. */
constexpr int kSetupRounds = 30;

/** glibc's largest fixed mmap threshold on 64-bit hosts (32 MiB):
 *  smaller blocks come from the heap. */
constexpr int kMmapThresholdMax = 32 * 1024 * 1024;

/** The tail is the highest percentile of an episode's steps that has
 *  at least this many steps beyond it. */
constexpr std::size_t kTailBeyond = 10;

// -------------------------------------------------------------- tracing --

/** The step-loop phases in StepPhaseTimes order, named by layer. */
struct Phase
{
    const char *layer;
    double StepPhaseTimes::*seconds;
};

constexpr Phase kPhases[] = {
    {"core.place", &StepPhaseTimes::placeS},
    {"core.risk", &StepPhaseTimes::riskS},
    {"llm.assign", &StepPhaseTimes::assignS},
    {"dcsim.draws", &StepPhaseTimes::drawsS},
    {"dcsim.power", &StepPhaseTimes::powerS},
    {"dcsim.thermal", &StepPhaseTimes::thermalS},
    {"telemetry.record", &StepPhaseTimes::telemetryS},
    {"core.configure", &StepPhaseTimes::configureS},
    {"core.migrate", &StepPhaseTimes::migrateS},
    {"sim.metrics", &StepPhaseTimes::metricsS},
};
constexpr std::size_t kPhaseCount = std::size(kPhases);

/**
 * In-memory span recorder; spans are written as Chrome trace-event
 * JSON when the run ends. A disabled tracer records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled), origin(Clock::now()) {}

    /** Record a span; returns its id (-1 when disabled). */
    int
    add(const char *name, int parent, double start_us, double dur_us)
    {
        if (!on)
            return -1;
        spans.push_back({name, parent, start_us, dur_us});
        return static_cast<int>(spans.size() - 1);
    }

    int
    add(const char *name, int parent, Clock::time_point start,
        Clock::time_point end)
    {
        return add(name, parent, us(start), us(end) - us(start));
    }

    /** Open a span now; close() sets its end. */
    int open(const char *name, int parent)
    { return add(name, parent, us(Clock::now()), 0.0); }

    void
    close(int id)
    {
        if (id >= 0)
            spans[id].durUs = us(Clock::now()) - spans[id].startUs;
    }

    /** Microseconds since the tracer was made. */
    double us(Clock::time_point t) const
    { return secondsBetween(origin, t) * 1e6; }

    bool
    write(const std::string &path, const std::string &run_id) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (!out)
            return false;
        std::fprintf(out, "{\"traceEvents\": [\n");
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(out,
                         "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                         "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                         "\"args\": {\"run\": \"%s\", \"span\": %zu, "
                         "\"parent\": %d}}%s\n",
                         s.name, s.startUs, s.durUs, run_id.c_str(), i,
                         s.parent, i + 1 < spans.size() ? "," : "");
        }
        std::fprintf(out, "]}\n");
        return std::fclose(out) == 0;
    }

  private:
    struct Span
    {
        const char *name;
        int parent;
        double startUs;
        double durUs;
    };

    bool on;
    Clock::time_point origin;
    std::vector<Span> spans;
};

/**
 * CPU seconds of the calling thread. Unlike wall time, this clock does
 * not advance while a shared host's hypervisor runs another tenant
 * (steal), nor while the thread waits for the disk.
 */
double
threadCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Wall and calling-thread CPU seconds of one call. */
struct Timing
{
    double wallS;
    double cpuS;
};

/** Run @p fn, record it as a span, and return its timing. */
template <typename F>
Timing
timed(Tracer &tr, const char *name, int parent, F &&fn)
{
    const double c0 = threadCpuS();
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    const double c1 = threadCpuS();
    tr.add(name, parent, t0, t1);
    return {secondsBetween(t0, t1), c1 - c0};
}

// ------------------------------------------------------------- episodes --

/** SimMetrics figures the report uses, summed over an episode's sims
 *  (SimMetrics itself holds every latency sample, too much to keep). */
struct Outcomes
{
    double sims = 0.0;
    // Per-sim figures, summed; the report shows their mean.
    double peakRowPowerFrac = 0.0;
    double maxGpuTempC = 0.0;
    double sloAttainment = 0.0;
    double powerCappedFrac = 0.0;
    double thermalCappedFrac = 0.0;
    double placeFrac = 0.0;
    // Counts, summed.
    double totalSteps = 0.0;
    double requests = 0.0;
    double vmsPlaced = 0.0;
    double vmsRejected = 0.0;
    double reconfigs = 0.0;
    double powerCapSteps = 0.0;
    double thermalThrottleSteps = 0.0;
    double faultSteps = 0.0;
    double quarantinedServerSteps = 0.0;

    void
    add(const SimMetrics &m)
    {
        const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
        sims += 1.0;
        peakRowPowerFrac += m.peakRowPowerFrac.maxValue();
        maxGpuTempC += m.maxGpuTempC.maxValue();
        sloAttainment += m.sloAttainment();
        powerCappedFrac += m.powerCappedFraction();
        thermalCappedFrac += m.thermalCappedFraction();
        placeFrac += d(m.vmsPlaced) /
            std::max(1.0, d(m.vmsPlaced) + d(m.vmsRejected));
        totalSteps += d(m.totalSteps);
        requests += d(m.requestsCompleted);
        vmsPlaced += d(m.vmsPlaced);
        vmsRejected += d(m.vmsRejected);
        reconfigs += d(m.reconfigs);
        powerCapSteps += d(m.powerCapSteps);
        thermalThrottleSteps += d(m.thermalThrottleSteps);
        faultSteps += d(m.faultSteps);
        quarantinedServerSteps += d(m.quarantinedServerSteps);
    }

    double mean(double Outcomes::*figure) const { return this->*figure / sims; }
};

/** Everything one episode measured, over all of its sims. */
struct Episode
{
    bool traced = false;
    std::vector<double> setupS;
    /** Host CPU ms of each runSteps(1), by step index. */
    std::vector<double> stepMs;
    /** Host CPU ms of each save: the in-loop ones by index, or one
     *  horizon save per sim. */
    std::vector<double> saveMs;
    std::vector<double> restoreMs;
    std::vector<double> digestMs;
    /** Horizon checkpoint bytes, summed over the sims. */
    double checkpointBytes = 0.0;
    /** Horizon stateDigest() of each sim, folded together. */
    std::uint64_t digest = 0;
    std::uint64_t restoredDigest = 0;
    Outcomes outcomes;
    std::size_t servers = 0;
    /** Phase microseconds summed over the loops (traced episodes). */
    double phaseUs[kPhaseCount] = {};
    /** Sum over steps of activeVmCount() (traced episodes). */
    double activeVmSteps = 0.0;
    long attempted = 0;
    long failed = 0;
};

void
fail(Episode &ep, const char *what, const std::string &detail)
{
    ++ep.failed;
    std::fprintf(stderr, "perfbench: %s: %s\n", what, detail.c_str());
}

/** Order-dependent combination of an episode's per-sim digests. */
std::uint64_t
fold(std::uint64_t acc, std::uint64_t digest)
{
    return acc * 1099511628211ULL ^ digest;
}

/** Run one sim of an episode to its horizon and through the restore
 *  check, appending what it measures to @p ep. */
void
runSim(Episode &ep, const Workload &w, const SimConfig &cfg,
       const std::string &ckpt_path, Tracer &tr, int episode_span)
{
    const int expected_steps =
        static_cast<int>((cfg.horizon + cfg.stepLength - 1) /
                         cfg.stepLength);

    std::unique_ptr<ClusterSim> sim;
    const auto construct = [&] {
        // Wall time: construction refits profiles on the shared pool.
        ep.setupS.push_back(timed(tr, "sim.setup", episode_span, [&] {
            sim = std::make_unique<ClusterSim>(cfg);
        }).wallS);
    };
    SimTime saved_at = -1;
    const auto save = [&](int parent) {
        Error err;
        ep.saveMs.push_back(
            1e3 * timed(tr, "sim.checkpoint.save", parent, [&] {
                      err = sim->saveCheckpoint(ckpt_path);
                  }).cpuS);
        ++ep.attempted;
        if (err.ok())
            saved_at = sim->now();
        else
            fail(ep, "save", err.message());
    };

    construct();
    if (ep.traced)
        sim->enablePhaseTiming();
    const int loop_span = tr.open("loop", episode_span);
    for (int i = 0; i < expected_steps; ++i) {
        const SimTime before = sim->now();
        const StepPhaseTimes phases_before = sim->phaseTimes();
        const double c0 = threadCpuS();
        const Clock::time_point t0 = Clock::now();
        sim->runSteps(1);
        const Clock::time_point t1 = Clock::now();
        ep.stepMs.push_back((threadCpuS() - c0) * 1e3);
        ++ep.attempted;
        // runSteps() silently no-ops past the horizon.
        if (sim->now() != std::min(before + cfg.stepLength, cfg.horizon))
            fail(ep, "step", "simulated time did not advance one step");
        if (ep.traced) {
            // Phase children rebuilt from the accessor's deltas, back
            // to back from the step's start in StepPhaseTimes order.
            const int step_span = tr.add("step", loop_span, t0, t1);
            double offset_us = tr.us(t0);
            const StepPhaseTimes &after = sim->phaseTimes();
            for (std::size_t p = 0; p < kPhaseCount; ++p) {
                const double us = 1e6 * (after.*kPhases[p].seconds -
                                         phases_before.*kPhases[p].seconds);
                ep.phaseUs[p] += us;
                tr.add(kPhases[p].layer, step_span, offset_us, us);
                offset_us += us;
            }
            ep.activeVmSteps += static_cast<double>(sim->activeVmCount());
        }
        if (w.savePeriodSteps > 0 && (i + 1) % w.savePeriodSteps == 0)
            save(loop_span);
    }
    tr.close(loop_span);
    if (!sim->finished() ||
        sim->metrics().totalSteps !=
            static_cast<std::uint64_t>(expected_steps))
        fail(ep, "horizon", "episode ended before the horizon");

    // Outside the loop: checkpoint the horizon state (unless the loop
    // just did), digest it, and keep the outcomes.
    const SimTime end_time = sim->now();
    if (saved_at != end_time)
        save(episode_span);
    std::uint64_t digest = 0;
    ep.digestMs.push_back(
        1e3 * timed(tr, "common.serialize.digest", episode_span,
                    [&] { digest = sim->stateDigest(); }).cpuS);
    ep.digest = fold(ep.digest, digest);
    ep.outcomes.add(sim->metrics());
    ep.servers = sim->datacenter().serverCount();
    std::error_code fs_err;
    const std::uintmax_t bytes =
        std::filesystem::file_size(ckpt_path, fs_err);
    if (!fs_err)
        ep.checkpointBytes += static_cast<double>(bytes);
    sim.reset();

    // Restore into a fresh sim, whose digest must equal the
    // straight-through one.
    ++ep.attempted;
    if (saved_at == end_time) {
        construct();
        Error err;
        ep.restoreMs.push_back(
            1e3 * timed(tr, "sim.checkpoint.restore", episode_span, [&] {
                      err = sim->restoreCheckpoint(ckpt_path);
                  }).cpuS);
        if (!err.ok()) {
            fail(ep, "restore", err.message());
        } else {
            const std::uint64_t restored = sim->stateDigest();
            ep.restoredDigest = fold(ep.restoredDigest, restored);
            if (restored != digest)
                fail(ep, "restore",
                     "restored digest differs from the straight-through "
                     "sim");
        }
        sim.reset();
    } else {
        fail(ep, "restore", "no horizon checkpoint to restore");
    }
    std::filesystem::remove(ckpt_path, fs_err);
}

Episode
runEpisode(const Workload &w, const std::vector<SimConfig> &cfgs,
           const std::string &ckpt_path, bool traced, Tracer &tracer,
           int workload_span)
{
    Episode ep;
    ep.traced = traced;
    Tracer off(false);
    Tracer &tr = traced ? tracer : off;
    for (const SimConfig &cfg : cfgs) {
        const int span = tr.open("episode", workload_span);
        runSim(ep, w, cfg, ckpt_path, tr, span);
        tr.close(span);
    }
    return ep;
}

// -------------------------------------------------------------- metrics --

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Median replay of each operation: the median over episodes at each
 * index of one per-episode series. Episodes replay the same simulated
 * work, so a host stall or a contended period moves only the replays
 * it hit. (The fastest replay is an extreme value: it falls as more
 * episodes fit in a run and spreads several times wider across runs.)
 */
std::vector<double>
medianReplays(const std::vector<const Episode *> &eps,
              std::vector<double> Episode::*series)
{
    std::vector<double> out(eps.front()->*series);
    std::vector<double> replays;
    for (std::size_t i = 0; i < out.size(); ++i) {
        replays.clear();
        for (const Episode *ep : eps) {
            const std::vector<double> &v = ep->*series;
            if (i < v.size())
                replays.push_back(v[i]);
        }
        out[i] = median(replays);
    }
    return out;
}

/**
 * Host seconds of one loop at the median replay of each step, plus,
 * when the workload saves inside the loop, its saves and the restore
 * it ends on.
 */
double
loopSeconds(const std::vector<const Episode *> &eps, bool saves_in_loop)
{
    const auto total = [&](std::vector<double> Episode::*series) {
        const std::vector<double> v = medianReplays(eps, series);
        return std::accumulate(v.begin(), v.end(), 0.0);
    };
    double ms = total(&Episode::stepMs);
    if (saves_in_loop)
        ms += total(&Episode::saveMs) + total(&Episode::restoreMs);
    return ms / 1e3;
}

/** Collects metrics and prints them as one JSON object. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const char *unit,
        const std::string &base = "")
    {
        entries.push_back({name, value, unit, base});
    }

    void
    note(const std::string &key, const std::string &json_value)
    {
        notes.emplace_back(key, json_value);
    }

    void
    print(bool correct, long attempted, long failed) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %ld, "
                    "\"failed\": %ld",
                    correct ? "true" : "false", attempted, failed);
        for (const auto &[key, value] : notes)
            std::printf(", \"%s\": %s", key.c_str(), value.c_str());
        std::printf(", \"metrics\": {");
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const Entry &e = entries[i];
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"",
                        i ? ", " : "", e.name.c_str(), e.value, e.unit);
            if (!e.base.empty())
                std::printf(", \"base\": \"%s\"", e.base.c_str());
            std::printf("}");
        }
        std::printf("}}\n");
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
        std::string base;
    };
    std::vector<Entry> entries;
    std::vector<std::pair<std::string, std::string>> notes;
};

std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
maxRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * The step tail: the highest percentile of one episode's steps, at
 * their median replays, that has kTailBeyond steps beyond it.
 * Returns {ms, percentile}.
 */
std::pair<double, double>
stepTail(const std::vector<const Episode *> &eps)
{
    std::vector<double> steps = medianReplays(eps, &Episode::stepMs);
    const std::size_t n = steps.size();
    const std::size_t at = n > kTailBeyond ? n - kTailBeyond - 1 : 0;
    std::nth_element(steps.begin(), steps.begin() + at, steps.end());
    return {steps[at], 100.0 * static_cast<double>(at + 1) /
                static_cast<double>(n)};
}

void
endToEnd(Report &r, const std::vector<const Episode *> &eps,
         bool saves_in_loop, std::vector<double> setup)
{
    for (const Episode *ep : eps)
        setup.insert(setup.end(), ep->setupS.begin(), ep->setupS.end());
    const std::vector<double> steps = medianReplays(eps, &Episode::stepMs);
    const double loop_s = loopSeconds(eps, saves_in_loop);
    const Outcomes &o = eps.front()->outcomes;
    const auto [tail_ms, tail_pct] = stepTail(eps);

    r.add("setup_s", median(setup), "s");
    r.add("steps_per_s", static_cast<double>(steps.size()) / loop_s, "1/s");
    r.add("step_ms_p50", median(steps), "ms");
    r.add("requests_per_s", o.requests / loop_s, "1/s");
    r.add("ckpt_save_ms_p50",
          median(medianReplays(eps, &Episode::saveMs)), "ms");
    r.add("ckpt_restore_ms",
          median(medianReplays(eps, &Episode::restoreMs)), "ms");
    r.add("max_rss_mb", maxRssMb(), "MB");
    r.add("peak_row_power_frac", o.mean(&Outcomes::peakRowPowerFrac),
          "frac");
    r.add("max_gpu_temp_c", o.mean(&Outcomes::maxGpuTempC), "C");
    r.add("slo_attainment", o.mean(&Outcomes::sloAttainment), "frac");
    r.add("vm_place_frac", o.mean(&Outcomes::placeFrac), "frac");

    r.note("step_ms_tail", num(tail_ms));
    r.note("tail_percentile", num(tail_pct));
    r.note("timed_episodes", std::to_string(eps.size()));
    r.note("setup_samples", std::to_string(setup.size()));
    r.note("saves_per_episode", std::to_string(eps.front()->saveMs.size()));
    r.note("power_capped_frac", num(o.mean(&Outcomes::powerCappedFrac)));
    r.note("thermal_capped_frac",
           num(o.mean(&Outcomes::thermalCappedFrac)));
    r.note("vm_reject_frac", num(1.0 - o.mean(&Outcomes::placeFrac)));
}

void
perLayer(Report &r, const std::vector<const Episode *> &traced,
         const std::vector<const Episode *> &untraced, bool saves_in_loop)
{
    // Phase times are means over the traced episodes.
    double steps = 0.0, active = 0.0, requests = 0.0;
    double phase_us[kPhaseCount] = {};
    std::vector<double> setup, digests;
    for (const Episode *ep : traced) {
        steps += static_cast<double>(ep->stepMs.size());
        active += ep->activeVmSteps;
        requests += ep->outcomes.requests;
        for (std::size_t p = 0; p < kPhaseCount; ++p)
            phase_us[p] += ep->phaseUs[p];
        setup.insert(setup.end(), ep->setupS.begin(), ep->setupS.end());
        digests.insert(digests.end(), ep->digestMs.begin(),
                       ep->digestMs.end());
    }
    const char *per_step = "per simulated step";
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
        r.add(std::string(kPhases[p].layer) + "_us",
              phase_us[p] / steps, "us", per_step);
    }
    const auto phase_ns = [&](const char *layer) {
        for (std::size_t p = 0; p < kPhaseCount; ++p) {
            if (std::strcmp(kPhases[p].layer, layer) == 0)
                return phase_us[p] * 1e3;
        }
        return 0.0;
    };
    r.add("core.configure_ns_per_vm",
          phase_ns("core.configure") / std::max(1.0, active), "ns",
          "per active VM per step");
    r.add("llm.assign_ns_per_vm",
          phase_ns("llm.assign") / std::max(1.0, active), "ns",
          "per active VM per step");
    r.add("llm.assign_ns_per_request",
          phase_ns("llm.assign") / std::max(1.0, requests), "ns",
          "per completed request");

    const Episode &last = *traced.back();
    const double save_ms = median(medianReplays(traced, &Episode::saveMs));
    const double bytes = last.checkpointBytes / last.outcomes.sims;
    r.add("common.serialize.digest_ms", median(digests), "ms",
          "stateDigest of the horizon state, no I/O");
    r.add("sim.checkpoint.save_ms", save_ms, "ms", "median save");
    r.add("sim.checkpoint.restore_ms",
          median(medianReplays(traced, &Episode::restoreMs)), "ms",
          "restore into a fresh sim");
    r.add("sim.checkpoint.bytes", bytes, "bytes", "horizon checkpoint");
    r.add("sim.checkpoint.save_mb_per_s", bytes / 1e6 / (save_ms / 1e3),
          "MB/s", "horizon checkpoint bytes over median save");
    r.add("sim.setup_ms", median(setup) * 1e3, "ms",
          "median ClusterSim construction");

    // Work counts: per-step averages of the SimMetrics totals.
    const Outcomes &o = last.outcomes;
    const auto per = [&](double total) { return total / o.totalSteps; };
    r.add("sim.active_vms", active / steps, "count", per_step);
    r.add("core.vms_placed", per(o.vmsPlaced), "count", per_step);
    r.add("core.vms_rejected", per(o.vmsRejected), "count",
          "first-attempt rejections per simulated step");
    r.add("core.place_accept_ratio",
          o.vmsPlaced / std::max(1.0, o.vmsPlaced + o.vmsRejected), "ratio",
          "placed over placed + first-attempt rejections");
    r.add("core.reconfigs", per(o.reconfigs), "count", per_step);
    r.add("llm.requests_completed", per(o.requests), "count", per_step);
    r.add("dcsim.power_cap_steps", per(o.powerCapSteps), "count",
          "capped steps per simulated step");
    r.add("dcsim.thermal_throttle_steps", per(o.thermalThrottleSteps),
          "count", "throttled steps per simulated step");
    r.add("core.fault_steps", per(o.faultSteps), "count",
          "faulted steps per simulated step");
    r.add("core.quarantined_server_steps", per(o.quarantinedServerSteps),
          "count", "quarantined servers per simulated step");

    const auto [tail_ms, tail_pct] = stepTail(untraced);
    char tail_base[64];
    std::snprintf(tail_base, sizeof tail_base,
                  "p%.2f of an episode's steps, untraced", tail_pct);
    r.add("sim.step_ms_tail", tail_ms, "ms", tail_base);

    // Tracing overhead: the phase clocks' cost on the timed steps.
    const double n = static_cast<double>(last.stepMs.size());
    const double traced_rate = n / loopSeconds(traced, saves_in_loop);
    const double untraced_rate = n / loopSeconds(untraced, saves_in_loop);
    r.add("trace.steps_per_s", traced_rate, "1/s",
          "traced episodes, as steps_per_s");
    r.add("trace.overhead_frac", 1.0 - traced_rate / untraced_rate,
          "frac", "1 - traced / untraced steps_per_s");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: tapas_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n"
                 "workloads:");
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name, work_dir;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    if (argc % 2 == 0)
        return usage();
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        if (flag == "--workload")
            workload_name = val;
        else if (flag == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(val, nullptr);
        else if (flag == "--trace")
            trace = std::atoi(val);
        else if (flag == "--work-dir")
            work_dir = val;
        else
            return usage();
    }
    const Workload *w = nullptr;
    for (const Workload &candidate : kWorkloads) {
        if (workload_name == candidate.name)
            w = &candidate;
    }
    if (!w || seconds <= 0.0 || (trace != 0 && trace != 1) ||
        work_dir.empty())
        return usage();

    // Keep freed memory in the heap instead of returning it to the
    // kernel: each episode then reuses the pages of the one before, so
    // restore times and the peak RSS do not depend on when glibc last
    // trimmed the heap.
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    mallopt(M_MMAP_THRESHOLD, kMmapThresholdMax);

    std::vector<SimConfig> cfgs;
    for (int i = 0; i < w->sims; ++i)
        cfgs.push_back(w->config(seed * static_cast<std::uint64_t>(w->sims) +
                                 static_cast<std::uint64_t>(i)));
    const std::string run_id = std::string(w->name) + "-seed" +
        std::to_string(seed) + "-pid" + std::to_string(getpid());
    const std::string ckpt_path = work_dir + "/" + run_id + ".ckpt";
    Tracer tracer(trace == 1);
    const int workload_span = tracer.open(w->name, -1);

    std::vector<double> setup_rounds;
    for (int i = 0; i < kSetupRounds; ++i) {
        setup_rounds.push_back(
            timed(tracer, "sim.setup", workload_span, [&] {
                ClusterSim sim(cfgs.front());
            }).wallS);
    }

    // Whole episodes until the budget is spent. Untraced runs replay
    // every operation at least three times. Traced runs start with a
    // warm-up episode that neither side of the overhead counts, then
    // alternate traced and untraced episodes, two of each.
    const std::size_t min_episodes = trace == 1 ? 5 : 3;
    std::vector<Episode> episodes;
    const Clock::time_point start = Clock::now();
    while (episodes.size() < min_episodes ||
           secondsBetween(start, Clock::now()) < seconds) {
        const bool traced = trace == 1 && episodes.size() % 2 == 1;
        episodes.push_back(runEpisode(*w, cfgs, ckpt_path, traced, tracer,
                                      workload_span));
    }
    tracer.close(workload_span);

    long attempted = 0, failed = 0;
    std::vector<const Episode *> traced_eps, untraced_eps;
    for (const Episode &ep : episodes) {
        const bool warmup = trace == 1 && &ep == &episodes.front();
        attempted += ep.attempted + 1;
        failed += ep.failed;
        if (ep.digest != episodes.front().digest) {
            ++failed;
            std::fprintf(stderr,
                         "perfbench: digest %s of a repeated episode "
                         "differs from %s\n",
                         hex(ep.digest).c_str(),
                         hex(episodes.front().digest).c_str());
        }
        if (!warmup)
            (ep.traced ? traced_eps : untraced_eps).push_back(&ep);
    }

    Report report;
    report.note("workload", quoted(w->name));
    report.note("seed", std::to_string(seed));
    report.note("servers", std::to_string(episodes.front().servers));
    report.note("episodes", std::to_string(episodes.size()));
    report.note("sims_per_episode", std::to_string(w->sims));
    report.note("steps_per_episode",
                std::to_string(episodes.front().stepMs.size()));
    report.note("digest", quoted(hex(episodes.front().digest)));
    report.note("restored_digest",
                quoted(hex(episodes.front().restoredDigest)));
    if (trace == 1) {
        perLayer(report, traced_eps, untraced_eps, w->savePeriodSteps > 0);
        const std::string trace_path = work_dir + "/trace-" + w->name +
            "-seed" + std::to_string(seed) + ".json";
        ++attempted;
        if (!tracer.write(trace_path, run_id)) {
            ++failed;
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_path.c_str());
        }
        report.note("trace_file", quoted(trace_path));
    } else {
        endToEnd(report, untraced_eps, w->savePeriodSteps > 0,
                 std::move(setup_rounds));
    }
    report.print(failed == 0, attempted, failed);
    return 0;
}
