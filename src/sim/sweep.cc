#include "sim/sweep.hh"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/timer.hh"

namespace tapas {

namespace {

/** "grid/s11" -> "grid_s11": safe as a single path component. */
std::string
sanitizeJobName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const bool keep = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
            c == '-' || c == '.' || c == '_';
        if (!keep)
            c = '_';
    }
    return out;
}

/**
 * Attempt sidecar (next to the snapshot): how many times a process
 * has STARTED this job. Written before the job runs so that a crash
 * — even kill -9 — still consumes the attempt.
 */
std::string
attemptsPathFor(const std::string &ckpt_path)
{
    return ckpt_path + ".attempts";
}

int
readAttempts(const std::string &ckpt_path)
{
    Result<std::string> text =
        readFileText(attemptsPathFor(ckpt_path));
    if (!text.ok())
        return 0;
    int n = 0;
    for (char c : text.value()) {
        if (c < '0' || c > '9')
            break;
        n = n * 10 + (c - '0');
        if (n > 1000000)
            break;
    }
    return n;
}

void
writeAttempts(const std::string &ckpt_path, int attempts)
{
    const Error err = atomicWriteFile(
        attemptsPathFor(ckpt_path), std::to_string(attempts));
    if (!err.ok())
        warn("sweep recovery: cannot record attempt: %s",
             err.message().c_str());
}

/** One job's identity for failure reports. */
std::string
jobIdentity(const SweepJob &job, std::size_t index)
{
    return "sweep job '" + job.name + "' (index " +
        std::to_string(index) + ", seed " +
        std::to_string(job.config.seed) + ")";
}

} // namespace

std::string
SweepRecovery::pathFor(const std::string &job_name,
                       std::uint64_t seed) const
{
    return checkpointDir + "/" + sanitizeJobName(job_name) + "_s" +
        std::to_string(seed) + ".tapasckp";
}

std::vector<SweepOutcome>
ScenarioSweep::run(const std::vector<SweepJob> &jobs,
                   const Inspect &inspect,
                   const SweepRecovery &recovery) const
{
    std::vector<SweepOutcome> outcomes(jobs.size());
    // Per-slot failure messages (empty = success): each worker
    // writes only its own slots, so no lock is needed, and the
    // aggregate report below comes out in job order.
    std::vector<std::string> failures(jobs.size());

    // One task per job: replications are coarse enough that finer
    // chunking buys nothing, and job-granular tasks keep the pool's
    // queue trivially balanced.
    pool.parallelChunks(
        jobs.size(),
        [&](std::size_t, std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const SweepJob &job = jobs[i];
                const std::string ckpt = recovery.enabled()
                    ? recovery.pathFor(job.name, job.config.seed)
                    : std::string();
                SweepOutcome &out = outcomes[i];

                // Quarantine gate: a job whose process died
                // maxAttempts times is deterministically crashing —
                // report it instead of wedging the sweep on it
                // forever.
                if (recovery.enabled()) {
                    const int attempts = readAttempts(ckpt);
                    if (attempts >= recovery.maxAttempts) {
                        failures[i] = jobIdentity(job, i) +
                            " quarantined after " +
                            std::to_string(attempts) +
                            " crashing attempts; remove '" +
                            attemptsPathFor(ckpt) + "' to retry";
                        continue;
                    }
                    out.attempts = attempts + 1;
                    writeAttempts(ckpt, out.attempts);
                }

                // A failure in a grid of hundreds of replications
                // is undebuggable without knowing which one died:
                // record it with the job's identity (name carries
                // the grid coordinates, seed the replication) and
                // keep running the rest. The snapshot and attempt
                // sidecar are deliberately left behind so a
                // restarted sweep resumes — or quarantines — this
                // job.
                try {
                    WallTimer timer;
                    ClusterSim sim(job.config);
                    if (recovery.enabled() && fileExists(ckpt)) {
                        const Error err = sim.restoreCheckpoint(ckpt);
                        if (err.ok()) {
                            out.resumed = true;
                        } else {
                            // A torn or stale snapshot is
                            // recoverable: start the job over.
                            warn("sweep job '%s': discarding "
                                 "unusable snapshot: %s",
                                 job.name.c_str(),
                                 err.message().c_str());
                        }
                    }
                    if (recovery.enabled()) {
                        const SimTime step =
                            std::max<SimTime>(1,
                                              job.config.stepLength);
                        const int chunk =
                            static_cast<int>(std::clamp<SimTime>(
                                recovery.checkpointPeriod / step, 1,
                                1 << 30));
                        while (!sim.finished()) {
                            sim.runSteps(chunk);
                            const Error err = sim.saveCheckpoint(ckpt);
                            if (!err.ok())
                                warn("sweep job '%s': snapshot "
                                     "failed: %s",
                                     job.name.c_str(),
                                     err.message().c_str());
                        }
                    } else {
                        sim.run();
                    }
                    out.wallS = timer.elapsedS();
                    out.name = job.name;
                    out.seed = job.config.seed;
                    out.metrics = sim.metrics();
                    if (inspect)
                        inspect(job, sim);
                    if (recovery.enabled()) {
                        removeFileIfExists(ckpt);
                        removeFileIfExists(attemptsPathFor(ckpt));
                    }
                } catch (const std::exception &err) {
                    failures[i] = jobIdentity(job, i) +
                        " failed: " + err.what();
                } catch (...) {
                    failures[i] = jobIdentity(job, i) +
                        " failed with a non-standard exception";
                }
            }
        },
        jobs.size());

    const std::size_t failed = static_cast<std::size_t>(
        std::count_if(failures.begin(), failures.end(),
                      [](const std::string &f) {
                          return !f.empty();
                      }));
    if (failed) {
        std::string report = std::to_string(failed) + " of " +
            std::to_string(jobs.size()) + " sweep jobs failed:";
        for (const std::string &f : failures) {
            if (!f.empty())
                report += "\n  " + f;
        }
        throw std::runtime_error(report);
    }
    return outcomes;
}

std::vector<SweepJob>
ScenarioSweep::crossSeeds(const std::vector<SweepJob> &variants,
                          const std::vector<std::uint64_t> &seeds)
{
    std::vector<SweepJob> out;
    out.reserve(variants.size() * seeds.size());
    for (const SweepJob &variant : variants) {
        for (std::uint64_t seed : seeds) {
            SweepJob job = variant;
            job.config.seed = seed;
            job.name = variant.name + "/s" + std::to_string(seed);
            out.push_back(job);
        }
    }
    return out;
}

std::vector<SweepJob>
ScenarioSweep::crossPolicies(const std::vector<SweepJob> &variants,
                             const std::vector<PolicyVariant>
                                 &policies)
{
    std::vector<SweepJob> out;
    out.reserve(variants.size() * policies.size());
    for (const SweepJob &variant : variants) {
        for (const PolicyVariant &policy : policies) {
            SweepJob job = variant;
            job.config = variant.config.withPolicies(
                policy.place, policy.route, policy.config);
            job.name = variant.name + "/" + policy.name;
            out.push_back(job);
        }
    }
    return out;
}

std::vector<SweepJob>
ScenarioSweep::crossOversubscription(
    const std::vector<SweepJob> &variants,
    const std::vector<int> &percents)
{
    std::vector<SweepJob> out;
    out.reserve(variants.size() * percents.size());
    for (const SweepJob &variant : variants) {
        for (int pct : percents) {
            SweepJob job = variant;
            job.config.oversubscriptionPct = pct;
            job.name =
                variant.name + "/os" + std::to_string(pct);
            out.push_back(job);
        }
    }
    return out;
}

std::vector<PolicyVariant>
ScenarioSweep::ablationMatrix()
{
    return {
        {"Baseline", false, false, false},
        {"Place", true, false, false},
        {"Route", false, true, false},
        {"Config", false, false, true},
        {"Place+Route", true, true, false},
        {"Place+Config", true, false, true},
        {"Route+Config", false, true, true},
        {"TAPAS", true, true, true},
    };
}

bool
writeSweepBenchJson(const std::string &path,
                    const std::string &bench,
                    const std::string &mode,
                    const std::vector<SweepOutcome> &outcomes)
{
    std::vector<BenchCase> cases;
    cases.reserve(outcomes.size());
    for (const SweepOutcome &outcome : outcomes) {
        BenchCase c;
        c.name = outcome.name;
        const SimMetrics &m = outcome.metrics;
        c.set("seed", static_cast<double>(outcome.seed));
        c.set("wall_s", outcome.wallS);
        c.set("steps", static_cast<double>(m.totalSteps));
        if (outcome.wallS > 0.0) {
            c.set("steps_per_s",
                  static_cast<double>(m.totalSteps) / outcome.wallS);
        }
        c.set("peak_row_power_frac", m.peakRowPowerFrac.maxValue());
        c.set("dc_power_mean_w", m.datacenterPowerW.mean());
        c.set("max_gpu_temp_c", m.maxGpuTempC.maxValue());
        c.set("power_capped_frac", m.powerCappedFraction());
        c.set("thermal_capped_frac", m.thermalCappedFraction());
        c.set("slo_attainment", m.sloAttainment());
        c.set("mean_quality", m.meanQuality());
        c.set("total_tokens", m.totalTokens);
        cases.push_back(std::move(c));
    }
    return writeBenchJson(path, bench, mode, cases);
}

} // namespace tapas
