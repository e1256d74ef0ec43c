/**
 * @file
 * ScenarioSweep: parallel execution of independent ClusterSim
 * replications (seeds x configurations) across a thread pool.
 *
 * Every job is a self-contained simulation — its own layout, models,
 * and RNG streams derived from the job's seed — so running jobs
 * concurrently is deterministic: results depend only on each job's
 * SimConfig, never on thread count or scheduling. The benches that
 * run their simulations through it: Fig. 18 (real cluster), Fig. 19
 * (week-long replications), Fig. 20 (policy ablation x mix),
 * Fig. 21 (oversubscription), Table 2 (emergencies) and the fault
 * drill.
 */

#ifndef TAPAS_SIM_SWEEP_HH
#define TAPAS_SIM_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "common/threadpool.hh"
#include "sim/cluster.hh"
#include "sim/config.hh"

namespace tapas {

/** One replication: a named, fully specified simulation. */
struct SweepJob
{
    std::string name;
    SimConfig config;
};

/** One named policy-toggle combination for policy-matrix grids. */
struct PolicyVariant
{
    std::string name;
    bool place = false;
    bool route = false;
    bool config = false;
};

/** Result of one replication. */
struct SweepOutcome
{
    std::string name;
    std::uint64_t seed = 0;
    /** Wall-clock seconds this replication took. */
    double wallS = 0.0;
    /** Full metric set of the finished run. */
    SimMetrics metrics;
    /** True when this run resumed from a recovery snapshot. */
    bool resumed = false;
    /** Process attempts this job has consumed (1 = first try). */
    int attempts = 1;
};

/**
 * Crash-recovery policy for long sweeps. With a checkpoint
 * directory set, every job periodically snapshots its state
 * (atomic write-rename), a restarted sweep resumes each incomplete
 * job from its last good snapshot, and a job whose process keeps
 * dying is quarantined after @ref maxAttempts rather than wedging
 * the sweep forever (see docs/checkpoint-format.md).
 */
struct SweepRecovery
{
    /**
     * Directory (must exist) for per-job snapshots and attempt
     * sidecars; empty disables recovery entirely.
     */
    std::string checkpointDir;
    /** Simulated time between snapshots. */
    SimTime checkpointPeriod = kHour;
    /**
     * Attempts (first try included) a job may consume before it is
     * quarantined as deterministically crashing. Attempts are
     * counted in a sidecar written BEFORE the job runs, so a
     * kill -9 mid-job still consumes one.
     */
    int maxAttempts = 3;

    bool enabled() const { return !checkpointDir.empty(); }

    /** Snapshot path for @p job_name / @p seed (name sanitized). */
    std::string pathFor(const std::string &job_name,
                        std::uint64_t seed) const;
};

/** Parallel scenario-sweep driver. */
class ScenarioSweep
{
  public:
    /**
     * Callback run on the finished simulation (same worker thread)
     * before it is destroyed; use it to extract state beyond
     * SimMetrics (telemetry, profiles, layouts).
     */
    using Inspect =
        std::function<void(const SweepJob &, ClusterSim &)>;

    explicit ScenarioSweep(ThreadPool &pool) : pool(pool) {}

    /**
     * Run every job to its horizon; outcomes are returned in job
     * order regardless of completion order.
     *
     * A failing job does NOT abandon the rest of the grid: every
     * remaining job still runs, and the failures are then reported
     * together in one std::runtime_error whose message carries each
     * dead job's identity (name, index, seed) and cause.
     *
     * With @p recovery enabled, each job snapshots periodically,
     * resumes from its last good snapshot when one exists (corrupt
     * snapshots are discarded with a warning and the job starts
     * fresh), and is quarantined — reported as failed without
     * running — once it has consumed recovery.maxAttempts attempts.
     */
    std::vector<SweepOutcome>
    run(const std::vector<SweepJob> &jobs,
        const Inspect &inspect = {},
        const SweepRecovery &recovery = {}) const;

    /** Cartesian helper: one job per (base variant, seed). */
    static std::vector<SweepJob>
    crossSeeds(const std::vector<SweepJob> &variants,
               const std::vector<std::uint64_t> &seeds);

    /** Cartesian helper: one job per (variant, policy combo). */
    static std::vector<SweepJob>
    crossPolicies(const std::vector<SweepJob> &variants,
                  const std::vector<PolicyVariant> &policies);

    /**
     * Cartesian helper: one job per (variant, oversubscription
     * percentage) — racks added beyond frozen provisioning.
     */
    static std::vector<SweepJob>
    crossOversubscription(const std::vector<SweepJob> &variants,
                          const std::vector<int> &percents);

    /**
     * The paper's eight-way ablation matrix (Fig. 20): every
     * combination of the place/route/config policies from Baseline
     * to full TAPAS, named with the paper's labels.
     */
    static std::vector<PolicyVariant> ablationMatrix();

  private:
    ThreadPool &pool;
};

/**
 * Emit sweep outcomes as a machine-readable `BENCH_<name>.json`
 * (same trajectory format as the perf benches): one case per
 * outcome carrying wall time, steps/s, and the headline evaluation
 * metrics. Returns false (after warning) if the file cannot be
 * written.
 */
bool writeSweepBenchJson(const std::string &path,
                         const std::string &bench,
                         const std::string &mode,
                         const std::vector<SweepOutcome> &outcomes);

} // namespace tapas

#endif // TAPAS_SIM_SWEEP_HH
