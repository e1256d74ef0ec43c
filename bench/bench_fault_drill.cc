/**
 * @file
 * Compound-emergency fault drill: the small cluster through a
 * heat-wave day with a scripted chiller derate stacked on the
 * afternoon demand peak (sim/scenario.hh faultDrillScenario),
 * Baseline vs TAPAS, with sensor quarantine armed on the TAPAS run.
 *
 * Emits the per-run robustness report — thermal excursion steps,
 * unresolved power-budget violations, throughput lost during the
 * fault window, and time-to-recover — as a console table and
 * `BENCH_fault_drill.json`.
 *
 * `--check` exits non-zero unless the drill bites (baseline has
 * inlet excursions) and TAPAS strictly dominates the baseline on
 * excursion time — the robustness gate that scripts/check.sh and
 * CI run.
 */

#include <cstring>
#include <iostream>
#include <string>

#include "common/table.hh"
#include "common/threadpool.hh"
#include "common/timer.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"
#include "sim/sweep.hh"

using namespace tapas;

namespace {

BenchCase
reportCase(const SweepOutcome &outcome)
{
    const SimMetrics &m = outcome.metrics;
    BenchCase c;
    c.name = outcome.name;
    c.set("wall_s", outcome.wallS);
    c.set("steps", static_cast<double>(m.totalSteps));
    c.set("inlet_excursion_steps",
          static_cast<double>(m.inletExcursionSteps));
    c.set("inlet_excursion_frac", m.inletExcursionFraction());
    c.set("gpu_excursion_steps",
          static_cast<double>(m.gpuExcursionSteps));
    c.set("power_violation_steps",
          static_cast<double>(m.powerViolationSteps));
    c.set("fault_steps", static_cast<double>(m.faultSteps));
    c.set("fault_active_s", static_cast<double>(m.faultActiveS));
    c.set("fault_loss_frac", m.faultThroughputLossFrac());
    c.set("mean_recovery_s", m.meanRecoveryS());
    c.set("max_recovery_s", static_cast<double>(m.maxRecoveryS));
    c.set("recoveries", static_cast<double>(m.recoveries));
    c.set("quarantined_server_steps",
          static_cast<double>(m.quarantinedServerSteps));
    c.set("total_tokens", m.totalTokens);
    c.set("mean_quality", m.meanQuality());
    c.set("slo_attainment", m.sloAttainment());
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else {
            std::cerr << "bench_fault_drill: unknown option '"
                      << argv[i]
                      << "'\nusage: bench_fault_drill [--check]\n";
            return 2;
        }
    }

    printBanner(std::cout,
                "Fault drill: chiller derate + heat wave + "
                "demand peak");

    const SimConfig cfg = faultDrillScenario(41);
    // The TAPAS run drills the full degradation stack: sensor
    // quarantine armed (a no-op while every sensor stays healthy)
    // and periodic gated profile refits from live telemetry.
    SimConfig tapas_cfg = cfg.asTapas();
    tapas_cfg.policy.sensorQuarantineEnabled = true;
    tapas_cfg.profileRefitPeriod = 6 * kHour;

    ThreadPool pool;
    const auto outcomes = ScenarioSweep(pool).run(
        {{"baseline", cfg.asBaseline()}, {"tapas", tapas_cfg}});

    ConsoleTable table({"metric", "Baseline", "TAPAS"});
    auto row = [&](const char *name, double b, double t,
                   int digits) {
        table.addRow({name, ConsoleTable::num(b, digits),
                      ConsoleTable::num(t, digits)});
    };
    const SimMetrics &bm = outcomes[0].metrics;
    const SimMetrics &tm = outcomes[1].metrics;
    row("inlet excursion steps",
        static_cast<double>(bm.inletExcursionSteps),
        static_cast<double>(tm.inletExcursionSteps), 0);
    row("inlet excursion frac", bm.inletExcursionFraction(),
        tm.inletExcursionFraction(), 4);
    row("gpu excursion steps",
        static_cast<double>(bm.gpuExcursionSteps),
        static_cast<double>(tm.gpuExcursionSteps), 0);
    row("power violation steps",
        static_cast<double>(bm.powerViolationSteps),
        static_cast<double>(tm.powerViolationSteps), 0);
    row("fault-window loss frac", bm.faultThroughputLossFrac(),
        tm.faultThroughputLossFrac(), 4);
    row("mean recovery (s)", bm.meanRecoveryS(), tm.meanRecoveryS(),
        0);
    row("max recovery (s)", static_cast<double>(bm.maxRecoveryS),
        static_cast<double>(tm.maxRecoveryS), 0);
    row("quarantined server steps",
        static_cast<double>(bm.quarantinedServerSteps),
        static_cast<double>(tm.quarantinedServerSteps), 0);
    row("mean quality", bm.meanQuality(), tm.meanQuality(), 3);
    row("total tokens (M)", bm.totalTokens / 1e6,
        tm.totalTokens / 1e6, 1);
    table.print(std::cout);

    writeBenchJson("BENCH_fault_drill.json", "fault_drill", "full",
                   {reportCase(outcomes[0]), reportCase(outcomes[1])});

    if (check) {
        // The robustness gate: the drill must actually stress the
        // plant, and TAPAS must spend strictly less time in thermal
        // excursion than the baseline.
        if (bm.inletExcursionSteps == 0) {
            std::cerr << "CHECK FAIL: drill produced no baseline "
                         "inlet excursions (scenario too mild)\n";
            return 1;
        }
        if (tm.inletExcursionSteps >= bm.inletExcursionSteps) {
            std::cerr << "CHECK FAIL: TAPAS inlet excursion steps ("
                      << tm.inletExcursionSteps
                      << ") not strictly below baseline ("
                      << bm.inletExcursionSteps << ")\n";
            return 1;
        }
        std::cout << "CHECK OK: TAPAS " << tm.inletExcursionSteps
                  << " excursion steps vs baseline "
                  << bm.inletExcursionSteps << "\n";
    }
    return 0;
}
