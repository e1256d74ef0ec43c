/**
 * @file
 * Figure 18: the real-cluster experiment — 80 servers in two rows,
 * one hour at 1-minute resolution, request-level fidelity.
 *
 * Paper shape: TAPAS's peak row power sits visibly below Baseline's
 * throughout the hour (paper: ~20% lower peak utilization) while
 * latency SLOs and result quality hold. The paper validates its
 * simulator against this experiment with ~4% absolute error; we
 * repeat that cross-check against the flow-level mode.
 */

#include <iostream>

#include "common/table.hh"
#include "common/threadpool.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"
#include "sim/sweep.hh"

using namespace tapas;

int
main()
{
    printBanner(std::cout,
                "Fig. 18: real cluster, 1 hour, 80 servers");

    // Baseline and TAPAS at request level, plus TAPAS at flow level
    // for the simulator cross-validation, as one sweep.
    const SimConfig base_cfg = realClusterScenario(7);
    SimConfig flow_cfg = base_cfg.asTapas();
    flow_cfg.mode = SimMode::FlowLevel;
    ThreadPool pool;
    const auto outcomes = ScenarioSweep(pool).run(
        {{"baseline", base_cfg.asBaseline()},
         {"tapas", base_cfg.asTapas()},
         {"tapas-flow", flow_cfg}});
    const SimMetrics &baseline = outcomes[0].metrics;
    const SimMetrics &tapas = outcomes[1].metrics;
    const SimMetrics &flow = outcomes[2].metrics;

    // Timeline of normalized peak row power at 10-minute marks.
    std::cout << "Normalized peak row power over the hour:\n";
    ConsoleTable timeline({"minute", "baseline", "tapas"});
    const auto &bseries = baseline.peakRowPowerFrac;
    const auto &tseries = tapas.peakRowPowerFrac;
    for (std::size_t i = 0; i < bseries.size(); i += 10) {
        timeline.addRow(
            {std::to_string(bseries.timeAt(i) / kMinute),
             ConsoleTable::num(bseries.valueAt(i), 3),
             ConsoleTable::num(tseries.valueAt(i), 3)});
    }
    timeline.print(std::cout);

    const double baseline_peak = bseries.maxValue();
    const double tapas_peak = tseries.maxValue();
    const double peak_reduction = 1.0 - tapas_peak / baseline_peak;
    const double mean_reduction =
        1.0 - tseries.mean() / bseries.mean();

    std::cout << "\nSummary:\n";
    ConsoleTable summary({"metric", "baseline", "tapas", "paper"});
    summary.addRow({"peak row power (frac of provision)",
                    ConsoleTable::num(baseline_peak, 3),
                    ConsoleTable::num(tapas_peak, 3),
                    "-20% peak"});
    summary.addRow({"peak reduction", "-",
                    ConsoleTable::pct(peak_reduction), "~20%"});
    summary.addRow({"mean peak-row reduction", "-",
                    ConsoleTable::pct(mean_reduction), "-"});
    summary.addRow({"P99 TTFT (s)",
                    ConsoleTable::num(baseline.ttftS.p99(), 2),
                    ConsoleTable::num(tapas.ttftS.p99(), 2),
                    "SLOs maintained"});
    summary.addRow({"SLO attainment",
                    ConsoleTable::pct(baseline.sloAttainment()),
                    ConsoleTable::pct(tapas.sloAttainment()),
                    "maintained"});
    summary.addRow({"mean quality",
                    ConsoleTable::num(baseline.meanQuality(), 3),
                    ConsoleTable::num(tapas.meanQuality(), 3),
                    "unchanged (1.0)"});
    summary.print(std::cout);

    // Simulator cross-validation (paper: 4% absolute error between
    // the real cluster and the simulator).
    const double sim_error =
        std::abs(flow.peakRowPowerFrac.maxValue() - tapas_peak);
    std::cout << "\nRequest-level vs flow-level cross-check "
                 "(paper: ~4% absolute): "
              << ConsoleTable::pct(sim_error) << " absolute on peak "
              << "row power fraction\n";
    return 0;
}
