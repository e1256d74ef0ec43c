/**
 * @file
 * Figure 21: time under thermal/power capping versus datacenter
 * oversubscription (racks added beyond frozen cooling/power
 * provisioning).
 *
 * Paper shape: with no oversubscription neither policy gets capped;
 * Baseline starts capping hard past ~20% added racks; TAPAS holds
 * capping under 0.7% of time up to 40% oversubscription.
 *
 * The (policy x oversubscription) grid is built with the
 * ScenarioSweep helpers and fanned across the thread pool; results
 * are also emitted as `BENCH_fig21_oversubscription.json`.
 */

#include <iostream>
#include <string>

#include "common/table.hh"
#include "common/threadpool.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"
#include "sim/sweep.hh"

using namespace tapas;

int
main(int argc, char **argv)
{
    // --quick runs one simulated day instead of two.
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick") {
            quick = true;
        } else {
            std::cerr << "bench_fig21_oversubscription: unknown option '"
                      << argv[i]
                      << "'\nusage: bench_fig21_oversubscription "
                         "[--quick]\n";
            return 2;
        }
    }
    printBanner(std::cout,
                "Fig. 21: oversubscription vs capped time");

    SimConfig cfg = largeScaleScenario(7);
    cfg.horizon = quick ? kDay : 2 * kDay;

    const std::vector<int> levels = {0, 10, 20, 30, 40, 50};
    const std::vector<PolicyVariant> policies = {
        {"baseline", false, false, false},
        {"tapas", true, true, true},
    };
    const auto jobs = ScenarioSweep::crossOversubscription(
        ScenarioSweep::crossPolicies({{"fig21", cfg}}, policies),
        levels);

    ThreadPool pool;
    const auto outcomes = ScenarioSweep(pool).run(jobs);

    // Outcomes arrive in job order: policies x levels.
    auto outcome_at = [&](std::size_t policy, std::size_t level)
        -> const SweepOutcome & {
        return outcomes[policy * levels.size() + level];
    };

    ConsoleTable table({"oversub", "thermal base", "power base",
                        "thermal tapas", "power tapas"});
    for (std::size_t l = 0; l < levels.size(); ++l) {
        const SimMetrics &base = outcome_at(0, l).metrics;
        const SimMetrics &tapas = outcome_at(1, l).metrics;
        table.addRow(
            {levels[l] == 0 ? "None"
                            : std::to_string(levels[l]) + "%",
             ConsoleTable::pct(base.thermalCappedFraction(), 2),
             ConsoleTable::pct(base.powerCappedFraction(), 2),
             ConsoleTable::pct(tapas.thermalCappedFraction(), 2),
             ConsoleTable::pct(tapas.powerCappedFraction(), 2)});
    }
    table.print(std::cout);

    const std::string path = "BENCH_fig21_oversubscription.json";
    if (writeSweepBenchJson(path, "fig21_oversubscription",
                            quick ? "quick" : "full", outcomes)) {
        std::cout << "\nResults written to " << path << "\n";
    }

    std::cout
        << "\nPaper shapes to check: None ~ no capping for either "
           "policy; Baseline capping\n"
        << "grows quickly past 20% added racks; TAPAS stays below "
           "~0.7% capped time through\n"
        << "40% oversubscription (safe oversubscription window "
           "+40%).\n";
    return 0;
}
