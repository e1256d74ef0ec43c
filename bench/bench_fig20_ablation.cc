/**
 * @file
 * Figure 20: ablation across the eight policy combinations and the
 * SaaS/IaaS mix sensitivity.
 *
 * Paper shape: each individual policy (Place, Route, Config) trims
 * both maximum temperature and peak power (up to ~12%); pairs do
 * better; full TAPAS does best (-17% temp, -23% power at 50/50).
 * With an all-IaaS fleet only Place helps; an all-SaaS fleet gives
 * TAPAS its biggest wins (-23% temp, -28% power).
 *
 * The (mix x policy) grid runs through ScenarioSweep across the
 * thread pool.
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
    // --quick runs the 50/50 column only.
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick") {
            quick = true;
        } else {
            std::cerr << "bench_fig20_ablation: unknown option '"
                      << argv[i]
                      << "'\nusage: bench_fig20_ablation [--quick]\n";
            return 2;
        }
    }
    printBanner(std::cout,
                "Fig. 20: policy ablation x SaaS/IaaS mix");

    SimConfig cfg = largeScaleScenario(7);
    // A shorter horizon keeps the 8x5 sweep tractable; two days
    // cover two full diurnal cycles.
    cfg.horizon = 2 * kDay;

    const std::vector<std::string> mixes = {"SaaS", "75/25", "50/50",
                                            "25/75", "IaaS"};
    const double saas_fractions[] = {1.0, 0.75, 0.5, 0.25, 0.0};

    // One base job per swept mix column, crossed with the policies;
    // outcomes arrive in job order: columns x policies.
    std::vector<SweepJob> columns;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        if (quick && m != 2)
            continue;
        SweepJob column{mixes[m], cfg};
        column.config.vmTrace.saasFraction = saas_fractions[m];
        columns.push_back(column);
    }
    const std::vector<PolicyVariant> policies =
        ScenarioSweep::ablationMatrix();
    ThreadPool pool;
    const auto outcomes = ScenarioSweep(pool).run(
        ScenarioSweep::crossPolicies(columns, policies));

    std::cout << "Mean max temperature / mean peak row power, "
                 "normalized to Baseline per column:\n\n";
    std::vector<std::string> headers = {"policy"};
    headers.insert(headers.end(), mixes.begin(), mixes.end());
    ConsoleTable table(headers);

    auto cell_text = [&](std::size_t v, std::size_t m) {
        if (quick && m != 2)
            return std::string("-");
        const std::size_t row = (quick ? 0 : m) * policies.size();
        const SimMetrics &cell = outcomes[row + v].metrics;
        const SimMetrics &base = outcomes[row].metrics;
        const double temp =
            cell.maxGpuTempC.mean() / base.maxGpuTempC.mean();
        const double power = cell.peakRowPowerFrac.mean() /
            base.peakRowPowerFrac.mean();
        return ConsoleTable::num(temp, 3) + "/" +
            ConsoleTable::num(power, 3);
    };

    for (std::size_t v = 0; v < policies.size(); ++v) {
        std::vector<std::string> cells = {policies[v].name};
        for (std::size_t m = 0; m < mixes.size(); ++m)
            cells.push_back(cell_text(v, m));
        table.addRow(cells);
    }
    table.print(std::cout);

    std::cout
        << "\nEach cell: temp/power relative to Baseline (lower is "
           "better).\n"
        << "Paper shapes to check: every single policy <= 1.0; "
           "TAPAS lowest at every mix;\n"
        << "all-IaaS column improves only via Place; all-SaaS "
           "column improves the most\n"
        << "(paper: -23% temp, -28% power all-SaaS; -17%/-23% at "
           "50/50).\n";
    return 0;
}
