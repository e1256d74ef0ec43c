/**
 * @file
 * Table 2: behavior under power (UPS, budgets to 75%) and thermal
 * (AHU, airflow to 90%) emergencies during a peak-load period.
 *
 * Paper shape (Baseline vs TAPAS):
 *   Power emergency: Baseline IaaS -35% / SaaS -28% performance at
 *   zero quality cost (uniform frequency caps); TAPAS holds IaaS at
 *   ~0%, improves SaaS throughput (+16%) and pays up to -12%
 *   quality by steering work to smaller/quantized models.
 *   Thermal emergency: Baseline -22%/-19%; TAPAS 0%/+10% at -6%
 *   quality.
 */

#include <iostream>

#include "common/table.hh"
#include "common/threadpool.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"
#include "sim/sweep.hh"

using namespace tapas;

namespace {

/** Mean of a series over [from, to). */
double
windowMean(const TimeSeries &series, SimTime from, SimTime to)
{
    double total = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < series.size(); ++i) {
        const SimTime t = series.timeAt(i);
        if (t >= from && t < to) {
            total += series.valueAt(i);
            ++n;
        }
    }
    return n ? total / n : 0.0;
}

/** The emergency window: peak demand hours 12:00-16:00. */
constexpr SimTime kFaultAt = 12 * kHour;
constexpr SimTime kFaultUntil = 16 * kHour;

/** UPS 0 derated to 75%, or every aisle's AHU group to 90%. */
ScriptedFault
emergency(bool thermal)
{
    ScriptedFault event;
    event.at = kFaultAt;
    event.until = kFaultUntil;
    event.kind = thermal ? FaultKind::Ahu : FaultKind::Ups;
    event.target = thermal ? -1 : 0;
    event.remainingFrac = thermal ? 0.90 : 0.75;
    return event;
}

} // namespace

int
main()
{
    printBanner(std::cout, "Table 2: emergency management");

    // One day; the emergency covers the demand peak hours. SaaS
    // performance is normalized against an identical run WITHOUT
    // the failure (removing the diurnal trend from the comparison),
    // so each policy runs one control plus a UPS and an AHU failed
    // run, all in one sweep: jobs 3p, 3p+1, 3p+2 for policy p.
    SimConfig cfg = largeScaleScenario(7);
    cfg.horizon = kDay;
    const SweepJob policies[] = {{"Baseline", cfg.asBaseline()},
                                 {"TAPAS", cfg.asTapas()}};
    std::vector<SweepJob> jobs;
    for (const SweepJob &policy : policies) {
        jobs.push_back({policy.name + "/control", policy.config});
        for (bool thermal : {false, true}) {
            SweepJob failed = policy;
            failed.name += thermal ? "/ahu" : "/ups";
            failed.config.faults.scripted.push_back(
                emergency(thermal));
            jobs.push_back(failed);
        }
    }
    ThreadPool pool;
    const auto outcomes = ScenarioSweep(pool).run(jobs);

    // Read from half an hour into the emergency to its end.
    const SimTime from = kFaultAt + 30 * kMinute;
    const SimTime to = kFaultUntil;
    // Paper figures per [thermal][policy].
    const char *paper[2][2] = {
        {"-35%/-28%, qual 0%", "0%/+16%, qual -12%"},
        {"-22%/-19%, qual 0%", "0%/+10%, qual -6%"}};
    ConsoleTable table({"emergency", "policy", "IaaS perf",
                        "SaaS perf", "SaaS quality", "paper"});
    for (int thermal = 0; thermal < 2; ++thermal) {
        const char *kind = thermal ? "Thermal (AHU, 90%)"
                                   : "Power (UPS, 75%)";
        for (std::size_t p = 0; p < 2; ++p) {
            const SimMetrics &control = outcomes[3 * p].metrics;
            const SimMetrics &failed =
                outcomes[3 * p + 1 + thermal].metrics;
            // SaaS served tokens during the emergency vs control.
            const double served =
                windowMean(failed.saasServedTps, from, to);
            const double served_control =
                windowMean(control.saasServedTps, from, to);
            const double saas_delta = served_control > 0.0
                ? served / served_control - 1.0
                : 0.0;
            table.addRow(
                {kind, policies[p].name,
                 ConsoleTable::pct(
                     -windowMean(failed.iaasPerfPenalty, from, to)),
                 ConsoleTable::pct(saas_delta),
                 ConsoleTable::num(
                     windowMean(failed.saasQuality, from, to), 3),
                 paper[thermal][p]});
        }
    }
    table.print(std::cout);

    std::cout
        << "\nIaaS perf = mean frequency-cap deficit during the "
           "emergency (0% = never capped).\n"
        << "SaaS perf = served token rate versus the pre-emergency "
           "peak window.\n"
        << "Paper shape: Baseline takes uniform frequency caps "
           "(both columns negative, quality\n"
        << "untouched); TAPAS spares IaaS, maintains or improves "
           "SaaS throughput, and pays a\n"
        << "bounded quality cost by shifting load to smaller/"
           "quantized models.\n";
    return 0;
}
