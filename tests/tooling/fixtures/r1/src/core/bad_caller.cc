// R1 fixture: deprecated scalar model entry points called from
// library code. Expected: exactly two R1 violations (the escaped
// call at the bottom must stay silent).
#include "telemetry/profiles.hh"

namespace tapas_fixture {

double
hot_loop_power(const tapas::ProfileBank &profiles, double load)
{
    return profiles.predictServerPowerW(load); // violation: R1
}

double
hot_loop_inlet(const tapas::ProfileBank &profiles, double outside)
{
    return profiles.predictInletC(outside); // violation: R1
}

double
debug_cross_check(const tapas::ProfileBank &profiles, double load)
{
    // lint-allow(R1): cold debug cross-check, not the step loop
    return profiles.predictServerAirflowCfm(load);
}

} // namespace tapas_fixture
