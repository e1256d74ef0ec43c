// Clean fixture .cc: mentions of banned constructs in comments must
// not fire — e.g. std::random_device, printf(, predictInletC( are
// all fine here because rules match comment-stripped text.
#include "common/good.hh"

#include <cstdio>

namespace tapas_fixture {

/* Block comments are stripped too: std::mutex, std::cout. */
int
format_value(char *buf, int cap, double v)
{
    // snprintf is the sanctioned formatter (R4 bans bare printf).
    return std::snprintf(buf, static_cast<std::size_t>(cap), "%g", v);
}

} // namespace tapas_fixture
