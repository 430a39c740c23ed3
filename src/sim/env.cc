#include "env.hh"

#include <cstdlib>
#include <string_view>

#include "logging.hh"

namespace svb
{

bool
envFlag(const char *name, bool fallback)
{
    const char *env = std::getenv(name);
    if (env == nullptr || env[0] == '\0')
        return fallback;
    const std::string_view value(env);
    if (value == "0" || value == "1")
        return value == "1";
    warn("ignoring ", name, "='", value, "' (want 0 or 1); using ",
         fallback ? "1" : "0");
    return fallback;
}

} // namespace svb
