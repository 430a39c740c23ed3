#include "env.hh"

#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>

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
    // Every System reads its switches when it is built, on any sweep
    // worker: one warning per (name, value) is enough.
    static std::mutex mutex;
    static std::set<std::pair<std::string, std::string>> warned;
    const std::lock_guard<std::mutex> lock(mutex);
    if (warned.emplace(name, value).second)
        warn("ignoring ", name, "='", value, "' (want 0 or 1); using ",
             fallback ? "1" : "0");
    return fallback;
}

} // namespace svb
