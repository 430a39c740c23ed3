/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn, inform.
 *
 * panic()  — a simulator bug; aborts.
 * fatal()  — a user/configuration error; exits with status 1.
 * warn()   — functionality that might not be modelled exactly.
 * inform() — plain status output.
 *
 * This is the one sink shared by every simulation thread, so
 * logMessage() serialises writes under a mutex (whole lines, never
 * torn). Everything else in sim/ (StatGroup, Rng, serialization) is
 * instance-scoped state owned by a single System and needs no
 * locking.
 */

#ifndef SVB_SIM_LOGGING_HH
#define SVB_SIM_LOGGING_HH

#include <sstream>
#include <string>

namespace svb
{

/** Severity levels understood by the logging sink. */
enum class LogLevel { Inform, Warn, Fatal, Panic };

/**
 * Route a formatted message to the logging sink.
 *
 * @param level severity of the message
 * @param msg   fully formatted message text
 */
void logMessage(LogLevel level, const std::string &msg);

namespace detail
{

/** Fold a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

} // namespace detail

/** Report a simulator bug and abort. */
template <typename... Args>
[[noreturn]] void
panicAt(const char *file, int line, Args &&...args)
{
    detail::panicImpl(file, line,
                      detail::concat(std::forward<Args>(args)...));
}

/** Report an unrecoverable user error and exit(1). */
template <typename... Args>
[[noreturn]] void
fatalAt(const char *file, int line, Args &&...args)
{
    detail::fatalImpl(file, line,
                      detail::concat(std::forward<Args>(args)...));
}

/** Emit a warning about imperfectly modelled behaviour. */
template <typename... Args>
void
warn(Args &&...args)
{
    logMessage(LogLevel::Warn,
               detail::concat(std::forward<Args>(args)...));
}

/** Emit an informational status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    logMessage(LogLevel::Inform,
               detail::concat(std::forward<Args>(args)...));
}

#define svb_panic(...) ::svb::panicAt(__FILE__, __LINE__, __VA_ARGS__)
#define svb_fatal(...) ::svb::fatalAt(__FILE__, __LINE__, __VA_ARGS__)

/** Assert an invariant that indicates a simulator bug when violated. */
#define svb_assert(cond, ...)                                              \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::svb::panicAt(__FILE__, __LINE__, "assertion '" #cond         \
                           "' failed: ", ##__VA_ARGS__);                   \
        }                                                                  \
    } while (0)

} // namespace svb

#endif // SVB_SIM_LOGGING_HH
