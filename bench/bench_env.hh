/**
 * @file
 * One place for the SVBENCH_* token knobs the figure/table binaries
 * read directly (on/off switches go through envFlag() in
 * src/sim/env.hh; the library-level knobs — SVBENCH_JOBS,
 * SVBENCH_RESULTS, ... — are parsed where they are consumed, in
 * src/core and src/load).
 *
 * Benches splice env-provided tokens into scenario names, and
 * scenario names are ResultCache row-key components where ',', '|',
 * '=' and whitespace are structural metacharacters — a stray comma
 * would silently corrupt the CSV cache. Every helper that can feed a
 * row key therefore validates its tokens and panics on a bad value
 * instead of caching garbage.
 */

#ifndef SVB_BENCH_BENCH_ENV_HH
#define SVB_BENCH_BENCH_ENV_HH

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace svb::benchenv
{

/** The raw value of @p name, or @p fallback when unset/empty. */
inline std::string
value(const char *name, const std::string &fallback)
{
    const char *env = std::getenv(name);
    return (env != nullptr && env[0] != '\0') ? std::string(env)
                                              : fallback;
}

/** True when @p tok is safe to splice into a cache row key: no
 *  ',' / '|' / '=' metacharacters and no whitespace. */
inline bool
validToken(const std::string &tok)
{
    return !tok.empty() &&
           tok.find_first_of(",|= \t\r\n") == std::string::npos;
}

/**
 * A single scenario-name token from @p name (or @p fallback when
 * unset). Panics on metacharacters rather than letting a malformed
 * token reach the ResultCache key space.
 */
inline std::string
scenarioToken(const char *name, const std::string &fallback)
{
    const std::string tok = value(name, fallback);
    if (!validToken(tok))
        svb_panic(name, ": '", tok, "' is not a valid scenario token "
                  "(no ',', '|', '=' or whitespace)");
    return tok;
}

/**
 * A comma-separated token list from @p name (or @p fallback when
 * unset), each element validated like scenarioToken(). Empty elements
 * ("a,,b", trailing comma) panic too.
 */
inline std::vector<std::string>
tokenList(const char *name, const std::string &fallback)
{
    const std::string raw = value(name, fallback);
    std::vector<std::string> toks;
    size_t start = 0;
    while (true) {
        const size_t comma = raw.find(',', start);
        const std::string tok = raw.substr(
            start, comma == std::string::npos ? comma : comma - start);
        if (!validToken(tok))
            svb_panic(name, ": bad list element '", tok, "' in '", raw,
                      "'");
        toks.push_back(tok);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return toks;
}

} // namespace svb::benchenv

#endif // SVB_BENCH_BENCH_ENV_HH
