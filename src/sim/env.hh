/**
 * @file
 * On/off environment switches (SVBENCH_FASTWARM, SVBENCH_REAP,
 * SVBENCH_NO_CKPT, SVBENCH_FRESH, SVBENCH_STALLS): one parser, so
 * every switch reads its value the same way.
 */

#ifndef SVB_SIM_ENV_HH
#define SVB_SIM_ENV_HH

namespace svb
{

/**
 * The on/off value of environment variable @p name: exactly "0" is
 * off and exactly "1" is on. Unset or empty gives @p fallback; any
 * other value gives @p fallback too, with a warning the first time
 * the process reads that value of @p name, so "false", "yes" or " 1"
 * never switch anything silently. Thread-safe.
 */
bool envFlag(const char *name, bool fallback);

} // namespace svb

#endif // SVB_SIM_ENV_HH
