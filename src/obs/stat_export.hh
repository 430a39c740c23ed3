/**
 * @file
 * StatGroup snapshot/delta export: the measurement side of the
 * observability layer.
 *
 * A StatSnapshot is a flat dotted-name -> value map taken from a
 * StatGroup tree (StatGroup::snapshotAll()). delta() subtracts two
 * snapshots name-by-name, which is exact for Scalar counters — the
 * only stat kind RequestStats reads. Formula values (cpi, rates) are
 * not additive; a delta consumer recomputes them from the scalar
 * deltas, exactly as RequestStats does.
 *
 * writeJson() re-nests the dotted names into a hierarchical object
 * (system.cpu1.o3.numCycles -> {"system":{"cpu1":{"o3":{...}}}});
 * writeCsv() emits one "name,value" line per stat. Both orderings
 * come from the snapshot's sorted map, so the bytes are deterministic
 * for a given tree state.
 *
 * SVBENCH_STATDUMP=<dir> makes the experiment runner write one
 * JSON+CSV pair per measured request into <dir>, named after its trace
 * track (<isa>_<db><flags>_<function>_<mode>.<cold|warm>). The load
 * and workflow engines name theirs the same way, after the replay's
 * track: <isa>_<db><flags>_<scenario>_load.fault (fault.* counters,
 * when the fault or breaker machinery is engaged), ..._load.fleet
 * (fleet.*, when the fleet machinery is engaged) and ..._wflow.engine
 * (wflow.*, every workflow scenario).
 */

#ifndef SVB_OBS_STAT_EXPORT_HH
#define SVB_OBS_STAT_EXPORT_HH

#include <map>
#include <ostream>
#include <string>

#include "sim/stats.hh"

namespace svb::obs
{

/** Flat dotted-name -> value view of a StatGroup tree. */
using StatSnapshot = std::map<std::string, double>;

/** Capture the current values of every stat under @p group. */
StatSnapshot snapshot(const StatGroup &group);

/**
 * @return after - before, name by name. Names missing from @p before
 * count as 0 (stats created between the snapshots); names missing
 * from @p after are dropped (the tree never loses stats in practice).
 */
StatSnapshot delta(const StatSnapshot &before, const StatSnapshot &after);

/** Look @p name up in @p snap; 0.0 when absent. */
double statValue(const StatSnapshot &snap, const std::string &name);

/** Write @p snap as a hierarchical JSON object (trailing newline). */
void writeJson(std::ostream &os, const StatSnapshot &snap);

/** Write @p snap as "name,value" CSV lines with a header. */
void writeCsv(std::ostream &os, const StatSnapshot &snap);

/**
 * The per-request stat-dump directory: SVBENCH_STATDUMP when set and
 * non-empty, else the empty string (dumping disabled). Read once.
 */
const std::string &statDumpDir();

/**
 * Write @p snap to "<dir>/<stem>.json" and "<dir>/<stem>.csv" under
 * statDumpDir(); @p stem is sanitised ('/' and spaces -> '_'). No-op
 * when dumping is disabled.
 */
void dumpRequestStats(const std::string &stem, const StatSnapshot &snap);

} // namespace svb::obs

#endif // SVB_OBS_STAT_EXPORT_HH
