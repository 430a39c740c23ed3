/**
 * @file
 * On-disk memoisation of experiment results.
 *
 * The figures of Chapter 4 reuse each other's measurements (e.g.,
 * Figs 4.15-4.18 replot the data of Figs 4.4 and 4.12). Simulation is
 * bit-deterministic, so results are cached in a CSV file keyed by
 * (ISA, database, function, mode); every bench binary transparently
 * shares it. Delete the file (or set SVBENCH_FRESH=1) to re-measure.
 *
 * Backing file location: SVBENCH_RESULTS when set, otherwise
 * build/svbench_results.csv under the working directory (machine
 * output never lands at the repo root).
 *
 * Row modes and schemas: each row's key ends in a mode tag ("o3",
 * "emu", "ldcal", "load", "wflow", "coldrs") and each mode is described by a RowSchema
 * descriptor (tag, version, field set) — the single source of truth
 * for the "v" version stamp and for completeness validation. Loading
 * a row whose mode is unknown or whose version does not match warns
 * and skips it (the row is re-measured) instead of silently
 * misparsing fields written by a different tool generation. So do
 * rows with a missing or extra field, a value that is not a decimal
 * below 2^64, and a final line without its newline (an append cut
 * short).
 *
 * Thread-safety: every public member may be called concurrently. The
 * row map and CSV append are guarded by one mutex; a "pending" set
 * plus condition variable guarantees that two threads asking for the
 * same key never duplicate a simulation (the second waits for the
 * first's row). Runners are constructed per (configuration, calling
 * thread), never shared across threads — an ExperimentRunner owns a
 * whole ServerlessCluster and is not itself thread-safe.
 */

#ifndef SVB_CORE_RESULT_CACHE_HH
#define SVB_CORE_RESULT_CACHE_HH

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "experiment.hh"

namespace svb
{

/**
 * The on-disk schema of one row mode: its key tag, its schema version
 * (written to and checked against every row's "v" field) and the
 * exact set of data fields a complete row carries. The descriptor
 * table in result_cache.cc is the single source of truth — version
 * checks, completeness validation and the field enumeration all read
 * it, so adding a field to a mode is a one-place change (plus the
 * version bump).
 */
struct RowSchema
{
    const char *mode;   ///< key tag: "o3", "emu", "ldcal", "load", "wflow", "coldrs"
    uint64_t version;   ///< current generation, stored as "v"
    std::vector<std::string> fields; ///< data fields (excluding "v")

    /** @return the descriptor for @p mode, or nullptr if unknown. */
    static const RowSchema *find(const std::string &mode);

    /** Does @p row carry exactly this schema's fields (plus "v")? */
    bool complete(const std::map<std::string, uint64_t> &row) const;
};

/**
 * Lazily-populated store of experiment and scenario rows.
 */
class ResultCache
{
  public:
    /** One row: field name -> value. */
    using Row = std::map<std::string, uint64_t>;

    /**
     * @param path CSV backing file (created on first write); empty
     *             selects SVBENCH_RESULTS, falling back to
     *             build/svbench_results.csv
     */
    explicit ResultCache(std::string path = "");

    /**
     * The unified cache-aware entry point: fetch the row for @p rs
     * (keyed by rs.platform, rs.spec and the mode tag), or measure()
     * it and record the row. Sweeps go through parallelSweep()
     * (core/parallel.hh), which records in submission order.
     */
    RunResult run(const RunSpec &rs);

    /**
     * Run @p rs on this thread's runner for rs.platform without
     * consulting or recording a row: run() is lookup + announce() +
     * measure() + record, and memoisedSweep() (core/parallel.hh)
     * announces its misses from the calling thread, measures them on
     * workers and records them itself.
     */
    RunResult measure(const RunSpec &rs);

    /** Print the "measuring"/"calibrating" progress line of @p rs. */
    void announce(const RunSpec &rs) const;

    /** The CSV row key of (@p cfg, @p spec) under @p mode. */
    std::string rowKey(const ClusterConfig &cfg, const FunctionSpec &spec,
                       RunMode mode) const;

    /** @return true and fill @p out when @p key has a complete row. */
    bool lookupRow(const std::string &key, Row &out);

    /**
     * Store a row: stamps the mode's schema version into "v",
     * validates the field set against the RowSchema descriptor, then
     * appends to the CSV.
     */
    void recordRow(const std::string &key, const Row &fields);

    /**
     * Fetch (or run and record) the detailed cold/warm result for
     * @p spec on a cluster configured by @p cfg.
     */
    FunctionResult detailed(const ClusterConfig &cfg,
                            const FunctionSpec &spec,
                            const WorkloadImpl &impl);

    /** Fetch (or run and record) the emulation-mode result. */
    EmuResult emulated(const ClusterConfig &cfg, const FunctionSpec &spec,
                       const WorkloadImpl &impl);

    /** Fetch (or run and record) the load calibration; blocking. */
    LoadCalibration loadCalibration(const ClusterConfig &cfg,
                                    const FunctionSpec &spec,
                                    const WorkloadImpl &impl);

    /**
     * Key of a scenario summary row under @p mode: "load" and "wflow"
     * (load/load_runner.hh, load/workflow.hh) and "coldrs"
     * (bench/coldstart_restore.cc), whose owners define the fields;
     * rows travel through lookupRow()/recordRow(). @p scenario must not
     * contain the CSV metacharacters ',', '|' or '='.
     */
    std::string scenarioKey(const ClusterConfig &cfg,
                            const std::string &scenario,
                            const std::string &mode) const;

  private:
    std::string keyOf(const ClusterConfig &cfg, const std::string &name,
                      const std::string &mode) const;
    ExperimentRunner &runnerFor(const ClusterConfig &cfg);
    void load();
    /** recordRow() for a caller that holds @ref mtx. */
    void recordLocked(const std::string &key, const Row &fields);

    std::string path;
    bool fresh = false;
    /** The file ends in a line without its newline (guarded by mtx). */
    bool tornTail = false;

    /** Guards rows, pending, and the CSV append. */
    std::mutex mtx;
    std::condition_variable pendingCv;
    /** Keys whose simulation is in flight on some thread. */
    std::set<std::string> pending;
    /** key -> field -> value. */
    std::map<std::string, Row> rows;

    /** Guards runners (map mutation only; runner use is unsynchronised
     *  and safe because entries are keyed by constructing thread). */
    std::mutex runnersMtx;
    /** One live runner per (cluster configuration, thread). */
    std::map<std::string, std::unique_ptr<ExperimentRunner>> runners;
};

/** The row a cacheable result is stored as (o3, emu or ldcal). */
ResultCache::Row packRunResult(const RunResult &res);

/** The @p mode result for function @p name that @p row holds. */
RunResult unpackRunResult(RunMode mode, const std::string &name,
                          const ResultCache::Row &row);

} // namespace svb

#endif // SVB_CORE_RESULT_CACHE_HH
