/**
 * @file
 * Shared plumbing of the svbperf host-time benchmark.
 *
 * svbperf measures the simulator's own cost (host wall time, CPU time
 * and memory), never simulated time: simulated statistics are the
 * paper's measurement, so the benchmark folds them into per-op digests
 * that perfbench/run.py checks against perfbench/expected.json.
 *
 * Output protocol (stdout, one record per line, whitespace separated;
 * perfbench/run.py parses it):
 *
 *   setup <seconds> <probe_ns>           one set-up repetition and the
 *                                        median speed probe around it
 *   op <round> <name> <host_ns> <ok> <digest-hex> [<class>]
 *   probe <ns>                           speed probe after each op
 *   phase <name> <seconds>               measured-phase wall time, less
 *                                        the time spent in opRecord()
 *   proc <peak_rss_kib> <user_s> <sys_s> whole-process rusage
 *   metric <name> <value> <unit>         per-layer metric (traced runs)
 *
 * Spans: a traced run records a span around every call the benchmark
 * makes into a layer's public API (name, start, end, parent, op id),
 * keeps them in memory and writes them out as a Chrome trace at exit.
 * A span's layer is its name up to the first '.'; the root span of an
 * op is named "op".
 */

#ifndef SVBPERF_HARNESS_HH
#define SVBPERF_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/cluster.hh"

namespace svbperf
{

/** Monotonic host time in nanoseconds. */
inline uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

/** FNV-1a 64-bit accumulator over the simulated outputs of one op. */
class Digest
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    add(const std::string &s)
    {
        for (char c : s) {
            h ^= uint8_t(c);
            h *= 1099511628211ull;
        }
        add(uint64_t(s.size()));
    }

    uint64_t value() const { return h; }

  private:
    uint64_t h = 1469598103934665603ull;
};

/** One recorded span (host nanoseconds). */
struct Span
{
    std::string name;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int parent = -1; ///< index into the span list, -1 for a root
    uint64_t op = 0; ///< op id shared by every span of one op
};

/**
 * In-memory span recorder. Disabled recorders cost one branch per
 * scope, so the untraced and traced runs share their code paths.
 */
class Spans
{
  public:
    explicit Spans(bool enabled_arg) : on(enabled_arg) {}

    bool enabled() const { return on; }

    /** Open a span under the innermost open one. @return its index */
    int open(const std::string &name, uint64_t op);
    void close(int idx);

    /**
     * Self time per layer, in seconds: each span's duration minus the
     * part its direct children cover, summed by layer (the span name
     * up to its first '.').
     */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Write every span as a Chrome trace-event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool on;
    std::vector<Span> spans;
    std::vector<int> stack;
};

/** RAII span: open on construction, close on scope exit. */
class Scope
{
  public:
    Scope(Spans &spans_arg, const char *name, uint64_t op)
        : spans(spans_arg), idx(spans.enabled() ? spans.open(name, op) : -1)
    {}
    ~Scope()
    {
        if (idx >= 0)
            spans.close(idx);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans &spans;
    int idx;
};

/** Per-layer samples gathered by a traced run, reduced to medians,
 *  sums or ratios when printed. */
class LayerStats
{
  public:
    void sample(const std::string &name, double v) { samples[name].push_back(v); }
    void addSum(const std::string &name, double v) { sums[name] += v; }

    bool has(const std::string &name) const { return samples.count(name); }
    double median(const std::string &name) const;
    double sum(const std::string &name) const;

  private:
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> sums;
};

/**
 * Whole rounds a run makes: @p seconds over the workload's nominal
 * round time on the reference host, at least @p min_rounds. The work
 * is fixed by the arguments, so two builds of the program always run
 * the same ops and only their speed differs.
 */
unsigned roundsFor(double seconds, double nominal_round_s,
                   unsigned min_rounds);

/** Begin the measured phase. @return its start time for phaseRecord() */
uint64_t phaseStart();

/**
 * Emit a "phase" record for the measured phase that began at @p t0_ns
 * (from phaseStart()): its host seconds less the time opRecord() spent
 * printing and probing since then, so the probes never count as
 * program time.
 */
void phaseRecord(uint64_t t0_ns);

/**
 * Times one set-up repetition. Construction runs speed probes and then
 * starts the clock; finish() stops it, probes again and emits a "setup"
 * record with the median of the probes, so run.py can scale each
 * repetition by the host speed at the time it ran.
 */
class SetupTimer
{
  public:
    SetupTimer();
    void finish();

  private:
    std::vector<uint64_t> probes;
    uint64_t t0;
};

/** Host seconds a traced round spent in untraced and traced ops. */
struct RoundTimes
{
    double plainS = 0.0;
    double tracedS = 0.0;
};

/** Emit the tracing overhead of @p workload: traced over untraced op
 *  time, in percent. */
void overheadMetric(const std::string &workload, const RoundTimes &t);

/** Emit one "metric" record. */
void metric(const std::string &name, double value, const char *unit);

/**
 * Emit one "op" record, then one "probe" record: the time of a fixed
 * unit of host work that shares no code with the simulator (about 8 ms
 * on the reference host). Shared hosts run at a speed that drifts by
 * up to 1.7x over seconds to tens of seconds; run.py divides each op's
 * host time by the median of the probes around it to cancel that drift.
 */
void opRecord(unsigned round, const std::string &name, uint64_t host_ns,
              bool ok, uint64_t digest, const char *cls = nullptr);

/** The run's parameters, shared by every workload. */
struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for checkpoint stores and result caches; the
     *  caller removes it after the run. */
    std::string workdir;
    unsigned setupReps = 3;
};

/** The Chapter-4 cluster configuration (bench/bench_common.hh). */
svb::ClusterConfig chapter4Config(svb::IsaId isa, bool with_stores);

/** Look a function up by name across every suite; fatal if unknown. */
svb::FunctionSpec functionNamed(const std::string &name);

/** Empty @p dir and point the global CheckpointStore at it, dropping
 *  every snapshot the store held in memory. */
void freshStore(const std::string &dir);

/** Guest instructions the Atomic CPUs of @p m have executed since the
 *  last stat reset. */
uint64_t atomicInsts(svb::System &m);

/** Deterministic permutation of [0, n) from @p seed. */
std::vector<size_t> permutation(size_t n, uint64_t seed);

/** Current resident set in KiB (0 when unavailable). */
uint64_t currentRssKib();

/** User and system CPU seconds of this process so far. */
void cpuSeconds(double &user_s, double &sys_s);

/** Remove a directory tree, ignoring errors. */
void removeTree(const std::string &path);

// --- the workloads ---------------------------------------------------------
// Each runs its set-up (args.setupReps times, printing "setup" records),
// then roundsFor() whole rounds of its op list, each round in its own
// seeded order, printing one "op" record per op. A traced call
// (args.trace) instead runs one round in which every op runs untraced
// and then traced, and prints the workload's per-layer metrics.

void runDetailedFresh(const RunArgs &args, Spans &spans);
void runColdstartChurn(const RunArgs &args, Spans &spans);
void runInvocationReplay(const RunArgs &args, Spans &spans);

} // namespace svbperf

#endif // SVBPERF_HARNESS_HH
