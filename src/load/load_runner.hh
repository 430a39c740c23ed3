/**
 * @file
 * The invocation-load runner: sustained request streams against the
 * simulated serverless platform.
 *
 * The Figure-4.1 protocol measures one cold and one warm request per
 * function; production platforms are characterised by *streams* —
 * an arrival rate, a keep-alive policy, and the latency distribution
 * they induce. This runner composes the pieces:
 *
 *  1. Service times are CALIBRATED on the real simulated cluster
 *     (ExperimentRunner::run, RunMode::LoadCal): the measured
 *     cold-path latency of request 1 on a freshly restored instance,
 *     and a
 *     cycle of measured warm-path latencies. Each cold start restores
 *     the PR-2 prepared-state checkpoint instead of re-booting, so a
 *     warm CheckpointStore makes calibration cheap; rows are memoised
 *     in the ResultCache (mode "ldcal").
 *  2. An open-loop ArrivalProcess emits invocation timestamps; an
 *     InstancePool maps each invocation to the cold or warm path and
 *     to a start time (queueing included); the per-invocation
 *     latency (completion - arrival) feeds a LatencyHistogram.
 *  3. Scenario summaries land in the ResultCache as mode-"load" rows;
 *     loadSweep() fans scenarios out across SVBENCH_JOBS workers and
 *     records rows in submission order, so the CSV is byte-identical
 *     to a serial sweep.
 *
 * Everything downstream of calibration is a pure function of the
 * scenario (seed included): identical seeds give byte-identical
 * histograms and cold-start counts at any worker count.
 *
 * Resilience (fault.hh): a scenario may additionally carry a fault
 * model (failed cold starts, instance crashes, stragglers, corrupt
 * restores), a client retry policy (timeouts, decorrelated-jitter
 * backoff) and a per-function circuit breaker. The replay is
 * event-driven (attempt_engine.hh, shared with the workflow engine) —
 * attempt starts and completions interleave on one simulated timeline,
 * failed attempts re-enter it after their backoff, crashed instances
 * go dead in the pool — and splits the latency accounting into goodput
 * vs. error distributions plus an availability figure. With all fault
 * rates zero (the default) the engine replays the exact pre-fault byte
 * stream.
 *
 * Fleet (fleet.hh): a scenario may scale out to N nodes, each with
 * its own InstancePool built from the scenario's PoolConfig, behind
 * a cluster scheduler (random / power-of-two-choices / least-loaded /
 * affinity / cost- and power-weighted routing), per-function
 * concurrency limits, a reactive autoscaler with scale-to-zero and
 * scale-up lag, and scheduled node-level crashes/partitions that
 * compose with the fault layer. Every timeline event carries its node
 * id. The default single-node fleet performs the identical
 * pool-operation and RNG-draw sequence as the pre-fleet engine —
 * byte-identical outputs.
 *
 * Node classes (fleet.hh FleetSpec): a mixed-ISA fleet calibrates one
 * service model PER CLASS — each class with its own SystemConfig gets
 * its own tagged calibration cluster ("<isa>@<class>" cache keys via
 * ClusterConfig::classTag), and every attempt replays the calibrated
 * cold/warm times of the class of the node it actually landed on.
 * calibrationClusters() below is the single source of that mapping;
 * a class-less scenario calibrates exactly the one legacy cluster.
 */

#ifndef SVB_LOAD_LOAD_RUNNER_HH
#define SVB_LOAD_LOAD_RUNNER_HH

#include <string>
#include <vector>

#include "arrival.hh"
#include "core/result_cache.hh"
#include "fault.hh"
#include "fleet.hh"
#include "histogram.hh"
#include "instance_pool.hh"

namespace svb::load
{

/**
 * Registry of the Rng::split substream ids claimed off a scenario's
 * master seed (LoadScenario::seed / WorkflowScenario::seed).
 *
 * Every engine on the load timeline derives ALL of its randomness
 * from `Rng master(seed)` via `master.split(id)`, one dedicated id
 * per concern, so enabling one subsystem can never perturb another's
 * draw sequence (the byte-identity contracts depend on it). This
 * enum is the single claim table — add new subsystems HERE so two
 * engines can't silently collide on a stream id:
 *
 *   id | claimed by        | drawn for
 *   ---+-------------------+----------------------------------------
 *    0 | arrival.hh        | arrival-process inter-arrival times
 *    1 | load_runner.cc    | traffic-mix function choice per invocation
 *    2 | attempt_engine.cc | warm-path service samples
 *    3 | fault.hh          | fault-injection dice (per attempt)
 *    4 | attempt_engine.cc | retry-backoff jitter
 *    5 | fleet.hh          | routing draws (random / power-of-two)
 *    6 | workflow.cc       | workflow engine (reserved for randomised
 *      |                   | per-stage placement; the current policies
 *      |                   | draw nothing from it)
 */
enum StreamId : uint64_t
{
    kStreamArrival = 0,
    kStreamMix = 1,
    kStreamWarm = 2,
    kStreamFault = 3,
    kStreamRetry = 4,
    kStreamRoute = 5,
    kStreamWorkflow = 6,
};

/**
 * Enforce the scenario-name contract shared by LoadScenario and
 * WorkflowScenario: the name is a CSV row-key component, so the
 * cache metacharacters (',', '|', '=') would silently corrupt
 * build/svbench_results.csv rows. Fatal on violation.
 */
void validateScenarioName(const std::string &name);

/** One function of a scenario's traffic mix. */
struct LoadMixEntry
{
    FunctionSpec spec;
    const WorkloadImpl *impl = nullptr;
    double weight = 1.0;
};

/**
 * The knobs of a replay scenario that the attempt engine reads, shared
 * by LoadScenario (one task per invocation) and WorkflowScenario (one
 * DAG instance per invocation).
 */
struct ReplayScenario
{
    /** Row-key component; no ',', '|' or '=' characters (enforced by
     *  the runners and sweeps — a bad name would corrupt the backing
     *  CSV's rows). The cache keys scenario rows by (cluster, name)
     *  alone, so the name must encode every knob below that varies
     *  within a sweep — fault rates, retry/breaker settings and
     *  fleet/routing/autoscaler knobs included. */
    std::string name;
    ClusterConfig cluster;
    ArrivalConfig arrival;
    PoolConfig pool;
    /** Fault model; all-zero rates (the default) are byte-identical
     *  to a build without the fault layer. */
    FaultConfig fault;
    /** Client-side retry/timeout behaviour (default: no retries). */
    RetryPolicy retry;
    /** Per-function circuit breaker (default: disabled). */
    BreakerConfig breaker;
    /** Fleet shape, routing policy, autoscaler and node faults; the
     *  default (one node, least-loaded router) is byte-identical to
     *  the pre-fleet single-pool engine. `pool` above configures each
     *  node's InstancePool. */
    FleetConfig fleet;
    /** Client submissions: invocations, or workflow instances. */
    uint64_t invocations;
    uint64_t seed;

  protected:
    ReplayScenario(uint64_t invocations_arg, uint64_t seed_arg)
        : invocations(invocations_arg), seed(seed_arg)
    {}
};

/** A complete load-scenario description. */
struct LoadScenario : ReplayScenario
{
    LoadScenario() : ReplayScenario(2000, 0x10adULL) {}

    std::vector<LoadMixEntry> mix;
};

/**
 * The calibration platform of one node class over a scenario's base
 * cluster: the base cluster itself when the class carries no system
 * of its own, otherwise the base with the class's SystemConfig and a
 * classTag naming it (so its cache/checkpoint keys are namespaced
 * "<isa>@<class>").
 */
ClusterConfig classCluster(const NodeClass &klass,
                           const ClusterConfig &base);

/**
 * Every calibration platform a scenario needs, one per fleet class
 * group in group order — the [group] axis of the calibration matrix
 * the engines consume. A class-less fleet yields exactly {base}.
 */
std::vector<ClusterConfig> calibrationClusters(const ClusterConfig &base,
                                               const FleetConfig &fleet);

/** @return completions per second over @p span_ns, 0 when the span
 *  is zero (a single-invocation scenario must not report inf/nan). */
double safeRatePerSec(uint64_t events, uint64_t span_ns);

/** @return part/whole as a fraction in [0, 1], 0 when @p whole_ns is
 *  zero; used for the per-node utilisation figures. */
double safeShare(uint64_t part_ns, uint64_t whole_ns);

/**
 * The outcome fields every replay reports, filled by the attempt
 * engine and stored once in both the "load" and the "wflow" cache
 * rows. An invocation is a load request or a workflow instance;
 * attempt counters (retries, crashes, timeouts, injected faults)
 * count attempts of tasks.
 */
struct ReplayResult
{
    std::string scenario;
    uint64_t invocations = 0;
    uint64_t coldStarts = 0;
    uint64_t warmHits = 0;
    uint64_t evictions = 0;
    /** Percentiles of the overall (success + error) distribution. */
    uint64_t p50Ns = 0;
    uint64_t p90Ns = 0;
    uint64_t p99Ns = 0;
    uint64_t p999Ns = 0;
    uint64_t maxNs = 0;
    /** Completed invocations per second of simulated load time. */
    double throughputRps = 0.0;
    uint64_t histoFingerprint = 0;

    // --- resilience outcomes (all zero when faults are disabled) ---
    /** Invocations that eventually returned a good response. */
    uint64_t succeeded = 0;
    /** Invocations shed to a degraded fast path (breaker open, or a
     *  throttle). */
    uint64_t sheds = 0;
    /** Retry attempts issued (attempts beyond each first one). */
    uint64_t retries = 0;
    /** Instance crashes: injected mid-request, or node-level. */
    uint64_t crashes = 0;
    /** Attempts abandoned by the client-side timeout. */
    uint64_t timeouts = 0;
    /** Injected failed cold starts. */
    uint64_t coldStartFailures = 0;
    /** Cold starts that restored a corrupt checkpoint and re-booted. */
    uint64_t corruptRestores = 0;
    /** Injected straggler slowdowns. */
    uint64_t stragglers = 0;
    /** Circuit-breaker open transitions across the scenario's functions. */
    uint64_t breakerOpens = 0;
    /** Goodput (successful-response) latency percentiles. */
    uint64_t goodP50Ns = 0;
    uint64_t goodP99Ns = 0;
    /** Error-response (failed / shed) latency percentile. */
    uint64_t errP99Ns = 0;
    uint64_t goodFingerprint = 0;

    // --- fleet outcomes (single-node defaults when not scaled out) ---
    /** Fleet size of the scenario. */
    uint64_t nodes = 1;
    /** Routing policy (numeric RoutingPolicy value, for the cache). */
    uint64_t policyId = 0;
    /** Peak concurrently-activated nodes (== nodes without the
     *  autoscaler). */
    uint64_t maxActiveNodes = 1;
    /** Attempts rejected by the per-function concurrency limit (each
     *  also counted as a shed). */
    uint64_t throttles = 0;
    /** Node-level crash/partition events applied. */
    uint64_t nodeFaults = 0;
    /** Fleet-wide utilisation: occupied slot-time over the whole
     *  fleet's wall time (idle capacity counts in the denominator). */
    double fleetUtilisation = 0.0;
    /** Node-class groups of the fleet (1 for a class-less fleet). */
    uint64_t classes = 1;
    /** Provisioned fleet power in milliwatts (sum of count x watts
     *  over the class groups; nodes x 1000 for default 1 W classes). */
    uint64_t fleetPowerMw = 1000;
    /** Provisioned fleet cost in milli-$/h (same shape). */
    uint64_t fleetCostMilli = 1000;

    /** Successful invocations as a share of all, in percent. */
    double availabilityPct() const
    {
        return invocations
                   ? 100.0 * double(succeeded) / double(invocations)
                   : 0.0;
    }

    /** Full distributions; empty when the result came from the CSV
     *  cache (summary fields are always populated). `latency` holds
     *  every client-visible completion, `goodLatency` successes only,
     *  `errorLatency` failures and sheds. */
    LatencyHistogram latency;
    LatencyHistogram goodLatency;
    LatencyHistogram errorLatency;
    bool ok = false;
};

/** Scenario outcome: pool stats plus the latency distributions. */
struct LoadResult : ReplayResult
{
    /** Invocations whose attempts were exhausted without success. */
    uint64_t failedInvocations = 0;
    /** Per-node utilisation shares; empty when the result came from
     *  the CSV cache (like the histograms). */
    std::vector<double> nodeUtilisation;
    /** Per-class routed-attempt counts and class names, in group
     *  order; empty when cached or class-less (fresh-only detail). */
    std::vector<uint64_t> classRouted;
    std::vector<std::string> classNames;
};

/**
 * Runs one scenario at a time against a shared ResultCache.
 */
class LoadRunner
{
  public:
    explicit LoadRunner(ResultCache &cache_arg) : cache(cache_arg) {}

    /**
     * Calibrate (through the cache) and simulate @p scenario. Always
     * simulates the stream — only calibration is memoised — so the
     * full histogram is populated.
     */
    LoadResult run(const LoadScenario &scenario);

  private:
    ResultCache &cache;
};

/**
 * Run every scenario, fanned out across SVBENCH_JOBS workers.
 *
 * Phase 1 calibrates every distinct (cluster, function) of the
 * scenario mixes — concurrently, but recorded in submission order.
 * Phase 2 simulates the scenarios concurrently; cached scenario rows
 * are answered inline, fresh summaries are recorded in submission
 * order. The CSV backing file ends up byte-identical to a serial
 * sweep of the same scenario list.
 */
std::vector<LoadResult> loadSweep(ResultCache &cache,
                                  const std::vector<LoadScenario> &scenarios,
                                  unsigned jobs_override = 0);

} // namespace svb::load

#endif // SVB_LOAD_LOAD_RUNNER_HH
