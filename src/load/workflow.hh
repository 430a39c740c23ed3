/**
 * @file
 * The workflow engine: composed serverless functions scheduled as
 * DAGs over the invocation-load timeline.
 *
 * SeBS-Flow (PAPERS.md) benchmarks serverless *workflows* — chains,
 * fan-out/fan-in, map-reduce — and finds end-to-end latency is
 * governed by inter-function payload transfer and stage scheduling,
 * not just per-function service time. This engine composes the
 * existing substrate into exactly that shape:
 *
 *  - a WorkflowSpec (dag.hh) names stages over the scenario's
 *    calibrated functions; an open-loop ArrivalProcess emits workflow
 *    *instances*, each executing every stage task of the DAG;
 *  - stage tasks are scheduled onto the PR-7 Fleet: per-stage
 *    placement is pluggable — Inherit routes through the fleet's
 *    policy, PayloadAffinity co-locates a task with its
 *    largest-payload producer (warm-cache hand-off);
 *  - inter-stage payloads are priced through a modelled transfer
 *    cost: a local (same node) hand-off is a DRAM-speed copy, a
 *    cross-node hop pays network base latency plus a far slower
 *    per-byte rate;
 *  - the fault/retry/breaker layer (fault.hh) applies per stage
 *    task: a failed task retries with backoff WITHOUT re-running its
 *    completed predecessors; exhausted retries fail the workflow;
 *  - per-task spans land on the scenario's obs track, and each
 *    completed workflow's critical path is computed by walking the
 *    last-finishing task's determining-predecessor chain — the
 *    per-stage attribution sums exactly to the end-to-end latency.
 *
 * Every stage-task attempt runs on the AttemptEngine
 * (attempt_engine.hh) that also replays plain load streams; this file
 * adds only the DAG policy (task layout, predecessor countdown,
 * placement hint, transfer charge, critical-path walk).
 *
 * Determinism contract: all randomness comes from the StreamId
 * substreams of the scenario seed (load_runner.hh) and events resolve
 * in (time, push-seq) order, so results are byte-identical at any
 * SVBENCH_JOBS. A single-stage workflow drives the engine exactly as
 * a one-function load stream does, so it reproduces the load-path
 * numbers bit-for-bit (tests/test_workflow.cc pins this).
 *
 * Results are memoised in the ResultCache as mode-"wflow" rows
 * (RowSchema-registered); workflowSweep() fans scenarios across
 * SVBENCH_JOBS workers with submission-order recording, keeping the
 * backing CSV byte-identical to a serial sweep.
 */

#ifndef SVB_LOAD_WORKFLOW_HH
#define SVB_LOAD_WORKFLOW_HH

#include <string>
#include <vector>

#include "dag.hh"
#include "load_runner.hh"

namespace svb::load
{

/**
 * Inter-stage payload transfer cost: ns = base + bytes * nsPerKib /
 * 1024, on the local (consumer lands on the producer's node: the
 * payload is handed off through the node's warm cache/DRAM) or remote
 * (cross-node copy over the interconnect) tier. A zero-byte payload
 * moves nothing and costs nothing.
 */
struct TransferModel
{
    /** Same-node hand-off setup (cache-line ownership transfer). */
    uint64_t localBaseNs = 2'000; // 2 us
    /** Same-node per-KiB rate: ~100 GB/s DRAM-resident copy. */
    uint64_t localNsPerKib = 10;
    /** Cross-node setup (RPC + serialisation). */
    uint64_t remoteBaseNs = 60'000; // 60 us
    /** Cross-node per-KiB rate: ~3.2 GB/s network copy. */
    uint64_t remoteNsPerKib = 320;

    /** The modelled cost of moving @p bytes (0 when bytes == 0). */
    uint64_t costNs(uint64_t bytes, bool local) const;
};

/**
 * A complete workflow-scenario description. The inherited arrival
 * process emits workflow instances (not stage tasks), and
 * `invocations` counts instances; fault, retry and breaker settings
 * apply per stage task.
 */
struct WorkflowScenario : ReplayScenario
{
    WorkflowScenario() : ReplayScenario(500, 0xdafULL) {}

    /** Calibrated functions the DAG's stages index into. */
    std::vector<LoadMixEntry> functions;
    /** The DAG (validated against functions.size() on run). */
    WorkflowSpec dag;
    TransferModel transfer;
};

/** Per-stage slots the "wflow" cache row reserves for critical-path
 *  attribution; stages beyond this are simulated fine but their
 *  attribution shares are not memoised. */
constexpr size_t kMaxCritSlots = 12;

/**
 * Scenario outcome: end-to-end distributions plus the critical-path
 * attribution and transfer accounting. The inherited fields count
 * workflow instances (a success completed every task; a shed or
 * throttle ended the instance), and their latencies run from arrival
 * to the last task's completion.
 */
struct WorkflowResult : ReplayResult
{
    /** Instances that exhausted a task's retries. */
    uint64_t failedWorkflows = 0;
    /** DAG shape echoed for cached rows. */
    uint64_t stages = 0;
    uint64_t tasksPerWorkflow = 0;
    /** FNV over the per-stage critical-path totals: the determinism
     *  probe for the attribution itself. */
    uint64_t critFingerprint = 0;

    // --- inter-stage transfer accounting --------------------------------
    /** Payload hops served as same-node hand-offs / cross-node copies. */
    uint64_t transfersLocal = 0;
    uint64_t transfersRemote = 0;
    uint64_t bytesLocal = 0;
    uint64_t bytesRemote = 0;
    /** Total modelled transfer time charged. */
    uint64_t transferNs = 0;

    /** Placement hints honoured vs fallen back to the routing policy
     *  (PayloadAffinity stages asking for an unroutable producer
     *  node): the observable cost of affinity misses. */
    uint64_t preferredHits = 0;
    uint64_t preferredMisses = 0;

    /**
     * Critical-path attribution: per-stage share (permil of the
     * summed critical time over all succeeded instances; sums to
     * ~1000). Sized to the DAG's stage count; the first kMaxCritSlots
     * survive the cache round-trip, the rest only on fresh runs.
     */
    std::vector<uint64_t> critPermil;
    /** Raw per-stage critical-path nanosecond totals (fresh runs
     *  only; empty when the result came from the CSV cache). */
    std::vector<uint64_t> critNsByStage;
    /** Per-stage transfer ns charged on critical tasks (fresh only). */
    std::vector<uint64_t> critXferNsByStage;
};

/**
 * Runs one workflow scenario at a time against a shared ResultCache
 * (calibration rows are memoised; the DAG simulation always runs so
 * the full histograms and attribution vectors are populated).
 */
class WorkflowRunner
{
  public:
    explicit WorkflowRunner(ResultCache &cache_arg) : cache(cache_arg) {}

    WorkflowResult run(const WorkflowScenario &scenario);

  private:
    ResultCache &cache;
};

/**
 * Run every scenario, fanned out across SVBENCH_JOBS workers: phase 1
 * calibrates every distinct (cluster, function) in submission order,
 * phase 2 simulates the scenarios concurrently with cached "wflow"
 * rows answered inline and fresh summaries recorded in submission
 * order. The backing CSV is byte-identical to a serial sweep.
 */
std::vector<WorkflowResult>
workflowSweep(ResultCache &cache,
              const std::vector<WorkflowScenario> &scenarios,
              unsigned jobs_override = 0);

} // namespace svb::load

#endif // SVB_LOAD_WORKFLOW_HH
