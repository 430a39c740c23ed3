/**
 * @file
 * The workflow/DAG engine's contracts:
 *  - DAG validation rejects malformed specs with named fatal errors
 *    (empty DAG, duplicate names, unknown stages/functions, self and
 *    duplicate edges, cycles) instead of misbehaving inside the
 *    engine; topoOrder is deterministic;
 *  - the transfer model's local/remote arithmetic, and the payload-
 *    affinity placement's effect on local-vs-remote hop counts;
 *  - a single-stage workflow reproduces the plain load engine's
 *    numbers exactly (the byte-identity acceptance criterion);
 *  - per-stage critical-path attribution telescopes exactly to the
 *    end-to-end latency, and chain/fan-out shapes attribute where
 *    they must;
 *  - fault/retry propagation per stage task conserves workflow
 *    instances;
 *  - workflow sweeps are byte-identical (result fields and CSV rows)
 *    at any SVBENCH_JOBS value, and wflow rows survive the cache
 *    round-trip;
 *  - LatencyHistogram::percentile() on an empty histogram returns 0
 *    deterministically (regression guard for the zero-count path).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <vector>

#include "core/checkpoint_store.hh"
#include "load/load_runner.hh"
#include "load/workflow.hh"
#include "workloads/workloads.hh"

#include "test_support.hh"

using namespace svb;
using namespace svb::load;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

ClusterConfig
standaloneConfig(IsaId isa)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.startDb = false;
    cfg.startMemcached = false;
    return cfg;
}

/** One-function scenario skeleton shared by the engine tests (cheap
 *  to calibrate: every stage runs fibonacci-go). */
WorkflowScenario
workflowScenario(const std::string &name, WorkflowSpec dag,
                 unsigned nodes = 1,
                 RoutingPolicy policy = RoutingPolicy::LeastLoaded)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    WorkflowScenario s;
    s.name = name;
    s.cluster = standaloneConfig(IsaId::Riscv);
    s.functions = {{spec, &workloads::workloadImpl(spec.workload), 1.0}};
    s.dag = std::move(dag);
    s.arrival.kind = ArrivalKind::Poisson;
    s.arrival.ratePerSec = 1000.0;
    s.pool.policy = KeepAlivePolicy::FixedTtl;
    s.pool.maxInstances = 2;
    s.pool.keepAliveNs = 20'000'000;
    s.fleet.nodes = nodes;
    s.fleet.routing = policy;
    s.invocations = 100;
    s.seed = 91;
    return s;
}

/** A structurally valid 2-stage spec to perturb in the negatives. */
WorkflowSpec
validSpec()
{
    WorkflowSpec spec;
    spec.name = "neg";
    spec.stages = {{"a", 0, 1, 0, StagePlacement::Inherit},
                   {"b", 0, 1, 0, StagePlacement::Inherit}};
    spec.edges = {{0, 1}};
    return spec;
}

} // namespace

// --------------------------------------------------------------------------
// DAG validation: named fatal errors for every malformed shape
// --------------------------------------------------------------------------

TEST(DagValidation, EmptyDagIsRejected)
{
    WorkflowSpec spec;
    spec.name = "empty";
    EXPECT_DEATH(spec.validate(1), "empty DAG");
}

TEST(DagValidation, EmptyStageNameIsRejected)
{
    WorkflowSpec spec = validSpec();
    spec.stages[1].name = "";
    EXPECT_DEATH(spec.validate(1), "empty name");
}

TEST(DagValidation, MetacharacterStageNameIsRejected)
{
    WorkflowSpec spec = validSpec();
    spec.stages[1].name = "b=1";
    EXPECT_DEATH(spec.validate(1), "cache metacharacter");
}

TEST(DagValidation, DuplicateStageNameIsRejected)
{
    WorkflowSpec spec = validSpec();
    spec.stages[1].name = "a";
    EXPECT_DEATH(spec.validate(1), "duplicate stage name");
}

TEST(DagValidation, ZeroParallelismIsRejected)
{
    WorkflowSpec spec = validSpec();
    spec.stages[0].parallelism = 0;
    EXPECT_DEATH(spec.validate(1), "zero parallelism");
}

TEST(DagValidation, UnknownFunctionIndexIsRejected)
{
    WorkflowSpec spec = validSpec();
    spec.stages[1].fn = 7;
    EXPECT_DEATH(spec.validate(1), "unknown function index");
}

TEST(DagValidation, EdgeToUnknownStageIsRejected)
{
    WorkflowSpec spec = validSpec();
    spec.edges.push_back({1, 5});
    EXPECT_DEATH(spec.validate(1), "unknown stage");
}

TEST(DagValidation, SelfEdgeIsRejected)
{
    WorkflowSpec spec = validSpec();
    spec.edges.push_back({1, 1});
    EXPECT_DEATH(spec.validate(1), "self-edge");
}

TEST(DagValidation, DuplicateEdgeIsRejected)
{
    WorkflowSpec spec = validSpec();
    spec.edges.push_back({0, 1});
    EXPECT_DEATH(spec.validate(1), "duplicate edge");
}

TEST(DagValidation, CycleIsRejected)
{
    WorkflowSpec spec = validSpec();
    spec.edges.push_back({1, 0});
    EXPECT_DEATH(spec.validate(1), "cycle");
}

TEST(DagValidation, ValidSpecsPass)
{
    validSpec().validate(1);
    chainSpec("c", 4, {0}, 1024).validate(1);
    fanOutSpec("f", 8, {0}, 1024).validate(1);
    mapReduceSpec("m", 4, 2, {0}, 1024).validate(1);
}

// --------------------------------------------------------------------------
// Shapes and topological order
// --------------------------------------------------------------------------

TEST(DagShapes, BuildersProduceTheDocumentedShapes)
{
    const WorkflowSpec chain = chainSpec("c", 4, {0}, 64);
    EXPECT_EQ(chain.stages.size(), 4u);
    EXPECT_EQ(chain.edges.size(), 3u);
    EXPECT_EQ(chain.totalTasks(), 4u);

    const WorkflowSpec fan = fanOutSpec("f", 8, {0}, 64);
    EXPECT_EQ(fan.stages.size(), 3u);
    EXPECT_EQ(fan.totalTasks(), 10u); // split + 8 workers + join
    EXPECT_EQ(fan.stages[1].parallelism, 8u);

    const WorkflowSpec mr = mapReduceSpec("m", 4, 2, {0}, 64);
    EXPECT_EQ(mr.stages.size(), 4u);
    EXPECT_EQ(mr.totalTasks(), 8u); // ingest + 4 map + 2 reduce + merge
}

TEST(DagShapes, TopoOrderIsDeterministicAndRespectsEdges)
{
    // A diamond with the edge list deliberately shuffled: the order
    // must be a pure function of the spec, smallest ready index first.
    WorkflowSpec spec;
    spec.name = "diamond";
    spec.stages = {{"s", 0, 1, 0, StagePlacement::Inherit},
                   {"l", 0, 1, 0, StagePlacement::Inherit},
                   {"r", 0, 1, 0, StagePlacement::Inherit},
                   {"j", 0, 1, 0, StagePlacement::Inherit}};
    spec.edges = {{2, 3}, {0, 2}, {1, 3}, {0, 1}};
    const std::vector<unsigned> order = topoOrder(spec);
    EXPECT_EQ(order, (std::vector<unsigned>{0, 1, 2, 3}));
}

// --------------------------------------------------------------------------
// Transfer model
// --------------------------------------------------------------------------

TEST(TransferModel, ZeroBytesCostNothing)
{
    TransferModel tm;
    EXPECT_EQ(tm.costNs(0, true), 0u);
    EXPECT_EQ(tm.costNs(0, false), 0u);
}

TEST(TransferModel, LocalAndRemoteArithmetic)
{
    TransferModel tm;
    tm.localBaseNs = 100;
    tm.localNsPerKib = 10;
    tm.remoteBaseNs = 5'000;
    tm.remoteNsPerKib = 320;
    EXPECT_EQ(tm.costNs(2048, true), 100u + 20u);
    EXPECT_EQ(tm.costNs(2048, false), 5'000u + 640u);
    // A cross-node hop always costs more than the same-size hand-off.
    EXPECT_GT(tm.costNs(4096, false), tm.costNs(4096, true));
}

// --------------------------------------------------------------------------
// Empty-histogram percentile regression (zero-count guard)
// --------------------------------------------------------------------------

TEST(Histogram, EmptyHistogramPercentileIsZeroDeterministically)
{
    const LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    // Every percentile of a zero-count histogram is 0 — never a read
    // of an empty bucket array, never UB, at every probe point.
    for (const double p : {0.0, 50.0, 90.0, 99.0, 99.9, 100.0})
        EXPECT_EQ(h.percentile(p), 0u) << p;
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
}

// --------------------------------------------------------------------------
// Single-stage identity with the plain load engine
// --------------------------------------------------------------------------

TEST(WorkflowEngine, SingleStageWorkflowMatchesTheLoadEngine)
{
    TempCheckpointDir ckpts("ckpt_wf_ident");
    TempCacheFile file("test_wf_ident.csv");

    // Two inputs: the fault-free single-node path, and the shape of a
    // faulty fleet (4 power-of-two nodes, the fault preset, retries
    // with a timeout and backoff, the breaker and one node crash).
    WorkflowScenario plain =
        workflowScenario("t-wf-ident", chainSpec("c1", 1, {0}, 0));
    plain.invocations = 400;
    WorkflowScenario faulty =
        workflowScenario("t-wf-ident-faults", chainSpec("c1", 1, {0}, 0), 4,
                         RoutingPolicy::PowerOfTwo);
    faulty.invocations = 1500;
    faulty.arrival.ratePerSec = 4000.0;
    faulty.fault = defaultFaultPreset();
    faulty.retry.maxAttempts = 3;
    faulty.retry.timeoutNs = 1'000'000;
    faulty.retry.backoffBaseNs = 500'000;
    faulty.retry.backoffCapNs = 10'000'000;
    faulty.breaker.enabled = true;
    faulty.fleet.nodeFaults.push_back(
        {NodeFaultEvent::Kind::Crash, 1, 100'000'000, 50'000'000});

    ResultCache cache(file.path);
    for (const WorkflowScenario &ws : {plain, faulty}) {
        SCOPED_TRACE(ws.name);
        LoadScenario ls;
        ls.name = ws.name + "-load";
        ls.cluster = ws.cluster;
        ls.mix = ws.functions;
        ls.arrival = ws.arrival;
        ls.pool = ws.pool;
        ls.fault = ws.fault;
        ls.retry = ws.retry;
        ls.breaker = ws.breaker;
        ls.fleet = ws.fleet;
        ls.invocations = ws.invocations;
        ls.seed = ws.seed;

        const WorkflowResult wr = WorkflowRunner(cache).run(ws);
        const LoadResult lr = LoadRunner(cache).run(ls);
        ASSERT_TRUE(wr.ok);
        ASSERT_TRUE(lr.ok);

        // Identical draw sequences and pool operations: the
        // distributions and every shared counter agree bit-for-bit.
        EXPECT_TRUE(wr.latency == lr.latency);
        EXPECT_EQ(wr.histoFingerprint, lr.histoFingerprint);
        EXPECT_EQ(wr.goodFingerprint, lr.goodFingerprint);
        EXPECT_EQ(wr.p50Ns, lr.p50Ns);
        EXPECT_EQ(wr.p99Ns, lr.p99Ns);
        EXPECT_EQ(wr.maxNs, lr.maxNs);
        EXPECT_EQ(wr.coldStarts, lr.coldStarts);
        EXPECT_EQ(wr.warmHits, lr.warmHits);
        EXPECT_EQ(wr.evictions, lr.evictions);
        EXPECT_EQ(wr.succeeded, lr.succeeded);
        EXPECT_EQ(wr.failedWorkflows, lr.failedInvocations);
        EXPECT_EQ(wr.retries, lr.retries);
        EXPECT_EQ(wr.timeouts, lr.timeouts);
        EXPECT_EQ(wr.crashes, lr.crashes);
        EXPECT_EQ(wr.sheds, lr.sheds);
        EXPECT_EQ(wr.breakerOpens, lr.breakerOpens);
        EXPECT_EQ(wr.nodeFaults, lr.nodeFaults);
        EXPECT_EQ(wr.throughputRps, lr.throughputRps);
        EXPECT_EQ(wr.fleetUtilisation, lr.fleetUtilisation);
        // And no transfer was charged: a single stage moves no payload.
        EXPECT_EQ(wr.transferNs, 0u);
        EXPECT_EQ(wr.transfersLocal + wr.transfersRemote, 0u);
    }
    // The faulty input must actually exercise what it claims to.
    const WorkflowResult fr = WorkflowRunner(cache).run(faulty);
    EXPECT_GT(fr.retries, 0u);
    EXPECT_GT(fr.timeouts, 0u);
    EXPECT_GT(fr.crashes, 0u);
    EXPECT_EQ(fr.nodeFaults, 1u);
}

// --------------------------------------------------------------------------
// Critical-path attribution
// --------------------------------------------------------------------------

TEST(WorkflowEngine, CriticalPathTelescopesToEndToEndLatency)
{
    TempCheckpointDir ckpts("ckpt_wf_crit");
    TempCacheFile file("test_wf_crit.csv");

    // One instance, fault-free: the per-stage critical totals must sum
    // to EXACTLY the end-to-end latency (maxValue() is exact, unlike
    // the bucket-quantised percentiles).
    WorkflowScenario s =
        workflowScenario("t-wf-tele", fanOutSpec("f", 8, {0}, 4096), 3);
    s.invocations = 1;

    ResultCache cache(file.path);
    const WorkflowResult res = WorkflowRunner(cache).run(s);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.succeeded, 1u);
    ASSERT_EQ(res.critNsByStage.size(), 3u);
    const uint64_t critTotal =
        std::accumulate(res.critNsByStage.begin(),
                        res.critNsByStage.end(), uint64_t(0));
    EXPECT_EQ(critTotal, res.latency.maxValue());
    // Every stage of a fan-out sits on the critical path once.
    for (size_t st = 0; st < res.critNsByStage.size(); ++st)
        EXPECT_GT(res.critNsByStage[st], 0u) << "stage " << st;
}

TEST(WorkflowEngine, ChainAttributesEveryStage)
{
    TempCheckpointDir ckpts("ckpt_wf_chain");
    TempCacheFile file("test_wf_chain.csv");

    WorkflowScenario s =
        workflowScenario("t-wf-chain", chainSpec("c4", 4, {0}, 1024));

    ResultCache cache(file.path);
    const WorkflowResult res = WorkflowRunner(cache).run(s);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.succeeded, res.invocations);
    EXPECT_EQ(res.latency.count(), res.invocations);
    ASSERT_EQ(res.critPermil.size(), 4u);
    // Integer floor division: shares sum to at most 1000 and land
    // within rounding of it; every chain stage takes a nonzero share.
    const uint64_t permilSum =
        std::accumulate(res.critPermil.begin(), res.critPermil.end(),
                        uint64_t(0));
    EXPECT_LE(permilSum, 1000u);
    EXPECT_GE(permilSum, 1000u - 4u);
    for (size_t st = 0; st < res.critPermil.size(); ++st)
        EXPECT_GT(res.critPermil[st], 0u) << "stage " << st;
    // A single-node chain hands every payload off locally.
    EXPECT_EQ(res.transfersRemote, 0u);
    EXPECT_EQ(res.transfersLocal, 3u * res.invocations);
}

// --------------------------------------------------------------------------
// Placement: payload affinity versus inherited routing
// --------------------------------------------------------------------------

TEST(WorkflowEngine, PayloadAffinityConvertsRemoteHopsToLocal)
{
    TempCheckpointDir ckpts("ckpt_wf_aff");
    TempCacheFile file("test_wf_aff.csv");

    WorkflowSpec inherit = fanOutSpec("fan", 8, {0}, 64 * 1024);
    WorkflowSpec affine = inherit;
    for (StageSpec &st : affine.stages)
        st.placement = StagePlacement::PayloadAffinity;

    WorkflowScenario si =
        workflowScenario("t-wf-inherit", std::move(inherit), 3);
    WorkflowScenario sa =
        workflowScenario("t-wf-affine", std::move(affine), 3);

    ResultCache cache(file.path);
    const WorkflowResult ri = WorkflowRunner(cache).run(si);
    const WorkflowResult ra = WorkflowRunner(cache).run(sa);
    ASSERT_TRUE(ri.ok);
    ASSERT_TRUE(ra.ok);

    // Least-loaded routing spreads the 8 workers across the 3 nodes,
    // so the join pulls most payloads cross-node; affinity co-locates
    // consumers with their producers and converts those hops.
    EXPECT_GT(ri.transfersRemote, 0u);
    EXPECT_LT(ra.transfersRemote, ri.transfersRemote);
    EXPECT_GT(ra.transfersLocal, ri.transfersLocal);
    EXPECT_LT(ra.transferNs, ri.transferNs);
}

// --------------------------------------------------------------------------
// Fault propagation per stage task
// --------------------------------------------------------------------------

TEST(WorkflowEngine, FaultsRetriesAndConservation)
{
    TempCheckpointDir ckpts("ckpt_wf_fault");
    TempCacheFile file("test_wf_fault.csv");

    WorkflowScenario s =
        workflowScenario("t-wf-fault", mapReduceSpec("mr", 4, 2, {0}, 512));
    s.invocations = 150;
    s.fault.coldStartFailProb = 0.2;
    s.fault.crashProb = 0.05;
    s.retry.maxAttempts = 3;
    s.retry.backoffBaseNs = 100'000;
    s.retry.backoffCapNs = 1'000'000;

    ResultCache cache(file.path);
    const WorkflowResult res = WorkflowRunner(cache).run(s);
    ASSERT_TRUE(res.ok);

    // Conservation: every workflow instance ends exactly one way and
    // lands exactly once in the latency histogram.
    EXPECT_EQ(res.succeeded + res.failedWorkflows + res.sheds,
              res.invocations);
    EXPECT_EQ(res.latency.count(), res.invocations);
    // The fault machinery actually engaged, and failed tasks retried
    // without re-running their completed predecessors (retries are
    // per-task, so they exist independently of workflow failures).
    EXPECT_GT(res.retries, 0u);
    EXPECT_GT(res.succeeded, 0u);
}

TEST(WorkflowEngine, NodeCrashConservesWorkflows)
{
    TempCheckpointDir ckpts("ckpt_wf_crash");
    TempCacheFile file("test_wf_crash.csv");

    WorkflowScenario s =
        workflowScenario("t-wf-ncrash", fanOutSpec("fan", 6, {0}, 1024),
                         3);
    s.invocations = 150;
    s.arrival.ratePerSec = 5000.0;
    s.retry.maxAttempts = 3;
    s.retry.backoffBaseNs = 100'000;
    s.retry.backoffCapNs = 1'000'000;
    s.fleet.nodeFaults.push_back(
        {NodeFaultEvent::Kind::Crash, 0, 5'000'000, 5'000'000});
    s.fleet.nodeFaults.push_back(
        {NodeFaultEvent::Kind::Partition, 1, 10'000'000, 2'000'000});

    ResultCache cache(file.path);
    const WorkflowResult res = WorkflowRunner(cache).run(s);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.succeeded + res.failedWorkflows + res.sheds,
              res.invocations);
    EXPECT_EQ(res.latency.count(), res.invocations);
    EXPECT_EQ(res.nodeFaults, 2u);
}

// --------------------------------------------------------------------------
// Determinism across worker counts, and the cache round-trip
// --------------------------------------------------------------------------

TEST(WorkflowSweep, ByteIdenticalAcrossWorkerCounts)
{
    TempCheckpointDir ckpts("ckpt_wf_sweep");

    std::vector<WorkflowScenario> scenarios;
    scenarios.push_back(
        workflowScenario("t-wfs-chain", chainSpec("c4", 4, {0}, 2048)));
    scenarios.push_back(workflowScenario(
        "t-wfs-fan", fanOutSpec("fan", 8, {0}, 2048), 3));
    {
        WorkflowSpec mr = mapReduceSpec("mr", 4, 2, {0}, 2048);
        for (StageSpec &st : mr.stages)
            st.placement = StagePlacement::PayloadAffinity;
        scenarios.push_back(workflowScenario(
            "t-wfs-mr-aff", std::move(mr), 3, RoutingPolicy::PowerOfTwo));
    }

    TempCacheFile serial_file("test_wf_serial.csv");
    std::vector<WorkflowResult> serial;
    {
        ResultCache cache(serial_file.path);
        serial = workflowSweep(cache, scenarios, 1);
    }
    TempCacheFile par_file("test_wf_jobs8.csv");
    std::vector<WorkflowResult> wide;
    {
        ResultCache cache(par_file.path);
        wide = workflowSweep(cache, scenarios, 8);
    }

    ASSERT_EQ(serial.size(), wide.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << scenarios[i].name;
        EXPECT_TRUE(serial[i].latency == wide[i].latency)
            << scenarios[i].name;
        EXPECT_EQ(serial[i].histoFingerprint, wide[i].histoFingerprint)
            << scenarios[i].name;
        EXPECT_EQ(serial[i].critFingerprint, wide[i].critFingerprint)
            << scenarios[i].name;
        EXPECT_EQ(serial[i].critPermil, wide[i].critPermil)
            << scenarios[i].name;
        EXPECT_EQ(serial[i].transferNs, wide[i].transferNs);
        EXPECT_EQ(serial[i].transfersRemote, wide[i].transfersRemote);
    }

    // The CSV backing file too (ldcal + wflow v1 rows).
    const std::string serial_csv = slurp(serial_file.path);
    EXPECT_FALSE(serial_csv.empty());
    EXPECT_EQ(serial_csv, slurp(par_file.path));
}

TEST(WorkflowSweep, RowsSurviveTheCacheRoundTrip)
{
    TempCheckpointDir ckpts("ckpt_wf_cache");
    TempCacheFile file("test_wf_cache.csv");

    std::vector<WorkflowScenario> scenarios = {workflowScenario(
        "t-wfs-cache", fanOutSpec("fan", 4, {0}, 1024), 2)};

    std::vector<WorkflowResult> fresh;
    {
        ResultCache cache(file.path);
        fresh = workflowSweep(cache, scenarios, 1);
    }
    std::vector<WorkflowResult> cached;
    {
        ResultCache cache(file.path); // re-reads the CSV
        cached = workflowSweep(cache, scenarios, 1);
    }
    ASSERT_TRUE(fresh[0].ok);
    ASSERT_TRUE(cached[0].ok);
    // A cached row reproduces every summary field the bench prints,
    // the attribution shares included (the crit slots).
    EXPECT_EQ(cached[0].p50Ns, fresh[0].p50Ns);
    EXPECT_EQ(cached[0].p99Ns, fresh[0].p99Ns);
    EXPECT_EQ(cached[0].histoFingerprint, fresh[0].histoFingerprint);
    EXPECT_EQ(cached[0].critFingerprint, fresh[0].critFingerprint);
    EXPECT_EQ(cached[0].critPermil, fresh[0].critPermil);
    EXPECT_EQ(cached[0].transfersRemote, fresh[0].transfersRemote);
    EXPECT_EQ(cached[0].bytesRemote, fresh[0].bytesRemote);
    EXPECT_EQ(cached[0].stages, fresh[0].stages);
    EXPECT_EQ(cached[0].tasksPerWorkflow, fresh[0].tasksPerWorkflow);
    // Distributions are fresh-run-only, as for load rows.
    EXPECT_EQ(cached[0].latency.count(), 0u);
    EXPECT_GT(fresh[0].latency.count(), 0u);
}

// --------------------------------------------------------------------------
// Same-nanosecond event order
// --------------------------------------------------------------------------

namespace
{

/** A scenario whose arrivals, Ends, retries and node crash share
 *  nanoseconds, and what its replay must read. */
struct TieCase
{
    const char *name;
    unsigned nodes;
    /** First-stage parallelism of a two-stage workflow; 0 replays a
     *  load stream instead. */
    unsigned sources;
    /** Every retry's backoff (0: retry at the failure instant). */
    uint64_t backoffNs;
    const char *expected;
};

const TieCase kTieCases[] = {
    {"t-tie-n1-load-b0", 1, 0, 0,
     "fp=9472961898083364495 good=14847148336813869201"
     " crit=0 ok=18 failed=6 sheds=176"
     " retries=89 timeouts=93 crashes=3 cold=61 warm=52"},
    {"t-tie-n1-load-b1", 1, 0, 1'000'000,
     "fp=4011403479462131549 good=6557338454512102877"
     " crit=0 ok=22 failed=3 sheds=175"
     " retries=97 timeouts=98 crashes=2 cold=68 warm=54"},
    {"t-tie-n2-load-b0", 2, 0, 0,
     "fp=16376919214183503585 good=14101478126404776775"
     " crit=0 ok=136 failed=3 sheds=61"
     " retries=56 timeouts=51 crashes=3 cold=95 warm=100"},
    {"t-tie-n2-load-b1", 2, 0, 1'000'000,
     "fp=9620258765638659049 good=15163891977714784475"
     " crit=0 ok=129 failed=4 sheds=67"
     " retries=53 timeouts=51 crashes=2 cold=87 warm=99"},
    {"t-tie-n3-load-b0", 3, 0, 0,
     "fp=8686842390305171935 good=8686842390305171935"
     " crit=0 ok=200 failed=0 sheds=0"
     " retries=20 timeouts=2 crashes=1 cold=124 warm=96"},
    {"t-tie-n3-load-b1", 3, 0, 1'000'000,
     "fp=908081555914781137 good=908081555914781137"
     " crit=0 ok=200 failed=0 sheds=0"
     " retries=9 timeouts=0 crashes=0 cold=107 warm=102"},
    {"t-tie-n1-par2-b0", 1, 2, 0,
     "fp=17135764428573677649 good=4712192114953218501"
     " crit=10017002007989796321 ok=0 failed=2 sheds=58"
     " retries=37 timeouts=48 crashes=2 cold=17 warm=44"},
    {"t-tie-n1-par2-b1", 1, 2, 1'000'000,
     "fp=4223913147459888273 good=4712192114953218501"
     " crit=10017002007989796321 ok=0 failed=3 sheds=57"
     " retries=33 timeouts=45 crashes=2 cold=18 warm=40"},
    {"t-tie-n2-par2-b0", 2, 2, 0,
     "fp=6212019024120593937 good=4712192114953218501"
     " crit=10017002007989796321 ok=0 failed=1 sheds=59"
     " retries=35 timeouts=45 crashes=2 cold=27 warm=36"},
    {"t-tie-n2-par2-b1", 2, 2, 1'000'000,
     "fp=5871670495785090617 good=15136673363724813957"
     " crit=7001612259517382599 ok=1 failed=1 sheds=58"
     " retries=32 timeouts=42 crashes=1 cold=27 warm=42"},
    {"t-tie-n3-par2-b0", 3, 2, 0,
     "fp=2396596530227781195 good=4727865302736121409"
     " crit=16924039958983112952 ok=4 failed=5 sheds=51"
     " retries=51 timeouts=60 crashes=1 cold=41 warm=73"},
    {"t-tie-n3-par2-b1", 3, 2, 1'000'000,
     "fp=13436371276375878743 good=11904057894666393987"
     " crit=10002086051611975974 ok=4 failed=1 sheds=55"
     " retries=54 timeouts=59 crashes=0 cold=27 warm=74"},
    {"t-tie-n1-par3-b0", 1, 3, 0,
     "fp=579283678205899129 good=7000516840794886469"
     " crit=15047408042691210383 ok=2 failed=1 sheds=57"
     " retries=31 timeouts=42 crashes=3 cold=10 warm=47"},
    {"t-tie-n1-par3-b1", 1, 3, 1'000'000,
     "fp=1451939367245512567 good=4712192114953218501"
     " crit=10017002007989796321 ok=0 failed=2 sheds=58"
     " retries=38 timeouts=50 crashes=3 cold=12 warm=50"},
    {"t-tie-n2-par3-b0", 2, 3, 0,
     "fp=2145559641309541171 good=4712192114953218501"
     " crit=10017002007989796321 ok=0 failed=3 sheds=57"
     " retries=54 timeouts=65 crashes=1 cold=16 warm=76"},
    {"t-tie-n2-par3-b1", 2, 3, 1'000'000,
     "fp=11720641772492455539 good=4712192114953218501"
     " crit=10017002007989796321 ok=0 failed=2 sheds=58"
     " retries=52 timeouts=63 crashes=1 cold=19 warm=72"},
    {"t-tie-n3-par3-b0", 3, 3, 0,
     "fp=13715162904143074481 good=12791401788887160325"
     " crit=8897743339056340170 ok=1 failed=1 sheds=58"
     " retries=61 timeouts=69 crashes=0 cold=19 warm=88"},
    {"t-tie-n3-par3-b1", 3, 3, 1'000'000,
     "fp=17032557755758425047 good=7288082074309381667"
     " crit=12425642972279573905 ok=4 failed=2 sheds=54"
     " retries=59 timeouts=62 crashes=2 cold=19 warm=95"},
};

/** Uniform arrivals every millisecond onto one-slot least-loaded
 *  nodes, whole-millisecond timeouts and backoffs, the breaker, and a
 *  node crash on an arrival instant. */
void
tieKnobs(ReplayScenario &s, const TieCase &tc)
{
    s.name = tc.name;
    s.cluster = standaloneConfig(IsaId::Riscv);
    s.arrival.kind = ArrivalKind::Uniform;
    s.arrival.ratePerSec = 1000.0;
    s.pool.policy = KeepAlivePolicy::FixedTtl;
    s.pool.maxInstances = 1;
    s.pool.keepAliveNs = 10'000'000;
    s.fault.coldStartFailProb = 0.1;
    s.fault.stragglerProb = 0.1;
    s.fault.stragglerFactor = 2.0;
    s.retry.maxAttempts = 3;
    s.retry.timeoutNs = 6'000'000;
    // Base == cap: every backoff is exactly backoffNs.
    s.retry.backoffBaseNs = tc.backoffNs;
    s.retry.backoffCapNs = tc.backoffNs;
    s.breaker.enabled = true;
    s.breaker.failureThreshold = 5;
    s.breaker.openCooldownNs = 3'000'000;
    s.breaker.degradedNs = 1'000'000;
    s.fleet.nodes = tc.nodes;
    s.fleet.routing = RoutingPolicy::LeastLoaded;
    s.fleet.nodeFaults.push_back(
        {NodeFaultEvent::Kind::Crash, tc.nodes - 1, 40'000'000, 10'000'000});
    s.invocations = tc.sources == 0 ? 200 : 60;
    s.seed = 7;
}

/** One replay's outcome as a line that names every value. */
std::string
tieOutcome(const ReplayResult &r, uint64_t failed, uint64_t crit_fp)
{
    std::ostringstream os;
    os << "fp=" << r.histoFingerprint << " good=" << r.goodFingerprint
       << " crit=" << crit_fp << " ok=" << r.succeeded
       << " failed=" << failed << " sheds=" << r.sheds
       << " retries=" << r.retries << " timeouts=" << r.timeouts
       << " crashes=" << r.crashes << " cold=" << r.coldStarts
       << " warm=" << r.warmHits;
    return os.str();
}

} // namespace

/**
 * Arrivals, Ends, retries, scale-waits and a node crash land on the
 * same nanoseconds, and a workflow starts two or three source tasks
 * per instance at its arrival. Each unit's source Starts precede
 * every other event of their time, in unit then task order; any other
 * tie order moves these outcomes.
 */
TEST(AttemptEngineOrder, SameNanosecondEventsKeepTheirOrder)
{
    TempCacheFile file("test_wf_ties.csv");
    ResultCache cache(file.path);
    const FunctionSpec fib = specFor("fibonacci-go");
    const FunctionSpec aes = specFor("aes-go");
    const ClusterConfig cluster = standaloneConfig(IsaId::Riscv);
    // Whole milliseconds.
    constexpr uint64_t ms = 1'000'000;
    recordCalibration(cache, cluster, fib, 3 * ms, {ms, ms, 2 * ms, ms});
    recordCalibration(cache, cluster, aes, 2 * ms, {ms, ms, ms, ms});
    const std::vector<LoadMixEntry> fns = {
        {fib, &workloads::workloadImpl(fib.workload), 1.0},
        {aes, &workloads::workloadImpl(aes.workload), 1.0}};

    for (const TieCase &tc : kTieCases) {
        SCOPED_TRACE(tc.name);
        std::string observed;
        if (tc.sources == 0) {
            LoadScenario s;
            tieKnobs(s, tc);
            s.mix = fns;
            const LoadResult r = LoadRunner(cache).run(s);
            ASSERT_TRUE(r.ok);
            EXPECT_EQ(r.succeeded + r.failedInvocations + r.sheds,
                      r.invocations);
            observed = tieOutcome(r, r.failedInvocations, 0);
        } else {
            WorkflowScenario s;
            tieKnobs(s, tc);
            s.functions = fns;
            s.dag.name = "ties";
            s.dag.stages = {{"src", 0, tc.sources, 0, StagePlacement::Inherit},
                            {"join", 1, 1, 0, StagePlacement::Inherit}};
            s.dag.edges = {{0, 1}};
            const WorkflowResult r = WorkflowRunner(cache).run(s);
            ASSERT_TRUE(r.ok);
            EXPECT_EQ(r.succeeded + r.failedWorkflows + r.sheds,
                      r.invocations);
            observed = tieOutcome(r, r.failedWorkflows, r.critFingerprint);
        }
        EXPECT_EQ(observed, tc.expected);
    }
}
