/**
 * @file
 * The observability layer's contracts: trace export determinism
 * across worker counts, stat-tree snapshot/delta semantics and the
 * hierarchical JSON dump, RequestStats as a view over a named-stat
 * delta (byte-identical to reading the tree directly), the stall
 * partition invariant (causes sum to cycles on every measured
 * request, both ISAs), the RowSchema descriptor table, the
 * unified RunSpec -> RunResult dispatch, the names the lukewarm
 * study, which runs outside that dispatch, traces and dumps under, and
 * the load engine's dump names, one file pair per platform.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/parallel.hh"
#include "core/result_cache.hh"
#include "load/load_runner.hh"
#include "load/workflow.hh"
#include "obs/stat_export.hh"
#include "obs/trace.hh"
#include "workloads/workloads.hh"

#include "test_support.hh"

using namespace svb;

namespace
{

// Pin the environment before any lazy singleton reads it: the
// CheckpointStore must be disabled (a warm store would let one sweep
// restore where the other boots, changing the prepare-phase spans)
// and the stat dumps must land in a scratch directory.
const char *statDumpPath = "test_obs_statdump";
const bool envReady = [] {
    setenv("SVBENCH_NO_CKPT", "1", 1);
    setenv("SVBENCH_STATDUMP", statDumpPath, 1);
    return true;
}();

/**
 * Four cheap, pairwise-distinct cluster configurations (no store
 * containers; the dbKind only varies the runner/track identity).
 * Distinct configurations mean every job gets its own fresh-booted
 * runner at ANY worker count, so the recorded prepare phases — and
 * with them the whole trace — cannot depend on SVBENCH_JOBS.
 */
std::vector<RunSpec>
traceJobList()
{
    std::vector<RunSpec> jobs;
    const FunctionSpec spec = specFor("fibonacci-go");
    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (db::DbKind kind : {db::DbKind::Cassandra, db::DbKind::Mongo}) {
            ClusterConfig cfg;
            cfg.system = SystemConfig::paperConfig(isa);
            cfg.dbKind = kind;
            cfg.startDb = false;
            cfg.startMemcached = false;
            jobs.push_back({.mode = RunMode::Detailed,
                            .spec = spec,
                            .impl = &workloads::workloadImpl(spec.workload),
                            .platform = cfg});
        }
    }
    return jobs;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Run the four-job sweep under @p jobs workers, returning the
 *  rendered trace JSON. */
std::string
sweepTrace(unsigned jobs, const std::string &cache_path)
{
    TempCacheFile file(cache_path);
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.reset();
    tracer.enable("test_obs_trace.json");
    ResultCache cache(file.path);
    for (const RunResult &res : parallelSweep(cache, traceJobList(), jobs))
        EXPECT_TRUE(runResultOk(res));
    std::ostringstream os;
    tracer.render(os);
    tracer.reset();
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------------
// Tracer unit behaviour
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledTracerHandsOutBadTracks)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.reset();
    EXPECT_FALSE(tracer.enabled());
    EXPECT_EQ(tracer.track("riscv/none/fn/o3"), obs::badTrack);
    // Recording to badTrack is a no-op, not a crash.
    tracer.record(obs::badTrack, "cold", "measure", 0, 10);
    std::ostringstream os;
    tracer.render(os);
    EXPECT_EQ(os.str(), "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ns\"}\n");
}

TEST(Tracer, TracksSortByNameAndKeepAppendOrder)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.reset();
    tracer.enable("test_obs_unit_trace.json");
    const obs::TrackId b = tracer.track("bbb");
    const obs::TrackId a = tracer.track("aaa");
    ASSERT_NE(a, obs::badTrack);
    ASSERT_NE(b, obs::badTrack);
    tracer.record(b, "late", "phase", 5, 2);
    tracer.record(a, "first", "phase", 0, 3);
    tracer.record(a, "second", "phase", 3, 1);

    std::ostringstream os;
    tracer.render(os);
    const std::string json = os.str();
    tracer.reset();

    // "aaa" must serialise before "bbb" regardless of creation order,
    // and aaa's events must stay in append order.
    const size_t posA = json.find("\"aaa\"");
    const size_t posB = json.find("\"bbb\"");
    ASSERT_NE(posA, std::string::npos);
    ASSERT_NE(posB, std::string::npos);
    EXPECT_LT(posA, posB);
    EXPECT_LT(json.find("\"first\""), json.find("\"second\""));
    // Both phase events carry the Chrome complete-event tag.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stat snapshot / delta / JSON export
// ---------------------------------------------------------------------------

TEST(StatExport, DeltaSubtractsAndDefaultsMissingBefore)
{
    const obs::StatSnapshot before = {{"a", 10.0}, {"b", 2.0}};
    const obs::StatSnapshot after = {{"a", 25.0}, {"b", 2.0}, {"c", 7.0}};
    const obs::StatSnapshot d = obs::delta(before, after);
    EXPECT_DOUBLE_EQ(obs::statValue(d, "a"), 15.0);
    EXPECT_DOUBLE_EQ(obs::statValue(d, "b"), 0.0);
    EXPECT_DOUBLE_EQ(obs::statValue(d, "c"), 7.0);
    EXPECT_DOUBLE_EQ(obs::statValue(d, "absent"), 0.0);
}

TEST(StatExport, WriteJsonNestsDottedNames)
{
    const obs::StatSnapshot snap = {
        {"system.cpu0.a", 1.0}, {"system.cpu0.b", 2.5}, {"top", 3.0}};
    std::ostringstream os;
    obs::writeJson(os, snap);
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"system\": {\n"
              "    \"cpu0\": {\n"
              "      \"a\": 1,\n"
              "      \"b\": 2.5\n"
              "    }\n"
              "  },\n"
              "  \"top\": 3\n"
              "}\n");
}

TEST(StatExport, WriteCsvIsSortedAndStable)
{
    const obs::StatSnapshot snap = {{"z", 1.0}, {"a", 2.0}};
    std::ostringstream os;
    obs::writeCsv(os, snap);
    EXPECT_EQ(os.str(), "stat,value\na,2\nz,1\n");
}

TEST(StatExport, RequestStatsViewOverDelta)
{
    obs::StatSnapshot d;
    const std::string cpu = "system.cpu1.o3.";
    const std::string mem = "system.core1.";
    d[cpu + "numCycles"] = 1000;
    d[cpu + "numInsts"] = 400;
    d[cpu + "numUops"] = 500;
    d[cpu + "numBranches"] = 60;
    d[cpu + "branchMispredicts"] = 6;
    d[cpu + "itlb.misses"] = 3;
    d[cpu + "dtlb.misses"] = 4;
    d[mem + "l1i.misses"] = 11;
    d[mem + "l1d.misses"] = 12;
    d[mem + "l2.misses"] = 13;
    for (unsigned c = 0; c < numStallCauses; ++c)
        d[cpu + "stall." + stallCauseName(c)] = 100;

    const RequestStats rs = RequestStats::fromStatDelta(d, cpu, mem);
    EXPECT_EQ(rs.cycles, 1000u);
    EXPECT_EQ(rs.insts, 400u);
    EXPECT_EQ(rs.uops, 500u);
    EXPECT_DOUBLE_EQ(rs.cpi, 2.5);
    EXPECT_EQ(rs.branches, 60u);
    EXPECT_EQ(rs.branchMispredicts, 6u);
    EXPECT_EQ(rs.itlbMisses, 3u);
    EXPECT_EQ(rs.dtlbMisses, 4u);
    EXPECT_EQ(rs.l1iMisses, 11u);
    EXPECT_EQ(rs.l1dMisses, 12u);
    EXPECT_EQ(rs.l2Misses, 13u);
    EXPECT_EQ(rs.stallTotal(), 1000u);
}

// ---------------------------------------------------------------------------
// RowSchema descriptors
// ---------------------------------------------------------------------------

TEST(RowSchema, DescribesEveryModeAndRejectsUnknown)
{
    const RowSchema *o3 = RowSchema::find("o3");
    ASSERT_NE(o3, nullptr);
    EXPECT_EQ(o3->version, 2u); // v1 predates the stall-cause fields
    // 10 counters + 10 stall causes, cold and warm, plus "ok".
    EXPECT_EQ(o3->fields.size(), 41u);

    const RowSchema *emu = RowSchema::find("emu");
    ASSERT_NE(emu, nullptr);
    EXPECT_EQ(emu->fields.size(), 3u);

    const RowSchema *ldcal = RowSchema::find("ldcal");
    ASSERT_NE(ldcal, nullptr);
    EXPECT_EQ(ldcal->fields.size(), 2u + loadWarmSamples);

    ASSERT_NE(RowSchema::find("load"), nullptr);
    EXPECT_EQ(RowSchema::find("bogus"), nullptr);
}

TEST(RowSchema, CompleteDemandsExactFieldSet)
{
    const RowSchema *emu = RowSchema::find("emu");
    ASSERT_NE(emu, nullptr);
    std::map<std::string, uint64_t> row = {
        {"coldNs", 5}, {"warmNs", 3}, {"ok", 1}, {"v", emu->version}};
    EXPECT_TRUE(emu->complete(row));
    row.erase("warmNs");
    EXPECT_FALSE(emu->complete(row));
    row["warmNs"] = 3;
    row["stray"] = 1;
    EXPECT_FALSE(emu->complete(row));
}

// ---------------------------------------------------------------------------
// Measurement correctness on the real simulator
// ---------------------------------------------------------------------------

namespace
{

ClusterConfig
bareConfig(IsaId isa)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.startDb = false;
    cfg.startMemcached = false;
    return cfg;
}

/** Replicates the legacy field-by-field read of the server core's
 *  absolute stat tree (what snapshotServerCore() did before the
 *  delta-based view). */
RequestStats
legacyRead(const obs::StatSnapshot &snap)
{
    auto get = [&](const std::string &key) {
        return uint64_t(obs::statValue(snap, key));
    };
    const std::string cpu = "system.cpu1.o3.";
    const std::string mem = "system.core1.";
    RequestStats rs;
    rs.cycles = get(cpu + "numCycles");
    rs.insts = get(cpu + "numInsts");
    rs.uops = get(cpu + "numUops");
    rs.cpi = rs.insts ? double(rs.cycles) / double(rs.insts) : 0.0;
    rs.l1iMisses = get(mem + "l1i.misses");
    rs.l1dMisses = get(mem + "l1d.misses");
    rs.l2Misses = get(mem + "l2.misses");
    rs.branches = get(cpu + "numBranches");
    rs.branchMispredicts = get(cpu + "branchMispredicts");
    rs.itlbMisses = get(cpu + "itlb.misses");
    rs.dtlbMisses = get(cpu + "dtlb.misses");
    return rs;
}

void
expectStallPartition(const RequestStats &rs)
{
    EXPECT_GT(rs.cycles, 0u);
    EXPECT_EQ(rs.stallTotal(), rs.cycles);
    // Committing work must account for some of the request.
    EXPECT_GT(rs.stalls[unsigned(StallCause::Retiring)], 0u);
}

} // namespace

class ObsMeasurement : public ::testing::TestWithParam<IsaId>
{
};

TEST_P(ObsMeasurement, DeltaViewMatchesLegacyReadAndStallsPartition)
{
    ASSERT_TRUE(envReady);
    const FunctionSpec spec = specFor("fibonacci-go");
    ExperimentRunner runner(bareConfig(GetParam()));
    const FunctionResult res =
        runner.runFunction(spec, workloads::workloadImpl(spec.workload));
    ASSERT_TRUE(res.ok);

    // The cluster stopped at the warm request's workEnd and its stats
    // were reset at that request's workBegin, so the ABSOLUTE tree
    // read the legacy way must equal the delta-derived warm view.
    const RequestStats legacy =
        legacyRead(obs::snapshot(runner.cluster().system().stats()));
    EXPECT_EQ(res.warm.cycles, legacy.cycles);
    EXPECT_EQ(res.warm.insts, legacy.insts);
    EXPECT_EQ(res.warm.uops, legacy.uops);
    EXPECT_DOUBLE_EQ(res.warm.cpi, legacy.cpi);
    EXPECT_EQ(res.warm.l1iMisses, legacy.l1iMisses);
    EXPECT_EQ(res.warm.l1dMisses, legacy.l1dMisses);
    EXPECT_EQ(res.warm.l2Misses, legacy.l2Misses);
    EXPECT_EQ(res.warm.branches, legacy.branches);
    EXPECT_EQ(res.warm.branchMispredicts, legacy.branchMispredicts);
    EXPECT_EQ(res.warm.itlbMisses, legacy.itlbMisses);
    EXPECT_EQ(res.warm.dtlbMisses, legacy.dtlbMisses);

    // The stall taxonomy partitions every measured request's cycles.
    expectStallPartition(res.cold);
    expectStallPartition(res.warm);
}

INSTANTIATE_TEST_SUITE_P(BothIsas, ObsMeasurement,
                         ::testing::Values(IsaId::Riscv, IsaId::Cx86),
                         [](const auto &info) {
                             return info.param == IsaId::Riscv ? "riscv"
                                                               : "x86";
                         });

// ---------------------------------------------------------------------------
// Golden determinism across worker counts
// ---------------------------------------------------------------------------

TEST(ObsDeterminism, TraceAndStatDumpsIdenticalAcrossJobs)
{
    ASSERT_TRUE(envReady);
    const std::string dumpFile = std::string(statDumpPath) +
                                 "/riscv64_cassandra00_fibonacci-go_o3" +
                                 ".warm.json";

    const std::string serial = sweepTrace(1, "test_obs_cache1.csv");
    const std::string serialDump = slurp(dumpFile);
    const std::string parallel = sweepTrace(4, "test_obs_cache4.csv");
    const std::string parallelDump = slurp(dumpFile);

    // The whole trace file and the per-request stat dump are
    // byte-identical whichever worker count produced them.
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    ASSERT_FALSE(serialDump.empty());
    EXPECT_EQ(serialDump, parallelDump);

    // Spot-check the span vocabulary: prepare phases, the semantic
    // cold/warm measurement spans, and the per-request spans from the
    // cluster's m5 plumbing.
    for (const char *needle :
         {"\"boot\"", "\"container-start\"", "\"settle\"", "\"cold\"",
          "\"warming\"", "\"warm\"", "\"request#1\"", "\"request#10\"",
          "riscv64/cassandra00/fibonacci-go/o3",
          "cx86-64/mongodb00/fibonacci-go/o3"}) {
        EXPECT_NE(serial.find(needle), std::string::npos)
            << "trace is missing " << needle;
    }
}

// ---------------------------------------------------------------------------
// Load and workflow engine tracks: pinned bytes
// ---------------------------------------------------------------------------

namespace
{

uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Record a fixed calibration for @p spec on @p cfg, so the engines
 * replay these service times instead of measuring the simulator: the
 * pinned traces below then depend on the replay engines alone.
 */
void
seedCalibration(ResultCache &cache, const ClusterConfig &cfg,
                const FunctionSpec &spec)
{
    recordCalibration(cache, cfg, spec, 4'000'000,
                      {300'000, 350'000, 400'000, 450'000});
}

/** Run @p body with a fresh tracer and @return the rendered trace. */
template <class Body>
std::string
tracedRun(Body body)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.reset();
    tracer.enable("test_obs_engine_trace.json");
    body();
    std::ostringstream os;
    tracer.render(os);
    tracer.reset();
    return os.str();
}

} // namespace

TEST(EngineTraces, FaultedFleetLoadTrackIsPinned)
{
    TempCacheFile file("test_obs_load_trace.csv");
    ResultCache cache(file.path);
    const FunctionSpec spec = specFor("fibonacci-go");

    load::LoadScenario s;
    s.name = "t-obs-load";
    s.cluster = bareConfig(IsaId::Riscv);
    s.mix = {{spec, &workloads::workloadImpl(spec.workload), 1.0}};
    s.arrival.ratePerSec = 2000.0;
    s.pool.maxInstances = 2;
    s.pool.keepAliveNs = 5'000'000;
    s.fault.coldStartFailProb = 0.2;
    s.fault.crashProb = 0.1;
    s.fault.stragglerProb = 0.1;
    s.retry.maxAttempts = 3;
    s.retry.timeoutNs = 6'000'000;
    s.retry.backoffBaseNs = 200'000;
    s.retry.backoffCapNs = 2'000'000;
    s.breaker.enabled = true;
    s.breaker.failureThreshold = 2;
    s.breaker.openCooldownNs = 2'000'000;
    s.fleet.nodes = 2;
    s.fleet.nodeFaults.push_back(
        {load::NodeFaultEvent::Kind::Crash, 0, 20'000'000, 5'000'000});
    s.invocations = 120;
    s.seed = 5;
    seedCalibration(cache, s.cluster, spec);

    load::LoadResult res;
    const std::string trace =
        tracedRun([&] { res = load::LoadRunner(cache).run(s); });
    ASSERT_TRUE(res.ok);
    for (const char *needle :
         {"riscv64/cassandra00/t-obs-load/load", "\"route#", "\"queue#",
          "\"cold#", "\"warm#", "\"retry#", "\"timeout#", "\"shed#",
          "\"breaker-open#", "\"node-crash#"})
        EXPECT_NE(trace.find(needle), std::string::npos)
            << "trace is missing " << needle;
    EXPECT_EQ(trace.size(), 28812u);
    EXPECT_EQ(fnv1a(trace), 2751963170382750152ull);
}

TEST(EngineTraces, FanOutWorkflowTrackIsPinned)
{
    TempCacheFile file("test_obs_wflow_trace.csv");
    ResultCache cache(file.path);
    const FunctionSpec spec = specFor("fibonacci-go");

    load::WorkflowScenario s;
    s.name = "t-obs-wflow";
    s.cluster = bareConfig(IsaId::Riscv);
    s.functions = {{spec, &workloads::workloadImpl(spec.workload), 1.0}};
    s.dag = load::fanOutSpec("fan", 4, {0}, 16 * 1024);
    s.dag.stages.back().placement = load::StagePlacement::PayloadAffinity;
    s.arrival.ratePerSec = 500.0;
    s.pool.maxInstances = 2;
    s.fleet.nodes = 2;
    s.invocations = 12;
    s.seed = 6;
    seedCalibration(cache, s.cluster, spec);

    load::WorkflowResult res;
    const std::string trace =
        tracedRun([&] { res = load::WorkflowRunner(cache).run(s); });
    ASSERT_TRUE(res.ok);
    for (const char *needle :
         {"riscv64/cassandra00/t-obs-wflow/wflow", "\"route#w0/split.0@n",
          "\"xfer#", "\"crit#", "\"args\":", "\"stage\":\"join\"",
          "\"bytes\":\"16384\"", "\"xferNs\":"})
        EXPECT_NE(trace.find(needle), std::string::npos)
            << "trace is missing " << needle;
    EXPECT_EQ(trace.size(), 29637u);
    EXPECT_EQ(fnv1a(trace), 16761769848013636828ull);
}

// resilience_sweep gives both ISAs' scenarios one name. Their stat dumps
// must still land in one file pair per ISA, each holding the counters of
// its own replay, whichever replay runs last.
TEST(EngineStatDumps, OneScenarioNameDumpsOncePerIsa)
{
    ASSERT_TRUE(envReady);
    TempCacheFile file("test_obs_dump_names.csv");
    ResultCache cache(file.path);
    const FunctionSpec spec = specFor("fibonacci-go");

    struct Side
    {
        IsaId isa;
        uint64_t coldNs;
        const char *stem;
        std::string csv;
    };
    Side sides[] = {
        {IsaId::Riscv, 4'000'000,
         "riscv64_cassandra00_t-obs-dump_load.fault", {}},
        {IsaId::Cx86, 9'000'000,
         "cx86-64_cassandra00_t-obs-dump_load.fault", {}},
    };
    for (Side &side : sides) {
        const std::string path =
            std::string(statDumpPath) + "/" + side.stem + ".csv";
        std::remove(path.c_str());

        load::LoadScenario s;
        s.name = "t-obs-dump";
        s.cluster = bareConfig(side.isa);
        s.mix = {{spec, &workloads::workloadImpl(spec.workload), 1.0}};
        s.arrival.ratePerSec = 2000.0;
        s.pool.maxInstances = 2;
        s.pool.keepAliveNs = 5'000'000;
        s.fault.coldStartFailProb = 0.3;
        s.fault.crashProb = 0.1;
        s.retry.maxAttempts = 2;
        s.invocations = 200;
        s.seed = 7;
        recordCalibration(cache, s.cluster, spec, side.coldNs,
                          {300'000, 350'000, 400'000, 450'000});
        const load::LoadResult res = load::LoadRunner(cache).run(s);
        ASSERT_TRUE(res.ok) << side.stem;

        side.csv = slurp(path);
        ASSERT_FALSE(side.csv.empty()) << path << " was not written";
        const auto has = [&](const std::string &stat, uint64_t value) {
            EXPECT_NE(side.csv.find("\nfault." + stat + "," +
                                    std::to_string(value) + "\n"),
                      std::string::npos)
                << side.stem << ": want " << stat << " " << value << " in\n"
                << side.csv;
        };
        has("injected.coldFail", res.coldStartFailures);
        has("injected.crash", res.crashes);
        has("retry.retries", res.retries);
        has("outcome.succeeded", res.succeeded);
        has("outcome.failed", res.failedInvocations);
    }
    // The two replays differ, so neither file can pass for the other.
    EXPECT_NE(sides[0].csv, sides[1].csv);
}

namespace
{

/** The value of @p stat in the stat-dump CSV @p csv; absent fails. */
uint64_t
csvStat(const std::string &csv, const std::string &stat)
{
    const std::string key = "\n" + stat + ",";
    const size_t at = csv.find(key);
    if (at == std::string::npos) {
        ADD_FAILURE() << "no " << stat << " in\n" << csv;
        return 0;
    }
    return std::stoull(csv.substr(at + key.size()));
}

/**
 * Run @p replay(isa, cold_ns) on each ISA, with seeded calibrations that
 * differ by ISA, and check that each writes its own <isa>_cassandra00_
 * <stem>.csv, which @p check(csv, result) reads. Both files must still
 * hold their own replay's dump after both ran.
 */
template <class Replay, class Check>
void
expectOneDumpPerIsa(const std::string &stem, Replay replay, Check check)
{
    ASSERT_TRUE(envReady);
    const std::pair<IsaId, const char *> isas[] = {
        {IsaId::Riscv, "riscv64"}, {IsaId::Cx86, "cx86-64"}};
    std::string paths[2], csvs[2];
    for (int k = 0; k < 2; ++k) {
        paths[k] = std::string(statDumpPath) + "/" + isas[k].second +
                   "_cassandra00_" + stem + ".csv";
        std::remove(paths[k].c_str());
        const auto res =
            replay(isas[k].first, k == 0 ? 4'000'000 : 9'000'000);
        ASSERT_TRUE(res.ok) << paths[k];
        csvs[k] = slurp(paths[k]);
        ASSERT_FALSE(csvs[k].empty()) << paths[k] << " was not written";
        check(csvs[k], res);
    }
    EXPECT_NE(csvs[0], csvs[1]);
    for (int k = 0; k < 2; ++k)
        EXPECT_EQ(slurp(paths[k]), csvs[k]) << paths[k] << " was rewritten";
}

} // namespace

// The fleet counters of a scaled-out scenario dump once per ISA too.
TEST(EngineStatDumps, FleetScenarioDumpsOncePerIsa)
{
    TempCacheFile file("test_obs_fleet_dump.csv");
    ResultCache cache(file.path);
    const FunctionSpec spec = specFor("fibonacci-go");
    const unsigned nodes = 3;
    expectOneDumpPerIsa(
        "t-obs-fleet_load.fleet",
        [&](IsaId isa, uint64_t cold_ns) {
            load::LoadScenario s;
            s.name = "t-obs-fleet";
            s.cluster = bareConfig(isa);
            s.mix = {{spec, &workloads::workloadImpl(spec.workload), 1.0}};
            s.arrival.ratePerSec = 2000.0;
            s.pool.maxInstances = 2;
            s.pool.keepAliveNs = 5'000'000;
            s.fleet.nodes = nodes;
            s.invocations = 200;
            s.seed = 8;
            recordCalibration(cache, s.cluster, spec, cold_ns,
                              {300'000, 350'000, 400'000, 450'000});
            return load::LoadRunner(cache).run(s);
        },
        [&](const std::string &csv, const load::LoadResult &res) {
            EXPECT_EQ(csvStat(csv, "fleet.sched.maxActive"),
                      res.maxActiveNodes);
            uint64_t cold = 0, warm = 0;
            for (unsigned n = 0; n < nodes; ++n) {
                const std::string p = "fleet.node" + std::to_string(n);
                cold += csvStat(csv, p + ".coldStarts");
                warm += csvStat(csv, p + ".warmHits");
            }
            EXPECT_EQ(cold, res.coldStarts);
            EXPECT_EQ(warm, res.warmHits);
        });
}

// So does the workflow engine's, with its per-stage critical path.
TEST(EngineStatDumps, WorkflowEngineDumpsOncePerIsa)
{
    TempCacheFile file("test_obs_wflow_dump.csv");
    ResultCache cache(file.path);
    const FunctionSpec spec = specFor("fibonacci-go");
    const load::WorkflowSpec dag = load::fanOutSpec("fan", 4, {0}, 16 * 1024);
    expectOneDumpPerIsa(
        "t-obs-wflow-dump_wflow.engine",
        [&](IsaId isa, uint64_t cold_ns) {
            load::WorkflowScenario s;
            s.name = "t-obs-wflow-dump";
            s.cluster = bareConfig(isa);
            s.functions = {
                {spec, &workloads::workloadImpl(spec.workload), 1.0}};
            s.dag = dag;
            s.arrival.ratePerSec = 500.0;
            s.pool.maxInstances = 2;
            s.fleet.nodes = 2;
            s.invocations = 12;
            s.seed = 6;
            recordCalibration(cache, s.cluster, spec, cold_ns,
                              {300'000, 350'000, 400'000, 450'000});
            return load::WorkflowRunner(cache).run(s);
        },
        [&](const std::string &csv, const load::WorkflowResult &res) {
            EXPECT_EQ(csvStat(csv, "wflow.shape.stages"), res.stages);
            EXPECT_EQ(csvStat(csv, "wflow.shape.tasks"),
                      res.tasksPerWorkflow);
            EXPECT_EQ(csvStat(csv, "wflow.outcome.succeeded"),
                      res.succeeded);
            EXPECT_EQ(csvStat(csv, "wflow.xfer.local"), res.transfersLocal);
            EXPECT_EQ(csvStat(csv, "wflow.xfer.remote"),
                      res.transfersRemote);
            ASSERT_EQ(res.critNsByStage.size(), dag.stages.size());
            for (size_t st = 0; st < dag.stages.size(); ++st)
                EXPECT_EQ(csvStat(csv, "wflow.crit." + dag.stages[st].name),
                          res.critNsByStage[st]);
        });
}

// ---------------------------------------------------------------------------
// Unified RunSpec dispatch
// ---------------------------------------------------------------------------

TEST(RunApi, RunnerDispatchesEveryMode)
{
    ASSERT_TRUE(envReady);
    const FunctionSpec spec = specFor("fibonacci-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);

    RunSpec rs;
    rs.spec = spec;
    rs.impl = &impl;
    rs.platform = bareConfig(IsaId::Riscv);

    ExperimentRunner runner(rs.platform);
    rs.mode = RunMode::Emu;
    const RunResult emu = runner.run(rs);
    ASSERT_TRUE(std::holds_alternative<EmuResult>(emu));
    EXPECT_TRUE(runResultOk(emu));
    EXPECT_GT(std::get<EmuResult>(emu).coldNs, 0u);

    rs.mode = RunMode::LoadCal;
    const RunResult cal = runner.run(rs);
    ASSERT_TRUE(std::holds_alternative<LoadCalibration>(cal));
    EXPECT_TRUE(runResultOk(cal));
}

TEST(RunApi, CacheRunMemoisesByModeKey)
{
    ASSERT_TRUE(envReady);
    TempCacheFile file("test_obs_runapi.csv");
    ResultCache cache(file.path);
    const FunctionSpec spec = specFor("fibonacci-go");

    RunSpec rs;
    rs.mode = RunMode::Emu;
    rs.spec = spec;
    rs.impl = &workloads::workloadImpl(spec.workload);
    rs.platform = bareConfig(IsaId::Riscv);

    const RunResult first = cache.run(rs);
    ASSERT_TRUE(std::holds_alternative<EmuResult>(first));
    ASSERT_TRUE(runResultOk(first));

    // A second identical request must come from the CSV row, and the
    // row key must carry the mode tag the schema table knows.
    const RunResult second = cache.run(rs);
    EXPECT_EQ(std::get<EmuResult>(first).coldNs,
              std::get<EmuResult>(second).coldNs);
    EXPECT_EQ(std::get<EmuResult>(first).warmNs,
              std::get<EmuResult>(second).warmNs);
    const std::string key = cache.rowKey(rs.platform, rs.spec, rs.mode);
    EXPECT_NE(key.find(",emu"), std::string::npos);
    std::map<std::string, uint64_t> row;
    ASSERT_TRUE(cache.lookupRow(key, row));
    EXPECT_EQ(row.at("v"), RowSchema::find("emu")->version);
}

TEST(RunApi, LukewarmStudyKeepsItsTrackAndDumpNames)
{
    // The lukewarm study runs outside the RunSpec dispatch, so no
    // RunMode names it: its trace track and its stat dump must still
    // carry "lukewarm", next to the solo baseline's "o3" track.
    // aes-go is the function under study: no other test here dumps
    // it, so no other process writes the files this one reads.
    ASSERT_TRUE(envReady);
    const FunctionSpec spec = specFor("aes-go");
    const FunctionSpec other = specFor("fibonacci-go");
    const std::string dump = std::string(statDumpPath) +
                             "/riscv64_cassandra00_aes-go_lukewarm"
                             ".lukewarm.json";
    std::remove(dump.c_str());
    ExperimentRunner runner(bareConfig(IsaId::Riscv));

    LukewarmResult lw;
    const std::string trace = tracedRun([&] {
        lw = runner.runLukewarm(spec, workloads::workloadImpl(spec.workload),
                                other,
                                workloads::workloadImpl(other.workload));
    });
    ASSERT_TRUE(lw.ok);
    for (const char *needle :
         {"\"riscv64/cassandra00/aes-go/lukewarm\"",
          "\"riscv64/cassandra00/aes-go/o3\"", "\"lukewarm\"",
          "\"warming\""})
        EXPECT_NE(trace.find(needle), std::string::npos)
            << "trace is missing " << needle;
    EXPECT_FALSE(slurp(dump).empty()) << dump << " was not written";
}
