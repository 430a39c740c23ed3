/**
 * @file
 * The parallel experiment scheduler's determinism contract: a sweep
 * run with SVBENCH_JOBS=4 must produce byte-identical results and an
 * identical CSV cache to a serial run, and concurrent ResultCache
 * access must never duplicate a simulation or tear a row.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/parallel.hh"
#include "sim/rng.hh"
#include "workloads/workloads.hh"

#include "test_support.hh"

using namespace svb;

namespace
{

ClusterConfig
config(IsaId isa)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.startDb = false;
    cfg.startMemcached = false;
    return cfg;
}

RunSpec
runOf(RunMode mode, IsaId isa, const std::string &fn)
{
    const FunctionSpec spec = specFor(fn);
    return {.mode = mode,
            .spec = spec,
            .impl = &workloads::workloadImpl(spec.workload),
            .platform = config(isa)};
}

std::vector<RunSpec>
smallJobList()
{
    // Two functions x two ISAs: enough jobs to occupy four workers.
    std::vector<RunSpec> jobs;
    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (const char *fn : {"fibonacci-go", "aes-go"})
            jobs.push_back(runOf(RunMode::Detailed, isa, fn));
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

void
expectSameResult(const FunctionResult &a, const FunctionResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.ok, b.ok);
    for (auto field : {&RequestStats::cycles, &RequestStats::insts,
                       &RequestStats::uops, &RequestStats::l1iMisses,
                       &RequestStats::l1dMisses, &RequestStats::l2Misses,
                       &RequestStats::branches,
                       &RequestStats::branchMispredicts,
                       &RequestStats::itlbMisses,
                       &RequestStats::dtlbMisses}) {
        EXPECT_EQ(a.cold.*field, b.cold.*field);
        EXPECT_EQ(a.warm.*field, b.warm.*field);
    }
}

void
expectSameResult(const LoadCalibration &a, const LoadCalibration &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.coldNs, b.coldNs);
    for (unsigned k = 0; k < loadWarmSamples; ++k)
        EXPECT_EQ(a.warmNs[k], b.warmNs[k]);
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    ASSERT_EQ(a.index(), b.index());
    if (const auto *fa = std::get_if<FunctionResult>(&a))
        expectSameResult(*fa, std::get<FunctionResult>(b));
    else
        expectSameResult(std::get<LoadCalibration>(a),
                         std::get<LoadCalibration>(b));
}

} // namespace

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
    // The pool stays usable after wait().
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 101);
}

TEST(ThreadPool, DefaultJobsHonoursEnvVar)
{
    setenv("SVBENCH_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
    unsetenv("SVBENCH_JOBS");
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

namespace
{

/** The reference reading of an SVBENCH_JOBS value: only a non-empty
 *  run of digits whose value lies in [1, 2^32) counts; 0 = fall back. */
unsigned
referenceJobs(const std::string &value)
{
    if (value.empty())
        return 0;
    uint64_t v = 0;
    for (const char c : value) {
        if (c < '0' || c > '9')
            return 0;
        v = v * 10 + uint64_t(c - '0');
        if (v > 0xffffffffull)
            return 0;
    }
    return unsigned(v);
}

} // namespace

// Seeded mutations of SVBENCH_JOBS values: digits past 2^32, signs,
// spaces, letters and the empty string. Only defaultJobs() reads them;
// no pool is ever built from a mutated value, since a wrapped or huge
// count would start that many threads.
TEST(ThreadPool, DefaultJobsParsesTheWholeValueOrFallsBack)
{
    const char *prev = std::getenv("SVBENCH_JOBS");
    const std::string saved = prev != nullptr ? prev : "";
    unsetenv("SVBENCH_JOBS");
    const unsigned fallback = ThreadPool::defaultJobs();

    auto check = [fallback](const std::string &value) {
        setenv("SVBENCH_JOBS", value.c_str(), 1);
        const unsigned want = referenceJobs(value);
        EXPECT_EQ(ThreadPool::defaultJobs(), want ? want : fallback)
            << "SVBENCH_JOBS='" << value << "'";
    };
    for (const char *value :
         {"4", "007", "4294967295", "4294967296", "4294967297",
          "99999999999", "0", "", "4x", "x4", " 4", "4 ", "+4", "-4",
          "-0", "4.0", "0x10", "1e3", "abc"})
        check(value);

    const std::string alphabet = "0123456789 +-.xe\t";
    Rng rng(2024);
    for (int i = 0; i < 3000; ++i) {
        std::string value = std::to_string(rng.nextBounded(1 << 20));
        for (uint64_t k = rng.nextBounded(4); k > 0; --k) {
            const size_t at = rng.nextBounded(value.size() + 1);
            const char c = alphabet[rng.nextBounded(alphabet.size())];
            switch (rng.nextBounded(4)) {
              case 0: value.insert(at, 1, c); break;
              case 1:
                if (at < value.size())
                    value[at] = c;
                break;
              case 2:
                if (at < value.size())
                    value.erase(at, 1);
                break;
              default: // grow towards and past 2^32
                value.insert(at, std::to_string(rng.nextBounded(100000)));
                break;
            }
        }
        check(value);
        if (::testing::Test::HasFailure())
            break; // the first mismatch names the value
    }

    if (prev != nullptr)
        setenv("SVBENCH_JOBS", saved.c_str(), 1);
    else
        unsetenv("SVBENCH_JOBS");
}

TEST(ParallelSweep, MatchesSerialResultsAndCacheBytes)
{
    const auto jobs = smallJobList();

    // Reference: the legacy strictly-serial path (direct detailed()
    // calls on a single thread).
    TempCacheFile serial_file("test_parallel_serial.csv");
    std::vector<RunResult> serial;
    {
        ResultCache cache(serial_file.path);
        for (const RunSpec &job : jobs)
            serial.push_back(cache.detailed(job.platform, job.spec,
                                            *job.impl));
    }

    // Same sweep through the scheduler with four workers.
    TempCacheFile par_file("test_parallel_jobs4.csv");
    std::vector<RunResult> parallel;
    {
        ResultCache cache(par_file.path);
        parallel = parallelSweep(cache, jobs, 4);
    }

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        expectSameResult(serial[i], parallel[i]);

    const std::string serial_csv = slurp(serial_file.path);
    EXPECT_FALSE(serial_csv.empty());
    EXPECT_EQ(serial_csv, slurp(par_file.path));
}

TEST(ParallelSweep, SecondRunIsAllCacheHits)
{
    const auto jobs = smallJobList();
    TempCacheFile file("test_parallel_rerun.csv");
    ResultCache cache(file.path);
    const auto first = parallelSweep(cache, jobs, 2);
    const std::string csv_after_first = slurp(file.path);
    const auto second = parallelSweep(cache, jobs, 2);
    // No re-measurement: the CSV did not grow.
    EXPECT_EQ(csv_after_first, slurp(file.path));
    for (size_t i = 0; i < first.size(); ++i)
        expectSameResult(first[i], second[i]);
}

TEST(ParallelSweep, DuplicateJobsSimulateOnce)
{
    const std::vector<RunSpec> jobs(
        4, runOf(RunMode::Detailed, IsaId::Riscv, "fibonacci-go"));

    TempCacheFile file("test_parallel_dup.csv");
    ResultCache cache(file.path);
    const auto results = parallelSweep(cache, jobs, 4);

    std::istringstream is(slurp(file.path));
    std::string line;
    size_t rows = 0;
    while (std::getline(is, line))
        ++rows;
    EXPECT_EQ(rows, 1u);
    for (size_t i = 1; i < results.size(); ++i)
        expectSameResult(results[0], results[i]);
}

TEST(ParallelSweep, MixedHitsMissesAndDuplicatesMatchASerialRunLoop)
{
    // An o3 and an ldcal spec of each kind: pre-recorded hit, miss,
    // and a duplicate of both. The two misses share a checkpoint
    // fingerprint, so they also ride one grouped task.
    const RunSpec o3Miss =
        runOf(RunMode::Detailed, IsaId::Riscv, "fibonacci-go");
    const RunSpec calMiss =
        runOf(RunMode::LoadCal, IsaId::Riscv, "fibonacci-go");
    const RunSpec o3Hit =
        runOf(RunMode::Detailed, IsaId::Cx86, "fibonacci-go");
    const RunSpec calHit =
        runOf(RunMode::LoadCal, IsaId::Cx86, "fibonacci-go");
    const std::vector<RunSpec> jobs = {o3Miss, calHit, calMiss, o3Hit,
                                       o3Miss, calHit, calMiss, o3Hit};

    // The pre-recorded rows hold values no simulation produces, so
    // serving them proves they were read, not re-measured.
    FunctionResult o3Row;
    o3Row.name = o3Hit.spec.name;
    o3Row.cold.cycles = 11;
    o3Row.cold.insts = 5;
    o3Row.warm.cycles = 7;
    o3Row.warm.insts = 5;
    o3Row.ok = true;
    LoadCalibration calRow;
    calRow.name = calHit.spec.name;
    calRow.coldNs = 123;
    for (unsigned k = 0; k < loadWarmSamples; ++k)
        calRow.warmNs[k] = 4 + k;
    calRow.ok = true;
    auto seed = [&](const std::string &path) {
        ResultCache cache(path);
        cache.recordRow(cache.rowKey(o3Hit.platform, o3Hit.spec, o3Hit.mode),
                        packRunResult(o3Row));
        cache.recordRow(
            cache.rowKey(calHit.platform, calHit.spec, calHit.mode),
            packRunResult(calRow));
    };

    TempCacheFile serial_file("test_parallel_mixed_serial.csv");
    seed(serial_file.path);
    std::vector<RunResult> serial;
    {
        ResultCache cache(serial_file.path);
        for (const RunSpec &rs : jobs)
            serial.push_back(cache.run(rs));
    }
    const std::string serial_csv = slurp(serial_file.path);
    // Two seeded rows, then one measured row per distinct miss.
    EXPECT_EQ(std::count(serial_csv.begin(), serial_csv.end(), '\n'), 4);
    expectSameResult(serial[1], RunResult(calRow));
    expectSameResult(serial[3], RunResult(o3Row));
    EXPECT_TRUE(runResultOk(serial[0]));
    EXPECT_TRUE(runResultOk(serial[2]));

    for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        TempCacheFile file("test_parallel_mixed_j" +
                           std::to_string(workers) + ".csv");
        seed(file.path);
        std::vector<RunResult> swept;
        {
            ResultCache cache(file.path);
            swept = parallelSweep(cache, jobs, workers);
        }
        ASSERT_EQ(swept.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i)
            expectSameResult(serial[i], swept[i]);
        EXPECT_EQ(serial_csv, slurp(file.path));
    }
}

TEST(ParallelSweep, ProgressLinesPrintInOneWorkerOrder)
{
    // The O3 run and the calibration share a checkpoint fingerprint,
    // so one worker runs them back to back, while the two emulation
    // runs are groups of their own that finish long before the O3 run
    // does. Lines printed by the workers themselves would put the
    // calibration's line last at 4 workers.
    const std::vector<RunSpec> jobs = {
        runOf(RunMode::Detailed, IsaId::Riscv, "fibonacci-go"),
        runOf(RunMode::Emu, IsaId::Cx86, "fibonacci-go"),
        runOf(RunMode::LoadCal, IsaId::Riscv, "fibonacci-go"),
        runOf(RunMode::Emu, IsaId::Cx86, "aes-go"),
    };
    const std::string riscv = isaName(IsaId::Riscv);
    const std::string cx86 = isaName(IsaId::Cx86);
    const std::string serialOrder =
        "info: measuring fibonacci-go on " + riscv +
        " (detailed O3, cold+warm)...\n"
        "info: calibrating fibonacci-go on " + riscv +
        " for load (cold + " + std::to_string(loadWarmSamples) +
        " warm samples)...\n"
        "info: measuring fibonacci-go on " + cx86 + " (emulation)...\n"
        "info: measuring aes-go on " + cx86 + " (emulation)...\n";
    for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        TempCacheFile file("test_parallel_progress_j" +
                           std::to_string(workers) + ".csv");
        ResultCache cache(file.path);
        testing::internal::CaptureStdout();
        const std::vector<RunResult> results =
            parallelSweep(cache, jobs, workers);
        const std::string out = testing::internal::GetCapturedStdout();
        for (const RunResult &r : results)
            EXPECT_TRUE(runResultOk(r));
        EXPECT_EQ(out, serialOrder);
    }
}

TEST(ResultCache, ConcurrentDetailedRunsKeyOnce)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    const ClusterConfig cfg = config(IsaId::Riscv);

    TempCacheFile file("test_parallel_racing.csv");
    ResultCache cache(file.path);

    std::vector<FunctionResult> results(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < results.size(); ++t) {
        threads.emplace_back([&, t] {
            results[t] = cache.detailed(cfg, spec, impl);
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (const FunctionResult &res : results) {
        EXPECT_TRUE(res.ok);
        expectSameResult(results[0], res);
    }

    // Exactly one row, not torn: it parses and carries every field a
    // serial run writes (20 cold + 20 warm stats — 10 counters plus
    // 10 stall causes each — + ok + schema version).
    std::istringstream is(slurp(file.path));
    std::string line, extra;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_FALSE(std::getline(is, extra));
    size_t fields = 0;
    std::istringstream ls(line);
    std::string tok;
    ASSERT_TRUE(std::getline(ls, tok, '|')); // the key
    EXPECT_NE(tok.find("fibonacci-go"), std::string::npos);
    while (std::getline(ls, tok, '|')) {
        EXPECT_NE(tok.find('='), std::string::npos) << tok;
        ++fields;
    }
    EXPECT_EQ(fields, 42u);
}
