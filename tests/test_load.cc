/**
 * @file
 * The invocation-load subsystem's contracts:
 *  - arrival generators are deterministic per substream, independent
 *    of how streams are partitioned across SVBENCH_JOBS workers;
 *  - the instance pool implements each keep-alive policy's cold/warm
 *    and eviction semantics;
 *  - loadSweep() produces byte-identical results and CSV rows at any
 *    worker count, with the cold path exercised under load;
 *  - the new ResultCache row modes ("ldcal", "load") round-trip, and
 *    rows of unknown modes or stale schema versions are skipped, not
 *    misparsed;
 *  - overloaded streams, whose in-flight lists grow for the whole
 *    run, replay to pinned outputs, a node crash mid-backlog included;
 *  - seeded mutations of a result CSV always end in accept or
 *    warn-and-miss.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/checkpoint_store.hh"
#include "core/parallel.hh"
#include "load/load_runner.hh"
#include "sim/rng.hh"
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

LoadScenario
smallScenario(const std::string &name, KeepAlivePolicy policy)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    LoadScenario s;
    s.name = name;
    s.cluster = standaloneConfig(IsaId::Riscv);
    s.mix = {{spec, &workloads::workloadImpl(spec.workload), 1.0}};
    s.arrival.kind = ArrivalKind::Poisson;
    s.arrival.ratePerSec = 400.0;
    s.pool.policy = policy;
    s.pool.maxInstances = 4;
    s.pool.keepAliveNs = 2'000'000; // 2 ms: forces TTL expiries
    s.invocations = 400;
    s.seed = 77;
    return s;
}

} // namespace

// --------------------------------------------------------------------------
// Arrival generators
// --------------------------------------------------------------------------

TEST(Arrival, UniformGapIsExact)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Uniform;
    cfg.ratePerSec = 1000.0; // 1 ms gaps
    const auto times = ArrivalProcess::generate(cfg, Rng(1).split(0), 5);
    ASSERT_EQ(times.size(), 5u);
    for (size_t i = 0; i < times.size(); ++i)
        EXPECT_EQ(times[i], (i + 1) * 1'000'000u);
}

TEST(Arrival, PoissonIsMonotoneAndHitsTheMeanRate)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Poisson;
    cfg.ratePerSec = 500.0;
    const size_t n = 20'000;
    const auto times = ArrivalProcess::generate(cfg, Rng(2).split(0), n);
    for (size_t i = 1; i < n; ++i)
        ASSERT_GT(times[i], times[i - 1]);
    // Long-run rate within 5% of the configured one.
    const double secs = double(times.back()) * 1e-9;
    const double rate = double(n) / secs;
    EXPECT_NEAR(rate, cfg.ratePerSec, cfg.ratePerSec * 0.05);
}

TEST(Arrival, BurstPreservesTheAverageRate)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Burst;
    cfg.ratePerSec = 200.0;
    cfg.burstFactor = 5.0;
    cfg.burstDuty = 0.1;
    cfg.burstPeriodNs = 100'000'000;
    const size_t n = 20'000;
    const auto times = ArrivalProcess::generate(cfg, Rng(3).split(0), n);
    const double rate = double(n) / (double(times.back()) * 1e-9);
    EXPECT_NEAR(rate, cfg.ratePerSec, cfg.ratePerSec * 0.10);
    for (size_t i = 1; i < n; ++i)
        ASSERT_GT(times[i], times[i - 1]);
}

TEST(Arrival, SubstreamsIdenticalAtAnyWorkerCount)
{
    // The satellite contract for sim/rng split(): per-stream arrival
    // sequences depend only on (seed, streamId) — partitioning the
    // streams across 1 or 8 pool workers changes nothing.
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Poisson;
    cfg.ratePerSec = 250.0;
    const Rng master(0xfeed);
    constexpr size_t streams = 16;

    auto runWith = [&](unsigned jobs) {
        std::vector<std::vector<uint64_t>> out(streams);
        ThreadPool pool(jobs);
        for (size_t id = 0; id < streams; ++id) {
            pool.submit([&, id] {
                out[id] = ArrivalProcess::generate(cfg, master.split(id),
                                                   200);
            });
        }
        pool.wait();
        return out;
    };
    const auto serial = runWith(1);
    const auto wide = runWith(8);
    ASSERT_EQ(serial.size(), wide.size());
    for (size_t i = 0; i < streams; ++i)
        EXPECT_EQ(serial[i], wide[i]) << "stream " << i;
    // And distinct streams really are distinct.
    EXPECT_NE(serial[0], serial[1]);
}

// --------------------------------------------------------------------------
// Instance pool policies
// --------------------------------------------------------------------------

TEST(InstancePool, AlwaysColdNeverReuses)
{
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::AlwaysCold;
    cfg.maxInstances = 2;
    InstancePool pool(cfg);
    uint64_t t = 0;
    for (int i = 0; i < 10; ++i) {
        t += 1000;
        const auto pl = pool.acquire(0, t);
        EXPECT_TRUE(pl.cold);
        pool.release(pl.slot, t + 100);
    }
    EXPECT_EQ(pool.stats().coldStarts, 10u);
    EXPECT_EQ(pool.stats().warmHits, 0u);
    EXPECT_EQ(pool.liveInstances(), 0u);
}

TEST(InstancePool, AlwaysWarmNeverPaysTheColdPath)
{
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::AlwaysWarm;
    cfg.maxInstances = 2;
    InstancePool pool(cfg);
    uint64_t t = 0;
    for (uint32_t fn = 0; fn < 4; ++fn) { // more functions than slots
        t += 1000;
        const auto pl = pool.acquire(fn, t);
        EXPECT_FALSE(pl.cold);
        pool.release(pl.slot, t + 100);
    }
    EXPECT_EQ(pool.stats().coldStarts, 0u);
    EXPECT_EQ(pool.stats().warmHits, 4u);
}

TEST(InstancePool, FixedTtlEvictsIdleInstances)
{
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::FixedTtl;
    cfg.maxInstances = 4;
    cfg.keepAliveNs = 1000;
    InstancePool pool(cfg);

    auto pl = pool.acquire(0, 0);
    EXPECT_TRUE(pl.cold);
    pool.release(pl.slot, 100);

    // Within the TTL: warm.
    pl = pool.acquire(0, 600);
    EXPECT_FALSE(pl.cold);
    pool.release(pl.slot, 700);

    // Idle past the TTL: evicted, cold again.
    pl = pool.acquire(0, 5000);
    EXPECT_TRUE(pl.cold);
    pool.release(pl.slot, 5100);

    EXPECT_EQ(pool.stats().coldStarts, 2u);
    EXPECT_EQ(pool.stats().warmHits, 1u);
    EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST(InstancePool, FixedTtlBoundaryIsInclusive)
{
    // Regression: expireIdle() used a strict `>` comparison, so a
    // request arriving when the idle time EQUALED keepAliveNs was
    // served warm by an instance the platform had already torn down
    // at that deadline. The TTL is inclusive: exactly-at-boundary is
    // an eviction and a cold start.
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::FixedTtl;
    cfg.maxInstances = 1;
    cfg.keepAliveNs = 1000;
    InstancePool pool(cfg);

    auto pl = pool.acquire(0, 0);
    EXPECT_TRUE(pl.cold);
    pool.release(pl.slot, 700); // idle from t=700

    // One tick before the deadline: still warm.
    pl = pool.acquire(0, 700 + cfg.keepAliveNs - 1);
    EXPECT_FALSE(pl.cold);
    pool.release(pl.slot, 1700); // idle from t=1700

    // Exactly at the deadline: evicted, cold.
    pl = pool.acquire(0, 1700 + cfg.keepAliveNs);
    EXPECT_TRUE(pl.cold);
    pool.release(pl.slot, 2800);

    EXPECT_EQ(pool.stats().coldStarts, 2u);
    EXPECT_EQ(pool.stats().warmHits, 1u);
    EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST(InstancePool, LruEvictsTheLeastRecentlyUsedUnderPressure)
{
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::Lru;
    cfg.maxInstances = 2;
    InstancePool pool(cfg);

    auto a = pool.acquire(0, 0); // cold, slot for fn 0
    pool.release(a.slot, 10);
    auto b = pool.acquire(1, 100); // cold, slot for fn 1
    pool.release(b.slot, 110);

    // fn 0 again: warm (still resident).
    auto c = pool.acquire(0, 200);
    EXPECT_FALSE(c.cold);
    pool.release(c.slot, 210);

    // fn 2 needs a slot: evicts fn 1 (least recently used), cold
    // start. fn 0 — more recently used — survives.
    auto d = pool.acquire(2, 300);
    EXPECT_TRUE(d.cold);
    pool.release(d.slot, 310);
    EXPECT_EQ(pool.stats().evictions, 1u);

    auto e = pool.acquire(0, 400);
    EXPECT_FALSE(e.cold);
    pool.release(e.slot, 410);

    // fn 1 was the victim, so it is cold again — and its slot comes
    // from evicting fn 2, now the least recently used.
    auto f = pool.acquire(1, 500);
    EXPECT_TRUE(f.cold);
    pool.release(f.slot, 510);
    EXPECT_EQ(pool.stats().evictions, 2u);
}

TEST(InstancePool, RecycledSlotsDoNotInheritStaleTimes)
{
    // Regression: step-3/step-4 eviction used to leave the victim's
    // lastUsedNs/busyUntilNs from its previous tenant, so a recycled
    // slot could look "recently used" (or still busy) to TTL expiry
    // before its first request even completed.
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::Lru;
    cfg.maxInstances = 1;
    InstancePool pool(cfg);

    auto a = pool.acquire(0, 0);
    pool.release(a.slot, 9'000'000); // fn 0 busy until t=9ms

    // fn 1 at t=10ms: evicts fn 0's idle instance (step 3). The
    // recycled slot's times must reflect the new tenant's start, not
    // the victim's history.
    auto b = pool.acquire(1, 10'000'000);
    EXPECT_TRUE(b.cold);
    EXPECT_EQ(pool.stats().evictions, 1u);
    EXPECT_EQ(pool.slotLastUsedNs(b.slot), 10'000'000u);
    EXPECT_EQ(pool.slotBusyUntilNs(b.slot), 10'000'000u);
    pool.release(b.slot, 11'000'000);

    // Step 4 (all slots busy, queue behind the earliest-free one for
    // a different function): same contract at the queued start time.
    auto c = pool.acquire(0, 10'500'000);
    EXPECT_TRUE(c.cold);
    EXPECT_EQ(c.startNs, 11'000'000u);
    EXPECT_EQ(pool.slotLastUsedNs(c.slot), 11'000'000u);
    EXPECT_EQ(pool.slotBusyUntilNs(c.slot), 11'000'000u);
    pool.release(c.slot, 12'000'000);
}

TEST(InstancePool, QueuesWhenEverySlotIsBusy)
{
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::FixedTtl;
    cfg.maxInstances = 1;
    cfg.keepAliveNs = 1'000'000;
    InstancePool pool(cfg);

    auto a = pool.acquire(0, 0);
    EXPECT_TRUE(a.cold);
    pool.release(a.slot, 10'000); // busy until t=10000

    // Arrives at t=100 while the only slot is busy: queued behind it,
    // warm (same function keeps the instance resident).
    auto b = pool.acquire(0, 100);
    EXPECT_FALSE(b.cold);
    EXPECT_EQ(b.startNs, 10'000u);
    pool.release(b.slot, 20'000);
}

TEST(InstancePool, SameTimestampAcquiresNeverDoubleBookASlot)
{
    // Regression: acquire() used to leave busyUntilNs untouched until
    // the matching release(), so a second arrival at the same
    // timestamp saw the just-handed-out slot as "warm idle" and
    // double-booked it. The reservation flag makes concurrent
    // same-timestamp acquires land on distinct slots.
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::FixedTtl;
    cfg.maxInstances = 2;
    cfg.keepAliveNs = 1'000'000'000;
    InstancePool pool(cfg);

    // Warm both slots up for function 0 and let them go idle.
    auto a = pool.acquire(0, 0);
    auto b = pool.acquire(0, 0);
    EXPECT_NE(a.slot, b.slot);
    pool.release(a.slot, 1'000);
    pool.release(b.slot, 1'000);

    // Two arrivals at the same instant: both are warm hits, but they
    // must occupy the two distinct instances, not stack up on the MRU
    // one as impossible parallel work.
    auto c = pool.acquire(0, 10'000);
    auto d = pool.acquire(0, 10'000);
    EXPECT_FALSE(c.cold);
    EXPECT_FALSE(d.cold);
    EXPECT_NE(c.slot, d.slot);
    EXPECT_EQ(c.startNs, 10'000u);
    EXPECT_EQ(d.startNs, 10'000u);

    // A third same-instant arrival queues behind the earliest release
    // rather than stealing a reserved slot.
    pool.release(c.slot, 30'000);
    pool.release(d.slot, 40'000);
    auto e = pool.acquire(0, 10'000);
    EXPECT_EQ(e.startNs, 30'000u);
}

TEST(InstancePool, ReleaseWithoutAcquireDies)
{
    PoolConfig cfg;
    cfg.maxInstances = 1;
    InstancePool pool(cfg);
    EXPECT_DEATH(pool.release(0, 100), "not acquired");
}

// --------------------------------------------------------------------------
// Histogram bucket bounds near the top of the value range
// --------------------------------------------------------------------------

TEST(Histogram, BucketBoundsContainTheirValuesUpToUint64Max)
{
    // Regression: bucketLow/bucketHigh in the top octave used to be
    // computed with an unguarded shift, so bounds near 2^63 could
    // wrap; they must bracket their value for the whole uint64 range.
    const uint64_t probes[] = {
        1,
        LatencyHistogram::kSubBuckets - 1,
        LatencyHistogram::kSubBuckets,
        (uint64_t(1) << 62) + 12345,
        (uint64_t(1) << 63) - 1,
        uint64_t(1) << 63,
        (uint64_t(1) << 63) + 0x3039,
        ~uint64_t(0),
    };
    for (uint64_t v : probes) {
        const size_t idx = LatencyHistogram::bucketIndex(v);
        ASSERT_LT(idx, LatencyHistogram::numBuckets()) << v;
        EXPECT_LE(LatencyHistogram::bucketLow(idx), v) << v;
        EXPECT_GE(LatencyHistogram::bucketHigh(idx), v) << v;
    }

    // The layout is contiguous (no gaps, no wrap-induced overlap) and
    // the top bucket saturates exactly at UINT64_MAX.
    for (size_t i = 0; i + 1 < LatencyHistogram::numBuckets(); ++i) {
        ASSERT_LE(LatencyHistogram::bucketLow(i),
                  LatencyHistogram::bucketHigh(i)) << i;
        ASSERT_EQ(LatencyHistogram::bucketHigh(i) + 1,
                  LatencyHistogram::bucketLow(i + 1)) << i;
    }
    EXPECT_EQ(
        LatencyHistogram::bucketHigh(LatencyHistogram::numBuckets() - 1),
        ~uint64_t(0));
}

TEST(Histogram, PercentileIsNeverTinyForHugeLatencies)
{
    // Regression: an unguarded shift could wrap a top-octave bucket
    // bound to a tiny value, so percentile() reported nanoseconds for
    // multi-century latencies. The reported value must always be at
    // or above the true order statistic, within one bucket width.
    const uint64_t big = (uint64_t(1) << 63) + 0x3039;
    LatencyHistogram h;
    h.record(100);
    h.record(big);
    EXPECT_EQ(h.maxValue(), big);
    EXPECT_GE(h.percentile(99.0), big);
    EXPECT_LE(h.percentile(99.0),
              LatencyHistogram::bucketHigh(
                  LatencyHistogram::bucketIndex(big)));

    // In the very top bucket the inclusive bound saturates to
    // UINT64_MAX; the exact recorded maximum is reported instead.
    const uint64_t huge = ~uint64_t(0) - 5;
    LatencyHistogram h2;
    h2.record(100);
    h2.record(huge);
    EXPECT_EQ(h2.percentile(99.0), huge);
    EXPECT_EQ(h2.percentile(100.0), huge);
}

// --------------------------------------------------------------------------
// Load sweep over the simulated cluster
// --------------------------------------------------------------------------

TEST(LoadSweep, DeterministicAcrossWorkerCountsAndExercisesColdPath)
{
    TempCheckpointDir ckpts("ckpt_load_sweep");

    const std::vector<LoadScenario> scenarios = {
        smallScenario("t-ttl", KeepAlivePolicy::FixedTtl),
        smallScenario("t-warm", KeepAlivePolicy::AlwaysWarm),
        smallScenario("t-cold", KeepAlivePolicy::AlwaysCold),
    };

    TempCacheFile serial_file("test_load_serial.csv");
    std::vector<LoadResult> serial;
    {
        ResultCache cache(serial_file.path);
        serial = loadSweep(cache, scenarios, 1);
    }

    TempCacheFile par_file("test_load_jobs8.csv");
    std::vector<LoadResult> wide;
    {
        ResultCache cache(par_file.path);
        wide = loadSweep(cache, scenarios, 8);
    }

    ASSERT_EQ(serial.size(), wide.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << scenarios[i].name;
        // Byte-identical histograms and cold-start counts.
        EXPECT_TRUE(serial[i].latency == wide[i].latency);
        EXPECT_EQ(serial[i].histoFingerprint, wide[i].histoFingerprint);
        EXPECT_EQ(serial[i].coldStarts, wide[i].coldStarts);
        EXPECT_EQ(serial[i].p99Ns, wide[i].p99Ns);
        EXPECT_EQ(serial[i].invocations, serial[i].latency.count());
    }

    // The CSV backing file too (ldcal + load rows, submission order).
    const std::string serial_csv = slurp(serial_file.path);
    EXPECT_FALSE(serial_csv.empty());
    EXPECT_EQ(serial_csv, slurp(par_file.path));

    // The keep-alive policy decides how often the cold path is paid.
    const LoadResult &ttl = serial[0];
    const LoadResult &warm = serial[1];
    const LoadResult &cold = serial[2];
    EXPECT_GT(ttl.coldStarts, 0u);
    EXPECT_LT(ttl.coldStarts, ttl.invocations);
    EXPECT_EQ(warm.coldStarts, 0u);
    EXPECT_EQ(cold.coldStarts, cold.invocations);
    // Mixing cold and warm invocations separates the tail from the
    // median: the cold path is really exercised under load.
    EXPECT_GT(ttl.p99Ns, ttl.p50Ns);
    // Warm-only traffic is strictly faster at the median than
    // cold-only traffic.
    EXPECT_LT(warm.p50Ns, cold.p50Ns);
}

TEST(LoadSweep, SecondSweepIsAllCacheHits)
{
    TempCheckpointDir ckpts("ckpt_load_rerun");
    const std::vector<LoadScenario> scenarios = {
        smallScenario("t-rerun", KeepAlivePolicy::FixedTtl)};

    TempCacheFile file("test_load_rerun.csv");
    ResultCache cache(file.path);
    const auto first = loadSweep(cache, scenarios, 2);
    const std::string csv_after_first = slurp(file.path);
    const auto second = loadSweep(cache, scenarios, 2);
    EXPECT_EQ(csv_after_first, slurp(file.path));
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(first[0].coldStarts, second[0].coldStarts);
    EXPECT_EQ(first[0].p99Ns, second[0].p99Ns);
    EXPECT_EQ(first[0].histoFingerprint, second[0].histoFingerprint);
    // A cache-hit result carries the summary but not the buckets.
    EXPECT_EQ(second[0].latency.count(), 0u);
    EXPECT_TRUE(second[0].ok);
}

TEST(LoadSweep, ScenarioNamesWithCacheMetacharactersDie)
{
    // The scenario name is a CSV row-key component: ',' separates key
    // fields, '|' separates row fields, '=' separates field values. A
    // name containing any of them would corrupt the backing file, so
    // both entry points reject it up front.
    TempCacheFile file("test_load_badname.csv");
    for (const char *bad : {"a,b", "a|b", "a=b", ""}) {
        LoadScenario s = smallScenario("placeholder",
                                       KeepAlivePolicy::FixedTtl);
        s.name = bad;
        EXPECT_DEATH(
            {
                ResultCache cache(file.path);
                LoadRunner(cache).run(s);
            },
            "metacharacter|empty name")
            << "name: '" << bad << "'";
        EXPECT_DEATH(
            {
                ResultCache cache(file.path);
                loadSweep(cache, {s}, 1);
            },
            "metacharacter|empty name")
            << "name: '" << bad << "'";
    }
}

TEST(LoadResultGuards, ZeroSpanReportsZeroNotInfOrNan)
{
    // throughputRps and the utilisation shares divide by the simulated
    // load span; a degenerate scenario must report 0, not inf/nan.
    EXPECT_EQ(safeRatePerSec(100, 0), 0.0);
    EXPECT_EQ(safeShare(5, 0), 0.0);
    EXPECT_GT(safeRatePerSec(100, 1'000'000'000), 0.0);
    EXPECT_DOUBLE_EQ(safeShare(1, 4), 0.25);
}

TEST(LoadResultGuards, SingleInvocationScenarioStaysFinite)
{
    TempCheckpointDir ckpts("ckpt_load_single");
    TempCacheFile file("test_load_single.csv");
    LoadScenario s = smallScenario("t-single", KeepAlivePolicy::FixedTtl);
    s.invocations = 1;
    ResultCache cache(file.path);
    const LoadResult res = LoadRunner(cache).run(s);
    ASSERT_TRUE(res.ok);
    EXPECT_TRUE(std::isfinite(res.throughputRps));
    EXPECT_TRUE(std::isfinite(res.fleetUtilisation));
    ASSERT_EQ(res.nodeUtilisation.size(), 1u);
    EXPECT_TRUE(std::isfinite(res.nodeUtilisation[0]));
    EXPECT_GE(res.throughputRps, 0.0);
}

// --------------------------------------------------------------------------
// Overloaded streams
// --------------------------------------------------------------------------

namespace
{

/**
 * 20k invocations of the Go functions at 4000/s onto 4 FixedTtl slots
 * per node, on hand-written calibrations whose cold path takes 30x the
 * warm one. Most requests queue behind a slot running another function
 * and pay its cold start, so the slots drain slower than requests
 * arrive: the backlog, and with it each node's list of attempts in
 * flight, grows for the whole stream.
 */
LoadScenario
overloadedScenario(ResultCache &cache, const std::string &name)
{
    LoadScenario s;
    s.name = name;
    s.cluster = standaloneConfig(IsaId::Riscv);
    s.arrival.kind = ArrivalKind::Poisson;
    s.arrival.ratePerSec = 4000.0;
    s.pool = {KeepAlivePolicy::FixedTtl, 4, 50'000'000};
    s.invocations = 20'000;
    s.seed = 11;
    const std::pair<const char *, uint64_t> go[] = {
        {"fibonacci-go", 158'000}, {"aes-go", 166'000}, {"auth-go", 159'000}};
    for (const auto &[fn, warm_ns] : go) {
        const FunctionSpec spec = specFor(fn);
        recordCalibration(cache, s.cluster, spec, 30 * warm_ns,
                          {warm_ns, warm_ns, warm_ns, warm_ns});
        s.mix.push_back({spec, &workloads::workloadImpl(spec.workload), 1.0});
    }
    return s;
}

/** One replay's outcome as a line that names every value. */
std::string
backlogOutcome(const LoadResult &r)
{
    std::ostringstream os;
    os << "fp=" << r.histoFingerprint << " good=" << r.goodFingerprint
       << " ok=" << r.succeeded << " failed=" << r.failedInvocations
       << " crashes=" << r.crashes << " cold=" << r.coldStarts
       << " warm=" << r.warmHits << " evictions=" << r.evictions
       << " p50=" << r.p50Ns << " max=" << r.maxNs;
    return os.str();
}

} // namespace

/**
 * Overloaded streams keep their outputs, on one node and on two nodes
 * where node 1 crashes halfway through with 1850 attempts in flight
 * on it. How the engine stores its in-flight attempts must not move
 * any of these values.
 */
TEST(LoadBacklog, OverloadedStreamsKeepTheirOutputs)
{
    TempCacheFile file("test_load_backlog.csv");
    ResultCache cache(file.path);

    const LoadScenario one = overloadedScenario(cache, "t-backlog-n1");
    const LoadResult r1 = LoadRunner(cache).run(one);
    ASSERT_TRUE(r1.ok);
    EXPECT_EQ(r1.invocations, 20'000u);
    EXPECT_EQ(backlogOutcome(r1),
              "fp=5334916347426001835 good=5334916347426001835 ok=20000"
              " failed=0 crashes=0 cold=13401 warm=6599 evictions=13397"
              " p50=5771362303 max=11441984073");

    LoadScenario two = overloadedScenario(cache, "t-backlog-n2-crash");
    two.fleet.nodes = 2;
    two.fleet.nodeFaults.push_back(
        {NodeFaultEvent::Kind::Crash, 1, 2'500'000'000, 500'000'000});
    const LoadResult r2 = LoadRunner(cache).run(two);
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(r2.succeeded + r2.failedInvocations + r2.sheds,
              r2.invocations);
    EXPECT_EQ(backlogOutcome(r2),
              "fp=15694787912189425061 good=13091370108023382009"
              " ok=18150 failed=1850 crashes=1850 cold=13357 warm=6643"
              " evictions=13349 p50=1006632959 max=2718918732");
}

// --------------------------------------------------------------------------
// ResultCache row modes and schema versions
// --------------------------------------------------------------------------

TEST(ResultCacheSchema, UnknownModeRowsAreSkippedNotMisparsed)
{
    TempCacheFile file("test_load_schema.csv");
    {
        std::ofstream os(file.path);
        os << "riscv64,cassandra,00,fib,futuremode|ok=1|v=9\n";
    }
    ResultCache cache(file.path);
    // The unknown-mode row must not satisfy any lookup.
    std::map<std::string, uint64_t> row;
    EXPECT_FALSE(
        cache.lookupRow("riscv64,cassandra,00,fib,futuremode", row));
}

TEST(ResultCacheSchema, StaleVersionRowsAreSkipped)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);

    TempCacheFile file("test_load_stale.csv");
    std::string key;
    {
        ResultCache cache(file.path);
        key = cache.rowKey(cfg, spec, RunMode::LoadCal);
    }
    {
        // A complete ldcal row, but with a schema version from the
        // future: every field present, still rejected.
        std::ofstream os(file.path);
        os << key
           << "|coldNs=5|ok=1|v=99|warm0Ns=1|warm1Ns=1|warm2Ns=1|"
              "warm3Ns=1\n";
    }
    ResultCache cache(file.path);
    ResultCache::Row row;
    EXPECT_FALSE(cache.lookupRow(key, row));
}

TEST(ResultCacheSchema, LoadCalRowRoundTrips)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);

    TempCacheFile file("test_load_roundtrip.csv");
    LoadCalibration cal;
    cal.name = spec.name;
    cal.coldNs = 123456;
    for (unsigned k = 0; k < loadWarmSamples; ++k)
        cal.warmNs[k] = 1000 + k;
    cal.ok = true;
    {
        ResultCache cache(file.path);
        cache.recordRow(cache.rowKey(cfg, spec, RunMode::LoadCal),
                        packRunResult(cal));
    }
    // A fresh cache instance re-reads it from disk.
    ResultCache cache(file.path);
    ResultCache::Row row;
    ASSERT_TRUE(
        cache.lookupRow(cache.rowKey(cfg, spec, RunMode::LoadCal), row));
    const auto back = std::get<LoadCalibration>(
        unpackRunResult(RunMode::LoadCal, spec.name, row));
    EXPECT_EQ(back.coldNs, cal.coldNs);
    for (unsigned k = 0; k < loadWarmSamples; ++k)
        EXPECT_EQ(back.warmNs[k], cal.warmNs[k]);
    EXPECT_TRUE(back.ok);
}

// An o3 row carries every RequestStats counter, cold and warm, under the
// name RequestStats::forEachCounter() gives it. Distinct values catch a
// counter packed under one name and read back under another; CPI is not
// stored but follows from the cycles and instructions read back.
TEST(ResultCacheSchema, O3RowRoundTripsEveryCounter)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);

    TempCacheFile file("test_load_o3_roundtrip.csv");
    FunctionResult res;
    res.name = spec.name;
    res.ok = true;
    uint64_t next = 1000;
    for (RequestStats *rs : {&res.cold, &res.warm}) {
        RequestStats::forEachCounter(
            *rs, [&](const std::string &, const std::string &, bool,
                     uint64_t &value) { value = next++; });
    }
    {
        ResultCache cache(file.path);
        cache.recordRow(cache.rowKey(cfg, spec, RunMode::Detailed),
                        packRunResult(res));
    }
    ResultCache cache(file.path);
    ResultCache::Row row;
    ASSERT_TRUE(
        cache.lookupRow(cache.rowKey(cfg, spec, RunMode::Detailed), row));
    const auto back = std::get<FunctionResult>(
        unpackRunResult(RunMode::Detailed, spec.name, row));
    EXPECT_TRUE(back.ok);
    for (const auto &[want, got] : {std::pair{&res.cold, &back.cold},
                                    std::pair{&res.warm, &back.warm}}) {
        std::vector<uint64_t> sent, read;
        RequestStats::forEachCounter(
            *want, [&](const std::string &, const std::string &, bool,
                       uint64_t value) { sent.push_back(value); });
        RequestStats::forEachCounter(
            *got, [&](const std::string &, const std::string &, bool,
                      uint64_t value) { read.push_back(value); });
        EXPECT_EQ(read, sent);
        EXPECT_DOUBLE_EQ(got->cpi,
                         double(want->cycles) / double(want->insts));
    }
}

// --------------------------------------------------------------------------
// Seeded mutation fuzzing of the result CSV loader
// --------------------------------------------------------------------------

namespace
{

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

/** The key of a CSV line, split as ResultCache's loader splits it. */
std::string
keyOfLine(const std::string &line)
{
    return line.substr(0, line.find('|'));
}

/** A decimal digit run past 2^64 - 1, varied by @p rng. */
std::string
overflowingDigits(Rng &rng)
{
    switch (rng.nextBounded(3)) {
      case 0:
        return "18446744073709551616"; // 2^64
      case 1:
        return "99999999999999999999";
      default: {
        std::string digits(1, char('1' + rng.nextBounded(9)));
        const uint64_t len = 21 + rng.nextBounded(20);
        while (digits.size() < len)
            digits += char('0' + rng.nextBounded(10));
        return digits;
      }
    }
}

} // namespace

TEST(ResultCacheFuzz, SeededMutationsEndInAcceptOrWarnAndMiss)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);
    TempCacheFile file("test_load_fuzz.csv");

    // A real file: one complete row of each schema, written by the
    // cache, with distinct values and the largest valid value in the
    // fingerprint fields. The o3 row, whose "ok" field precedes its
    // warm block, goes last, where a crash mid-append cuts.
    std::map<std::string, ResultCache::Row> original;
    {
        ResultCache cache(file.path);
        const std::vector<std::string> keys = {
            cache.rowKey(cfg, spec, RunMode::Emu),
            cache.rowKey(cfg, spec, RunMode::LoadCal),
            cache.scenarioKey(cfg, "fuzz", "load"),
            cache.scenarioKey(cfg, "fuzz", "wflow"),
            cache.scenarioKey(cfg, "fuzz", "coldrs"),
            cache.rowKey(cfg, spec, RunMode::Detailed)};
        uint64_t value = 1000;
        for (const std::string &key : keys) {
            const RowSchema *schema =
                RowSchema::find(key.substr(key.rfind(',') + 1));
            ASSERT_NE(schema, nullptr) << key;
            ResultCache::Row row;
            for (const std::string &field : schema->fields)
                row[field] = (value += 7919);
            row["ok"] = 1;
            if (row.count("histoFp"))
                row["histoFp"] = UINT64_MAX;
            cache.recordRow(key, row);
            ASSERT_TRUE(cache.lookupRow(key, original[key]));
        }
    }
    const std::string pristine = slurp(file.path);
    const std::vector<std::string> lines = splitLines(pristine);
    ASSERT_EQ(lines.size(), 6u);

    // Reload @p text: the load must finish, every served row must be
    // complete under its schema, every unmutated line must still be
    // served with its own values, and @p miss (if set) must not be.
    size_t reloads = 0;
    auto reload = [&](const std::string &text, const std::string &what,
                      const std::string &miss) {
        SCOPED_TRACE(what);
        {
            std::ofstream os(file.path, std::ios::binary | std::ios::trunc);
            os << text;
        }
        ResultCache cache(file.path);
        ++reloads;
        const std::vector<std::string> now = splitLines(text);
        std::map<std::string, unsigned> keyCount;
        for (const std::string &line : now)
            ++keyCount[keyOfLine(line)];
        for (const auto &[key, count] : keyCount) {
            ResultCache::Row row;
            if (!cache.lookupRow(key, row))
                continue;
            const RowSchema *schema =
                RowSchema::find(key.substr(key.rfind(',') + 1));
            ASSERT_NE(schema, nullptr) << "served a row of no mode: " << key;
            const auto v = row.find("v");
            ASSERT_NE(v, row.end()) << key;
            EXPECT_EQ(v->second, schema->version) << key;
            EXPECT_TRUE(schema->complete(row)) << key;
        }
        // An unterminated final line is never served, however intact.
        const auto whole =
            text.empty() || text.back() == '\n' ? now.end() : now.end() - 1;
        for (const std::string &line : lines) {
            const std::string key = keyOfLine(line);
            if (keyCount[key] != 1 ||
                std::find(now.begin(), whole, line) == whole)
                continue;
            ResultCache::Row row;
            ASSERT_TRUE(cache.lookupRow(key, row))
                << "unmutated row lost: " << key;
            EXPECT_EQ(row, original.at(key)) << key;
        }
        ResultCache::Row row;
        if (!miss.empty()) {
            EXPECT_FALSE(cache.lookupRow(miss, row))
                << "mutated row served: " << miss;
        }
    };

    reload(pristine, "pristine", "");
    Rng rng(0xf022c5f);

    // Byte flips anywhere in the file.
    for (int i = 0; i < 1500; ++i) {
        std::string text = pristine;
        const size_t at = rng.nextBounded(text.size());
        text[at] = char(uint8_t(text[at]) ^ (1u << rng.nextBounded(8)));
        reload(text, "flip at " + std::to_string(at), "");
    }

    // The file cut at each offset of its last (o3) row. A cut inside
    // the final value leaves a complete-looking row with fewer digits,
    // so no unterminated line may be served.
    const std::string o3Key = keyOfLine(lines.back());
    const size_t o3At = pristine.size() - lines.back().size() - 1;
    for (size_t cut = o3At; cut < pristine.size(); ++cut)
        reload(pristine.substr(0, cut), "file cut at " + std::to_string(cut),
               o3Key);
    {
        // Measuring the row again after a cut appends it on a line of
        // its own, and that line is served.
        const std::string torn =
            pristine.substr(0, o3At + lines.back().size() / 2);
        {
            std::ofstream os(file.path, std::ios::binary | std::ios::trunc);
            os << torn;
        }
        {
            ResultCache cache(file.path);
            cache.recordRow(o3Key, original.at(o3Key));
        }
        EXPECT_EQ(slurp(file.path), torn + "\n" + lines.back() + "\n");
        ResultCache cache(file.path);
        ResultCache::Row row;
        ASSERT_TRUE(cache.lookupRow(o3Key, row));
        EXPECT_EQ(row, original.at(o3Key));
    }

    const auto replaceLine = [&](size_t idx, const std::string &with) {
        std::string text;
        for (size_t k = 0; k < lines.size(); ++k)
            text += (k == idx ? with : lines[k]) + "\n";
        return text;
    };

    // A dropped or doubled delimiter breaks its row's key or fields.
    for (int i = 0; i < 600; ++i) {
        const size_t idx = rng.nextBounded(lines.size());
        const char delim = "|=,"[rng.nextBounded(3)];
        std::vector<size_t> at;
        for (size_t k = 0; k < lines[idx].size(); ++k)
            if (lines[idx][k] == delim)
                at.push_back(k);
        std::string line = lines[idx];
        const size_t pos = at[rng.nextBounded(at.size())];
        const bool drop = rng.nextBounded(2) == 0;
        if (drop)
            line.erase(pos, 1);
        else
            line.insert(pos, 1, delim);
        reload(replaceLine(idx, line),
               std::string(drop ? "dropped '" : "doubled '") + delim +
                   "' at " + std::to_string(pos) + " of row " +
                   std::to_string(idx),
               keyOfLine(lines[idx]));
    }

    // A value past 2^64 - 1 makes its row malformed: warned about and
    // measured again, never served clamped.
    for (int i = 0; i < 300; ++i) {
        const size_t idx = rng.nextBounded(lines.size());
        std::vector<size_t> eqs;
        for (size_t k = 0; k < lines[idx].size(); ++k)
            if (lines[idx][k] == '=')
                eqs.push_back(k);
        const size_t eq = eqs[rng.nextBounded(eqs.size())];
        const size_t end = std::min(lines[idx].find('|', eq),
                                    lines[idx].size());
        std::string line = lines[idx];
        const std::string digits = overflowingDigits(rng);
        line.replace(eq + 1, end - eq - 1, digits);
        reload(replaceLine(idx, line),
               digits + " in row " + std::to_string(idx),
               keyOfLine(lines[idx]));
    }
    EXPECT_GT(reloads, 3000u);
}
