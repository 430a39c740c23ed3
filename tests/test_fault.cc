/**
 * @file
 * The fault-injection / resilience layer's contracts:
 *  - BackoffSchedule pins its golden sequence (first delay exactly the
 *    base, decorrelated jitter within [base, min(cap, 3*prev)] after,
 *    byte-reproducible per seed);
 *  - CircuitBreaker walks the closed/open/half-open state machine
 *    deterministically, one probe at a time;
 *  - FaultInjector draws are reproducible and a zero-rate config
 *    injects nothing;
 *  - SVBENCH_FAULTS parses (preset, key=value list, garbage ignored);
 *  - InstancePool::kill() tears slots down as crash+eviction and the
 *    next request pays a fresh cold start;
 *  - the full resilience sweep (faults + retries + breaker) is
 *    byte-identical at any SVBENCH_JOBS value, conserves invocation
 *    accounting, and reports 100% availability exactly when every
 *    fault rate is zero.
 */

#include <gtest/gtest.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/checkpoint_store.hh"
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

/** Set SVBENCH_FAULTS for one scope, restoring the prior value. */
struct ScopedFaultsEnv
{
    explicit ScopedFaultsEnv(const char *value)
    {
        const char *prev = std::getenv("SVBENCH_FAULTS");
        if (prev != nullptr) {
            had = true;
            old = prev;
        }
        if (value != nullptr)
            setenv("SVBENCH_FAULTS", value, 1);
        else
            unsetenv("SVBENCH_FAULTS");
    }
    ~ScopedFaultsEnv()
    {
        if (had)
            setenv("SVBENCH_FAULTS", old.c_str(), 1);
        else
            unsetenv("SVBENCH_FAULTS");
    }
    bool had = false;
    std::string old;
};

LoadScenario
faultyScenario(const std::string &name, double fault_scale)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    LoadScenario s;
    s.name = name;
    s.cluster.system = SystemConfig::paperConfig(IsaId::Riscv);
    s.cluster.startDb = false;
    s.cluster.startMemcached = false;
    s.mix = {{spec, &workloads::workloadImpl(spec.workload), 1.0}};
    s.arrival.kind = ArrivalKind::Poisson;
    s.arrival.ratePerSec = 400.0;
    s.pool.policy = KeepAlivePolicy::FixedTtl;
    s.pool.maxInstances = 4;
    s.pool.keepAliveNs = 2'000'000; // 2 ms: forces TTL expiries
    s.fault = defaultFaultPreset().scaled(fault_scale);
    s.retry.maxAttempts = 3;
    s.retry.backoffBaseNs = 500'000;
    s.retry.backoffCapNs = 10'000'000;
    s.retry.timeoutNs = 50'000'000;
    s.breaker.enabled = true;
    s.invocations = 400;
    s.seed = 77;
    return s;
}

} // namespace

// --------------------------------------------------------------------------
// Backoff schedule
// --------------------------------------------------------------------------

TEST(Backoff, FirstDelayIsExactlyTheBaseAndJitterStaysBounded)
{
    RetryPolicy pol;
    pol.backoffBaseNs = 1'000;
    pol.backoffCapNs = 100'000;
    BackoffSchedule sched(pol);
    Rng rng(0xbac0ff);

    uint64_t prev = sched.nextDelayNs(rng);
    EXPECT_EQ(prev, 1'000u); // anchors the whole sequence
    for (int k = 0; k < 64; ++k) {
        const uint64_t hi =
            std::min<uint64_t>(pol.backoffCapNs, 3 * prev);
        const uint64_t d = sched.nextDelayNs(rng);
        EXPECT_GE(d, pol.backoffBaseNs) << "step " << k;
        EXPECT_LE(d, std::max<uint64_t>(hi, pol.backoffBaseNs))
            << "step " << k;
        prev = d;
    }
}

TEST(Backoff, SequenceIsReproduciblePerSeed)
{
    RetryPolicy pol;
    pol.backoffBaseNs = 2'500;
    pol.backoffCapNs = 1'000'000;

    auto sequence = [&pol](uint64_t seed) {
        BackoffSchedule sched(pol);
        Rng rng(seed);
        std::vector<uint64_t> out;
        for (int k = 0; k < 32; ++k)
            out.push_back(sched.nextDelayNs(rng));
        return out;
    };
    EXPECT_EQ(sequence(7), sequence(7));
    EXPECT_NE(sequence(7), sequence(8));
}

TEST(Backoff, CapSaturatesAndZeroBaseMeansImmediateRetry)
{
    RetryPolicy pol;
    pol.backoffBaseNs = 5'000;
    pol.backoffCapNs = 6'000; // cap < 3*base: clamps immediately
    BackoffSchedule sched(pol);
    Rng rng(11);
    EXPECT_EQ(sched.nextDelayNs(rng), 5'000u);
    for (int k = 0; k < 16; ++k)
        EXPECT_LE(sched.nextDelayNs(rng), 6'000u);

    RetryPolicy none;
    none.backoffBaseNs = 0;
    BackoffSchedule zero(none);
    for (int k = 0; k < 4; ++k)
        EXPECT_EQ(zero.nextDelayNs(rng), 0u);
}

// --------------------------------------------------------------------------
// Circuit breaker
// --------------------------------------------------------------------------

TEST(CircuitBreaker, WalksClosedOpenHalfOpenDeterministically)
{
    BreakerConfig cfg;
    cfg.enabled = true;
    cfg.failureThreshold = 3;
    cfg.openCooldownNs = 1'000;
    cfg.halfOpenSuccesses = 2;
    CircuitBreaker br(cfg);

    // Closed admits everything; failureThreshold consecutive
    // failures open it.
    EXPECT_TRUE(br.admit(0));
    br.onFailure(10);
    br.onFailure(20);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
    br.onFailure(30);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(br.timesOpened(), 1u);
    EXPECT_EQ(br.lastOpenedAtNs(), 30u);

    // Open sheds until the cooldown elapsed, then admits one probe.
    EXPECT_FALSE(br.admit(100));
    EXPECT_FALSE(br.admit(1'029));
    EXPECT_TRUE(br.admit(1'030));
    EXPECT_EQ(br.state(), CircuitBreaker::State::HalfOpen);
    // One probe at a time: the rest shed.
    EXPECT_FALSE(br.admit(1'040));

    // halfOpenSuccesses successful probes close it again.
    br.onSuccess(1'100);
    EXPECT_EQ(br.state(), CircuitBreaker::State::HalfOpen);
    EXPECT_TRUE(br.admit(1'110));
    br.onSuccess(1'200);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);

    // A failed probe re-opens immediately with a fresh cooldown.
    br.onFailure(2'000);
    br.onFailure(2'010);
    br.onFailure(2'020);
    ASSERT_EQ(br.state(), CircuitBreaker::State::Open);
    EXPECT_TRUE(br.admit(3'020)); // probe
    br.onFailure(3'100);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(br.timesOpened(), 3u);
    EXPECT_EQ(br.lastOpenedAtNs(), 3'100u);
    EXPECT_FALSE(br.admit(3'200));

    EXPECT_STREQ(breakerStateName(br.state()), "open");
}

TEST(CircuitBreaker, AnUnservedProbeHandsItsSlotBack)
{
    BreakerConfig cfg;
    cfg.enabled = true;
    cfg.failureThreshold = 1;
    cfg.openCooldownNs = 1'000;
    cfg.halfOpenSuccesses = 1;
    CircuitBreaker br(cfg);

    // Closed: releasing an admitted request changes nothing.
    EXPECT_TRUE(br.admit(0));
    br.releaseProbe();
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
    br.onFailure(10);
    ASSERT_EQ(br.state(), CircuitBreaker::State::Open);

    // The probe is admitted but never reaches a server (throttled, or
    // deferred for capacity): handing the slot back lets the next
    // request probe instead of shedding behind a probe that will
    // never report.
    EXPECT_TRUE(br.admit(1'010));
    EXPECT_FALSE(br.admit(1'020));
    br.releaseProbe();
    EXPECT_EQ(br.state(), CircuitBreaker::State::HalfOpen);
    EXPECT_TRUE(br.admit(1'030));
    br.onSuccess(1'100);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
    EXPECT_EQ(br.timesOpened(), 1u);
}

TEST(CircuitBreaker, ProbeDeferredOnAScaledToZeroFleetDoesNotWedge)
{
    // The breaker opens on a scale-to-zero fleet; by the time the
    // cooldown ends every node has retired, so the half-open probe is
    // admitted and then deferred for capacity. A probe that kept its
    // slot across the deferral would shed itself on re-entry, and
    // with nothing in flight nothing would ever clear it: the breaker
    // would shed every later request.
    TempCheckpointDir ckpts("ckpt_fault_probe");
    TempCacheFile file("test_fault_probe.csv");

    LoadScenario s = faultyScenario("t-probe-wedge", 0.0);
    // About one request a second: idle gaps outlast the autoscaler's
    // 1 s scale-down window, so the fleet keeps retiring to zero.
    s.arrival.ratePerSec = 1.0;
    s.pool = PoolConfig{};
    s.fault = FaultConfig{};
    s.fault.crashProb = 0.5;
    s.retry = RetryPolicy{};
    s.breaker = BreakerConfig{};
    s.breaker.enabled = true;
    s.breaker.failureThreshold = 3;
    s.fleet.nodes = 2;
    s.fleet.autoscaler.enabled = true;
    s.fleet.autoscaler.minNodes = 0;
    s.invocations = 4000;
    s.seed = 1;

    ResultCache cache(file.path);
    const LoadResult r = LoadRunner(cache).run(s);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.succeeded + r.failedInvocations + r.sheds, r.invocations);
    // The breaker keeps probing, closing and re-opening instead of
    // staying open for the rest of the run.
    EXPECT_GT(r.breakerOpens, 1u);
    EXPECT_GT(r.succeeded, r.invocations / 10);
}

TEST(CircuitBreaker, DisabledAdmitsEverythingForever)
{
    CircuitBreaker br(BreakerConfig{});
    for (int k = 0; k < 100; ++k) {
        EXPECT_TRUE(br.admit(uint64_t(k) * 10));
        br.onFailure(uint64_t(k) * 10 + 5);
    }
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
    EXPECT_EQ(br.timesOpened(), 0u);
}

// --------------------------------------------------------------------------
// Fault injector and SVBENCH_FAULTS parsing
// --------------------------------------------------------------------------

TEST(FaultInjector, ZeroRateConfigInjectsNothing)
{
    FaultInjector inj(FaultConfig{}, Rng(5).split(3));
    EXPECT_FALSE(inj.enabled());
    for (int k = 0; k < 200; ++k) {
        const FaultInjector::Draw d = inj.draw(k % 2 == 0);
        EXPECT_FALSE(d.restoreCorrupt);
        EXPECT_FALSE(d.coldFail);
        EXPECT_FALSE(d.straggler);
        EXPECT_FALSE(d.crash);
    }
}

TEST(FaultInjector, DrawsAreReproducibleAndHitTheConfiguredRates)
{
    FaultConfig cfg;
    cfg.crashProb = 0.25;
    cfg.stragglerProb = 0.10;
    cfg.coldStartFailProb = 0.50;

    auto sample = [&cfg](uint64_t seed) {
        FaultInjector inj(cfg, Rng(seed).split(3));
        uint64_t crashes = 0, stragglers = 0, coldFails = 0;
        const int n = 20'000;
        for (int k = 0; k < n; ++k) {
            const FaultInjector::Draw d = inj.draw(true);
            crashes += d.crash;
            stragglers += d.straggler;
            coldFails += d.coldFail;
            EXPECT_GE(d.crashFrac, 0.1);
            EXPECT_LT(d.crashFrac, 0.9);
        }
        return std::vector<uint64_t>{crashes, stragglers, coldFails};
    };
    const auto a = sample(99);
    EXPECT_EQ(a, sample(99));
    // Long-run rates within 10% relative of the configured ones.
    EXPECT_NEAR(double(a[0]) / 20'000, 0.25, 0.025);
    EXPECT_NEAR(double(a[1]) / 20'000, 0.10, 0.010);
    EXPECT_NEAR(double(a[2]) / 20'000, 0.50, 0.050);
}

TEST(FaultConfigEnv, ParsesPresetListAndGarbage)
{
    {
        ScopedFaultsEnv env(nullptr);
        EXPECT_FALSE(faultsFromEnv().any());
    }
    {
        ScopedFaultsEnv env("0");
        EXPECT_FALSE(faultsFromEnv().any());
    }
    {
        ScopedFaultsEnv env("1");
        const FaultConfig cfg = faultsFromEnv();
        EXPECT_TRUE(cfg.any());
        EXPECT_DOUBLE_EQ(cfg.coldStartFailProb, 0.05);
        EXPECT_DOUBLE_EQ(cfg.crashProb, 0.02);
    }
    {
        ScopedFaultsEnv env(
            "cold=0.5,crash=0.1,straggler-factor=4,bogus=9,junk");
        const FaultConfig cfg = faultsFromEnv();
        EXPECT_DOUBLE_EQ(cfg.coldStartFailProb, 0.5);
        EXPECT_DOUBLE_EQ(cfg.crashProb, 0.1);
        EXPECT_DOUBLE_EQ(cfg.stragglerFactor, 4.0);
        EXPECT_DOUBLE_EQ(cfg.stragglerProb, 0.0);
    }
    // Scaling clamps into [0, 1] and scale 0 turns everything off.
    const FaultConfig preset = defaultFaultPreset();
    EXPECT_FALSE(preset.scaled(0.0).any());
    EXPECT_DOUBLE_EQ(preset.scaled(100.0).coldStartFailProb, 1.0);
}

namespace
{

/** The FaultConfig field each SVBENCH_FAULTS key sets, and whether it
 *  is a probability (clamped into [0, 1]) or a factor (at least 1). */
struct FaultKey
{
    const char *name;
    double FaultConfig::*field;
    bool prob;
};

const FaultKey kFaultKeys[] = {
    {"cold", &FaultConfig::coldStartFailProb, true},
    {"crash", &FaultConfig::crashProb, true},
    {"straggler", &FaultConfig::stragglerProb, true},
    {"straggler-factor", &FaultConfig::stragglerFactor, false},
    {"restore", &FaultConfig::restoreCorruptProb, true},
    {"restore-boot", &FaultConfig::restoreBootFactor, false},
};

} // namespace

// Seeded mutations of key=value lists. A value is either a number
// printed in shortest round-trip form, which must apply exactly
// (clamped), or that number spoilt so that it is no longer wholly one
// finite number: a trailing or embedded letter, a leading space or
// plus sign, trailing points, an empty value, an infinity or a NaN.
// A spoilt entry warns and leaves its field as it was, where std::atof
// used to read "0.5x" as 0.5 and "abc" as 0.
TEST(FaultConfigEnv, SeededMutationsApplyExactlyOrLeaveTheFieldAlone)
{
    Rng rng(4242);
    for (int round = 0; round < 400; ++round) {
        FaultConfig want;
        std::string env;
        for (uint64_t n = 1 + rng.nextBounded(4); n > 0; --n) {
            const FaultKey &key = kFaultKeys[rng.nextBounded(6)];
            const double v = rng.nextBounded(3) == 0
                                 ? rng.nextDouble() * 1e6
                                 : rng.nextDouble() * 4.0 - 1.0;
            char buf[64];
            const auto res = std::to_chars(buf, buf + sizeof(buf), v);
            std::string text(buf, res.ptr);
            bool spoilt = true;
            switch (rng.nextBounded(10)) {
              case 0: text += "x"; break;
              case 1:
                text.insert(rng.nextBounded(text.size() + 1), 1, 'q');
                break;
              case 2: text = " " + text; break;
              case 3: text = "+" + text; break;
              case 4: text += ".."; break;
              case 5: text.clear(); break;
              case 6: text = rng.nextBounded(2) ? "inf" : "-inf"; break;
              case 7: text = "nan"; break;
              default: spoilt = false; break;
            }
            if (!spoilt)
                want.*key.field = key.prob ? std::min(1.0, std::max(0.0, v))
                                           : std::max(1.0, v);
            env += std::string(env.empty() ? "" : ",") + key.name + "=" +
                   text;
        }
        ScopedFaultsEnv scoped(env.c_str());
        const FaultConfig got = faultsFromEnv();
        for (const FaultKey &key : kFaultKeys) {
            ASSERT_EQ(got.*key.field, want.*key.field)
                << key.name << " from SVBENCH_FAULTS='" << env << "'";
        }
    }
}

// Every attempt straggles, at a factor whose product with the service
// time leaves uint64_t's range. The scaling saturates, so no straggler
// finishes faster than an unscaled attempt; the unchecked conversion it
// replaced is undefined behaviour and read 0 (an instant straggler) with
// GCC on x86-64. The service times are a fixed calibration, so only the
// replay engine runs.
TEST(FaultReplay, HugeStragglerFactorIsNeverFasterThanUnscaled)
{
    TempCacheFile file("test_fault_straggler.csv");
    ResultCache cache(file.path);
    const FunctionSpec spec = specFor("fibonacci-go");
    LoadScenario s;
    s.name = "t-fault-straggler";
    s.cluster.system = SystemConfig::paperConfig(IsaId::Riscv);
    s.cluster.startDb = false;
    s.cluster.startMemcached = false;
    s.mix = {{spec, &workloads::workloadImpl(spec.workload), 1.0}};
    s.arrival.ratePerSec = 1000.0;
    s.pool.maxInstances = 4;
    s.invocations = 64;
    s.seed = 9;
    recordCalibration(cache, s.cluster, spec, 4'000'000,
                      {300'000, 350'000, 400'000, 450'000});

    LoadResult plain, huge;
    {
        ScopedFaultsEnv env("straggler=1,straggler-factor=1");
        s.fault = faultsFromEnv();
        plain = LoadRunner(cache).run(s);
    }
    {
        ScopedFaultsEnv env("straggler=1,straggler-factor=1e30");
        s.fault = faultsFromEnv();
        ASSERT_EQ(s.fault.stragglerFactor, 1e30);
        huge = LoadRunner(cache).run(s);
    }
    ASSERT_TRUE(plain.ok && huge.ok);
    EXPECT_EQ(huge.stragglers, huge.invocations);
    EXPECT_EQ(huge.succeeded, huge.invocations);
    EXPECT_GE(huge.latency.minValue(), plain.latency.maxValue());
}

// --------------------------------------------------------------------------
// Pool teardown (kill)
// --------------------------------------------------------------------------

TEST(InstancePool, KillCountsCrashPlusEvictionAndGoesColdAgain)
{
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::FixedTtl;
    cfg.maxInstances = 2;
    cfg.keepAliveNs = 1'000'000;
    InstancePool pool(cfg);

    auto a = pool.acquire(0, 0);
    EXPECT_TRUE(a.cold);
    pool.kill(a.slot, 5'000); // crashes mid-request
    EXPECT_EQ(pool.stats().crashes, 1u);
    EXPECT_EQ(pool.stats().evictions, 1u);
    EXPECT_EQ(pool.liveInstances(), 0u);

    // The dead instance is gone: the same function pays a fresh cold
    // start well within what would have been its keep-alive window.
    auto b = pool.acquire(0, 6'000);
    EXPECT_TRUE(b.cold);
    pool.release(b.slot, 7'000);
    EXPECT_EQ(pool.stats().coldStarts, 2u);
}

// --------------------------------------------------------------------------
// End-to-end resilience sweep
// --------------------------------------------------------------------------

TEST(ResilienceSweep, DeterministicAcrossWorkersAndConservesAccounting)
{
    TempCheckpointDir ckpts("ckpt_fault_sweep");

    LoadScenario noRetry = faultyScenario("t-fault-x4-noretry", 4.0);
    noRetry.retry = RetryPolicy{}; // every injected failure is final
    noRetry.breaker = BreakerConfig{};
    const std::vector<LoadScenario> scenarios = {
        faultyScenario("t-fault-off", 0.0),
        faultyScenario("t-fault-x1", 1.0),
        faultyScenario("t-fault-x4", 4.0),
        noRetry,
    };

    TempCacheFile serial_file("test_fault_serial.csv");
    std::vector<LoadResult> serial;
    {
        ResultCache cache(serial_file.path);
        serial = loadSweep(cache, scenarios, 1);
    }

    TempCacheFile par_file("test_fault_jobs8.csv");
    std::vector<LoadResult> wide;
    {
        ResultCache cache(par_file.path);
        wide = loadSweep(cache, scenarios, 8);
    }

    ASSERT_EQ(serial.size(), wide.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << scenarios[i].name;
        // Byte-identical distributions and counters at any job count.
        EXPECT_TRUE(serial[i].latency == wide[i].latency);
        EXPECT_TRUE(serial[i].goodLatency == wide[i].goodLatency);
        EXPECT_EQ(serial[i].histoFingerprint, wide[i].histoFingerprint);
        EXPECT_EQ(serial[i].goodFingerprint, wide[i].goodFingerprint);
        EXPECT_EQ(serial[i].crashes, wide[i].crashes);
        EXPECT_EQ(serial[i].retries, wide[i].retries);
        EXPECT_EQ(serial[i].sheds, wide[i].sheds);

        // Conservation: every invocation terminates exactly once.
        const LoadResult &r = serial[i];
        EXPECT_EQ(r.succeeded + r.failedInvocations + r.sheds,
                  r.invocations);
        EXPECT_EQ(r.latency.count(), r.invocations);
        EXPECT_EQ(r.goodLatency.count(), r.succeeded);
        EXPECT_EQ(r.errorLatency.count(),
                  r.failedInvocations + r.sheds);
        // Every kill() (crash or failed cold start) is an eviction.
        EXPECT_GE(r.evictions, r.crashes + r.coldStartFailures);
    }
    // CSV backing files byte-identical too.
    const std::string serial_csv = slurp(serial_file.path);
    EXPECT_FALSE(serial_csv.empty());
    EXPECT_EQ(serial_csv, slurp(par_file.path));

    // Availability: exactly 100% with every rate zero; with faults
    // injected, retries may or may not recover everything, but
    // without retries every injected terminal failure is client
    // visible, so availability must fall below 100%.
    const LoadResult &off = serial[0];
    EXPECT_EQ(off.succeeded, off.invocations);
    EXPECT_DOUBLE_EQ(off.availabilityPct(), 100.0);
    EXPECT_EQ(off.crashes + off.coldStartFailures + off.stragglers +
                  off.corruptRestores + off.retries + off.sheds,
              0u);
    EXPECT_GT(serial[1].crashes + serial[1].coldStartFailures, 0u);
    EXPECT_GT(serial[1].retries, 0u);
    const LoadResult &bare = serial[3];
    EXPECT_GT(bare.crashes + bare.coldStartFailures, 0u);
    EXPECT_EQ(bare.retries, 0u);
    EXPECT_EQ(bare.failedInvocations,
              bare.crashes + bare.coldStartFailures + bare.timeouts);
    EXPECT_LT(bare.availabilityPct(), 100.0);
    // Client resilience helps: retries at the same fault scale keep
    // availability at or above the bare policy's.
    EXPECT_GE(serial[2].availabilityPct(), bare.availabilityPct());
}
