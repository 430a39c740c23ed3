/**
 * @file
 * Resilience extension: availability and goodput tails under injected
 * faults, RISC-V vs x86.
 *
 * The load extension (load_tail_latency) assumes every invocation
 * succeeds; this bench drives the same three-function Go mix through
 * the fault model of load/fault.hh and sweeps (ISA x fault scale x
 * client policy). The fault scale multiplies every rate of the base
 * fault config — SVBENCH_FAULTS when set, otherwise the moderate
 * default preset — so scale 0 is the fault-free baseline (availability
 * exactly 100%) and scale 4 a pathological platform. The three client
 * policies compare no client resilience at all, retries with
 * decorrelated-jitter backoff, and retries plus per-attempt timeouts
 * and a per-function circuit breaker.
 *
 * Deterministic: the fault dice, retry jitter, arrivals and warm
 * samples all come from independent seed-derived substreams, so every
 * number (and the fingerprint block) is byte-identical at any
 * SVBENCH_JOBS value.
 */

#include <cstdio>
#include <sstream>

#include "bench_common.hh"
#include "load/load_runner.hh"

using namespace svb;

namespace
{

struct PolicyPoint
{
    const char *label;
    load::RetryPolicy retry;
    load::BreakerConfig breaker;
};

std::vector<PolicyPoint>
policyPoints()
{
    std::vector<PolicyPoint> pts;
    pts.push_back({"no-retry", {}, {}});
    {
        load::RetryPolicy r;
        r.maxAttempts = 3;
        r.backoffBaseNs = 500'000;    // 500 us
        r.backoffCapNs = 10'000'000;  // 10 ms
        pts.push_back({"retry3-jit", r, {}});
    }
    {
        load::RetryPolicy r;
        r.maxAttempts = 3;
        r.backoffBaseNs = 500'000;
        r.backoffCapNs = 10'000'000;
        r.timeoutNs = 50'000'000; // 50 ms: above any fault-free latency
        load::BreakerConfig b;
        b.enabled = true;
        pts.push_back({"retry3-brk", r, b});
    }
    return pts;
}

} // namespace

int
main()
{
    ResultCache cache;

    // Base rates: the environment override, or the moderate preset so
    // the bench exercises faults even without SVBENCH_FAULTS.
    load::FaultConfig base = load::faultsFromEnv();
    if (!base.any())
        base = load::defaultFaultPreset();

    const std::vector<double> scales = {0.0, 1.0, 4.0};
    const std::vector<PolicyPoint> policies = policyPoints();

    // One scenario list over both ISAs: the whole sweep is a single
    // parallel batch, recorded in submission order.
    std::vector<load::LoadScenario> scenarios;
    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (double scale : scales) {
            for (const PolicyPoint &pp : policies) {
                load::LoadScenario s;
                std::ostringstream name;
                // The base rates are in the row key (permil), so an
                // SVBENCH_FAULTS override never reuses stale rows.
                name << "go-mix3;resil;f"
                     << unsigned(base.coldStartFailProb * 1000) << "-"
                     << unsigned(base.crashProb * 1000) << "-"
                     << unsigned(base.stragglerProb * 1000) << "-"
                     << unsigned(base.restoreCorruptProb * 1000)
                     << ";scale" << unsigned(scale) << ";" << pp.label
                     << ";n1500;seed43";
                s.name = name.str();
                s.cluster = benchutil::chapter4Config(isa, false);
                s.mix = benchutil::goMix();
                s.arrival.kind = load::ArrivalKind::Poisson;
                s.arrival.ratePerSec = 400.0;
                s.pool = {load::KeepAlivePolicy::FixedTtl, 4, 50'000'000};
                s.fault = base.scaled(scale);
                s.retry = pp.retry;
                s.breaker = pp.breaker;
                s.invocations = 1500;
                s.seed = 43;
                scenarios.push_back(std::move(s));
            }
        }
    }

    const std::vector<load::LoadResult> results =
        load::loadSweep(cache, scenarios);

    const size_t perIsa = scales.size() * policies.size();
    for (size_t isaIdx = 0; isaIdx < 2; ++isaIdx) {
        const IsaId isa = isaIdx == 0 ? IsaId::Riscv : IsaId::Cx86;
        report::figureHeader(
            "Resilience extension",
            std::string("availability and goodput tails vs fault scale "
                        "and client policy, ") +
                isaName(isa) +
                " (Poisson 400 rps, 3-function Go mix, 1500 invocations)",
            {SystemConfig::paperConfig(isa)});

        std::vector<report::Row> rows;
        for (size_t k = 0; k < perIsa; ++k) {
            const load::LoadResult &res = results[isaIdx * perIsa + k];
            const size_t scaleIdx = k / policies.size();
            const PolicyPoint &pp = policies[k % policies.size()];
            std::ostringstream label;
            label << "x" << unsigned(scales[scaleIdx]) << "/" << pp.label;
            const double n = double(std::max<uint64_t>(1, res.invocations));
            rows.push_back(
                {label.str(),
                 {res.availabilityPct(),
                  double(res.goodP50Ns) / 1000.0,
                  double(res.goodP99Ns) / 1000.0,
                  double(res.errP99Ns) / 1000.0,
                  100.0 * double(res.coldStarts) / n,
                  double(res.retries), double(res.crashes),
                  double(res.timeouts), double(res.sheds)}});
        }
        report::table({"scenario", "avail %", "good p50 us", "good p99 us",
                       "err p99 us", "cold %", "retries", "crashes",
                       "timeouts", "sheds"},
                      rows);
    }

    // The determinism probe: per-scenario fingerprints over the full
    // and goodput-only distributions, independent of SVBENCH_JOBS.
    std::printf("\nDeterminism fingerprints (stable across SVBENCH_JOBS):\n");
    for (const load::LoadResult &res : results) {
        std::printf("  %-56s histo=%016lx good=%016lx\n",
                    res.scenario.c_str(),
                    (unsigned long)res.histoFingerprint,
                    (unsigned long)res.goodFingerprint);
    }
    return 0;
}
