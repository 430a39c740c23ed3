/**
 * @file
 * Load extension: tail latency under sustained invocation streams,
 * RISC-V vs x86.
 *
 * The paper's Figure-4.1 protocol measures one cold and one warm
 * request per function. This bench drives the same simulated
 * platform with an open-loop Poisson arrival process over a
 * three-function Go mix and sweeps (arrival rate x keep-alive
 * policy) on both ISAs: the keep-alive policy sets the cold-start
 * rate, and the cold-start rate is what separates p50 from p99.
 *
 * Deterministic: service times are calibrated on the simulated
 * cluster (bit-deterministic, checkpoint-restored cold starts) and
 * the stream simulation is a pure function of the scenario seed —
 * identical seeds give byte-identical histograms and cold-start
 * counts across any SVBENCH_JOBS value.
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
    load::PoolConfig pool;
};

} // namespace

int
main()
{
    ResultCache cache;

    const std::vector<double> rates = {50.0, 200.0, 800.0};
    const std::vector<PolicyPoint> policies = {
        {"always-warm",
         {load::KeepAlivePolicy::AlwaysWarm, 4, 0}},
        {"lru-cap2",
         {load::KeepAlivePolicy::Lru, 2, 0}},
        {"ttl-50ms",
         {load::KeepAlivePolicy::FixedTtl, 4, 50'000'000}},
        {"always-cold",
         {load::KeepAlivePolicy::AlwaysCold, 4, 0}},
    };

    // One scenario list over both ISAs: the whole sweep is a single
    // parallel batch, recorded in submission order.
    std::vector<load::LoadScenario> scenarios;
    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (double rate : rates) {
            for (const PolicyPoint &pp : policies) {
                load::LoadScenario s;
                std::ostringstream name;
                name << "go-mix3;poisson;rate" << unsigned(rate) << ";"
                     << pp.label << ";n2000;seed29";
                s.name = name.str();
                s.cluster = benchutil::chapter4Config(isa, false);
                s.mix = benchutil::goMix();
                s.arrival.kind = load::ArrivalKind::Poisson;
                s.arrival.ratePerSec = rate;
                s.pool = pp.pool;
                s.invocations = 2000;
                s.seed = 29;
                scenarios.push_back(std::move(s));
            }
        }
    }

    const std::vector<load::LoadResult> results =
        load::loadSweep(cache, scenarios);

    const size_t perIsa = rates.size() * policies.size();
    for (size_t isaIdx = 0; isaIdx < 2; ++isaIdx) {
        const IsaId isa = isaIdx == 0 ? IsaId::Riscv : IsaId::Cx86;
        report::figureHeader(
            "Load extension",
            std::string("tail latency vs arrival rate and keep-alive, ") +
                isaName(isa) + " (Poisson, 3-function Go mix, 2000 "
                "invocations)",
            {SystemConfig::paperConfig(isa)});

        std::vector<report::Row> rows;
        for (size_t k = 0; k < perIsa; ++k) {
            const load::LoadResult &res = results[isaIdx * perIsa + k];
            const size_t rateIdx = k / policies.size();
            const PolicyPoint &pp = policies[k % policies.size()];
            std::ostringstream label;
            label << unsigned(rates[rateIdx]) << "rps/" << pp.label;
            const double n = double(std::max<uint64_t>(1, res.invocations));
            rows.push_back(
                {label.str(),
                 {100.0 * double(res.coldStarts) / n,
                  double(res.p50Ns) / 1000.0, double(res.p90Ns) / 1000.0,
                  double(res.p99Ns) / 1000.0, double(res.p999Ns) / 1000.0,
                  res.throughputRps}});
        }
        report::table({"scenario", "cold %", "p50 us", "p90 us", "p99 us",
                       "p99.9 us", "thru rps"},
                      rows);
    }

    // The determinism probe: per-scenario histogram fingerprints and
    // cold-start counts, independent of SVBENCH_JOBS.
    std::printf("\nDeterminism fingerprints (stable across SVBENCH_JOBS):\n");
    for (const load::LoadResult &res : results) {
        std::printf("  %-60s cold=%-5lu histo=%016lx\n",
                    res.scenario.c_str(),
                    (unsigned long)res.coldStarts,
                    (unsigned long)res.histoFingerprint);
    }
    return 0;
}
