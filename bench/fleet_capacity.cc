/**
 * @file
 * Fleet extension: capacity curves across node count and routing
 * policy, RISC-V vs x86.
 *
 * The load and resilience extensions drive a single simulated host;
 * this bench scales the same three-function Go mix out over a fleet
 * of nodes behind the cluster scheduler (load/fleet.hh) and sweeps
 * (ISA x node count x routing policy x offered rate). Capacity is the
 * highest rate of the ladder whose goodput p99 stays under the SLO —
 * five times the lightly-loaded single-node goodput p50, derived per
 * ISA from the sweep itself so the bar tracks the hardware. Two
 * companion tables exercise the rest of the fleet machinery: the
 * goodput/error split when one node of four crashes mid-run (retries
 * drain onto the survivors), and the reactive autoscaler riding a
 * bursty arrival process from one active node to its ceiling. A
 * fourth sweep builds class-structured fleets (FleetSpec) — all
 * RISC-V, all x86 at 2 GHz, and a 2+2 mixed-ISA cluster — and
 * reports capacity, capacity-per-watt and capacity-per-dollar under
 * the class-aware cost/power routing policies.
 *
 * Deterministic: routing draws come from a dedicated seed-derived
 * substream (and the least-loaded default draws nothing), so every
 * number and the fingerprint block are byte-identical at any
 * SVBENCH_JOBS value.
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "bench_common.hh"
#include "load/load_runner.hh"
#include "load/names.hh"
#include "sim/logging.hh"

using namespace svb;

namespace
{

const std::vector<unsigned> nodeCounts = {1, 2, 4};
const std::vector<load::RoutingPolicy> policies = {
    load::RoutingPolicy::LeastLoaded,
    load::RoutingPolicy::PowerOfTwo,
    load::RoutingPolicy::Random,
    load::RoutingPolicy::Affinity,
};
// The ladder must actually saturate the smallest fleet: two slots per
// node at the ~200 us calibrated Go-mix service time serve on the
// order of 10k rps, so the top rung is well past a one-node fleet's
// capacity and below a four-node fleet's.
const std::vector<double> rates = {2000.0, 5000.0, 10000.0, 20000.0,
                                   40000.0};

/** Scenario skeleton shared by every sweep point. */
load::LoadScenario
baseScenario(IsaId isa)
{
    load::LoadScenario s;
    s.cluster = benchutil::chapter4Config(isa, false);
    s.mix = benchutil::goMix();
    s.arrival.kind = load::ArrivalKind::Poisson;
    // Two slots per node: capacity comes from the fleet, not from one
    // big host, so the node-count axis actually bites.
    s.pool = {load::KeepAlivePolicy::FixedTtl, 2, 50'000'000};
    s.invocations = 1000;
    s.seed = 53;
    return s;
}

std::string
capacityName(IsaId isa, unsigned nodes, load::RoutingPolicy pol,
             double rate)
{
    std::ostringstream name;
    name << "go-mix3;fleet;" << isaName(isa) << ";nodes" << nodes << ";"
         << load::routingPolicyName(pol) << ";rate" << unsigned(rate)
         << ";n1000;seed53";
    return name.str();
}

} // namespace

int
main()
{
    ResultCache cache;

    // --- Sweep 1: capacity curves (ISA x nodes x policy x rate) --------
    std::vector<load::LoadScenario> scenarios;
    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (unsigned nodes : nodeCounts) {
            for (load::RoutingPolicy pol : policies) {
                for (double rate : rates) {
                    load::LoadScenario s = baseScenario(isa);
                    s.name = capacityName(isa, nodes, pol, rate);
                    s.arrival.ratePerSec = rate;
                    s.fleet.nodes = nodes;
                    s.fleet.routing = pol;
                    scenarios.push_back(std::move(s));
                }
            }
        }
    }
    const std::vector<load::LoadResult> results =
        load::loadSweep(cache, scenarios);

    const size_t perPolicy = rates.size();
    const size_t perNodes = policies.size() * perPolicy;
    const size_t perIsa = nodeCounts.size() * perNodes;
    for (size_t isaIdx = 0; isaIdx < 2; ++isaIdx) {
        const IsaId isa = isaIdx == 0 ? IsaId::Riscv : IsaId::Cx86;
        // The SLO bar: 5x the goodput p50 of the lightly-loaded
        // single-node least-loaded point (the first rate of the
        // ladder), so queueing has to inflate the tail five-fold
        // before a rate stops counting as served.
        const uint64_t sloNs = 5 * results[isaIdx * perIsa].goodP50Ns;

        report::figureHeader(
            "Fleet extension",
            std::string("capacity vs node count and routing policy, ") +
                isaName(isa) +
                " (Poisson arrivals, 3-function Go mix, 2 slots/node, "
                "1000 invocations; capacity = max rate with good p99 "
                "under 5x the unloaded p50)",
            {SystemConfig::paperConfig(isa)});

        std::vector<report::Row> rows;
        for (size_t nIdx = 0; nIdx < nodeCounts.size(); ++nIdx) {
            for (size_t pIdx = 0; pIdx < policies.size(); ++pIdx) {
                const size_t base =
                    isaIdx * perIsa + nIdx * perNodes + pIdx * perPolicy;
                // Highest rate of the ladder still under the SLO; the
                // reported tail/utilisation columns describe that
                // capacity point.
                size_t cap = 0;
                for (size_t r = 0; r < rates.size(); ++r) {
                    if (results[base + r].goodP99Ns <= sloNs)
                        cap = r;
                }
                const load::LoadResult &at = results[base + cap];
                std::ostringstream label;
                label << "n" << nodeCounts[nIdx] << "/"
                      << load::routingPolicyName(policies[pIdx]);
                const double n =
                    double(std::max<uint64_t>(1, at.invocations));
                rows.push_back(
                    {label.str(),
                     {rates[cap], double(at.goodP50Ns) / 1000.0,
                      double(at.goodP99Ns) / 1000.0,
                      at.throughputRps,
                      100.0 * at.fleetUtilisation,
                      100.0 * double(at.coldStarts) / n}});
            }
        }
        report::table({"fleet", "capacity rps", "good p50 us",
                       "good p99 us", "tput rps", "util %", "cold %"},
                      rows);
    }

    // --- Sweep 2: goodput/error split when a node crashes --------------
    // Composition probe: node-level crashes/partitions on top of the
    // resilience extension's request-level fault preset, with and
    // without client retries. The 8k rps rate keeps attempts in
    // flight, so the node crash actually converts some of them.
    std::vector<load::LoadScenario> crashScenarios;
    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (bool withRetry : {false, true}) {
            load::LoadScenario s = baseScenario(isa);
            std::ostringstream name;
            name << "go-mix3;fleet-crash;" << isaName(isa) << ";nodes4;"
                 << (withRetry ? "retry3" : "no-retry")
                 << ";rate8000;n1000;seed53";
            s.name = name.str();
            s.arrival.ratePerSec = 8000.0;
            s.fleet.nodes = 4;
            s.fault = load::defaultFaultPreset();
            if (withRetry) {
                s.retry.maxAttempts = 3;
                s.retry.backoffBaseNs = 500'000;
                s.retry.backoffCapNs = 10'000'000;
            }
            // The 1000-invocation stream spans ~125 ms at 8k rps:
            // node 1 crashes a quarter of the way in, node 2 is
            // partitioned for the same 30 ms window, so half the
            // fleet routes around while retries drain onto it.
            s.fleet.nodeFaults.push_back(
                {load::NodeFaultEvent::Kind::Crash, 1, 30'000'000,
                 30'000'000});
            s.fleet.nodeFaults.push_back(
                {load::NodeFaultEvent::Kind::Partition, 2, 30'000'000,
                 30'000'000});
            crashScenarios.push_back(std::move(s));
        }
    }
    const std::vector<load::LoadResult> crashResults =
        load::loadSweep(cache, crashScenarios);

    report::figureHeader(
        "Fleet extension",
        "goodput/error split with one node of four crashing (plus a "
        "partitioned neighbour) for 30 ms at t=30ms, Poisson 8000 rps, "
        "request-level fault preset on top",
        {SystemConfig::paperConfig(IsaId::Riscv),
         SystemConfig::paperConfig(IsaId::Cx86)});
    {
        std::vector<report::Row> rows;
        for (const load::LoadResult &res : crashResults) {
            rows.push_back(
                {res.scenario,
                 {res.availabilityPct(), double(res.succeeded),
                  double(res.failedInvocations), double(res.crashes),
                  double(res.retries),
                  double(res.goodP99Ns) / 1000.0,
                  double(res.errP99Ns) / 1000.0}});
        }
        report::table({"scenario", "avail %", "good", "failed", "crashes",
                       "retries", "good p99 us", "err p99 us"},
                      rows);
    }

    // --- Sweep 3: reactive autoscaler riding a burst --------------------
    std::vector<load::LoadScenario> scaleScenarios;
    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        load::LoadScenario s = baseScenario(isa);
        std::ostringstream name;
        name << "go-mix3;fleet-scale;" << isaName(isa)
             << ";nodes6min1;burst6000;n2000;seed53";
        s.name = name.str();
        // 2 ms on-phases at 8x the average rate swamp the single
        // active node's two slots, so in-flight queueing builds up
        // and the 10 ms evaluation cadence scales the fleet out;
        // the 50 ms idle threshold retires nodes between bursts.
        s.arrival.kind = load::ArrivalKind::Burst;
        s.arrival.ratePerSec = 6000.0;
        s.arrival.burstFactor = 8.0;
        s.arrival.burstPeriodNs = 20'000'000;
        s.arrival.burstDuty = 0.1;
        s.invocations = 2000;
        s.fleet.nodes = 6;
        s.fleet.autoscaler.enabled = true;
        s.fleet.autoscaler.minNodes = 1;
        s.fleet.autoscaler.evalPeriodNs = 10'000'000;
        s.fleet.autoscaler.targetInFlightPerNode = 2.0;
        s.fleet.autoscaler.scaleUpLagNs = 5'000'000;
        s.fleet.autoscaler.scaleDownIdleNs = 50'000'000;
        scaleScenarios.push_back(std::move(s));
    }
    const std::vector<load::LoadResult> scaleResults =
        load::loadSweep(cache, scaleScenarios);

    report::figureHeader(
        "Fleet extension",
        "reactive autoscaler under a bursty arrival process (6-node "
        "ceiling, 1-node floor, burst 6000 rps average)",
        {SystemConfig::paperConfig(IsaId::Riscv),
         SystemConfig::paperConfig(IsaId::Cx86)});
    {
        std::vector<report::Row> rows;
        for (const load::LoadResult &res : scaleResults) {
            rows.push_back(
                {res.scenario,
                 {double(res.maxActiveNodes),
                  double(res.goodP50Ns) / 1000.0,
                  double(res.goodP99Ns) / 1000.0,
                  100.0 * res.fleetUtilisation,
                  double(res.coldStarts)}});
        }
        report::table({"scenario", "peak nodes", "good p50 us",
                       "good p99 us", "util %", "cold starts"},
                      rows);
    }

    // --- Sweep 4: node-class fleets — mixed RISC-V + x86 ----------------
    // The figure the paper doesn't have: capacity AND capacity-per-watt
    // for class-structured fleets (load/fleet.hh FleetSpec). Each class
    // carries its own calibrated service model — the x86 class is
    // clocked at 2 GHz, so its nodes really are faster per request —
    // plus cost/power weights sized like a small RISC-V SBC (~4 W,
    // cheap) vs a server-class x86 host (~18 W, 3x the hourly price).
    // The homogeneous fleets bracket the 2+2 mix, and the class-aware
    // policies (cost / power argmin; draw-free) show what routing on
    // the weights does to throughput-per-watt.
    load::NodeClass rvClass =
        load::NodeClass::forIsa("rv64sbc", IsaId::Riscv);
    rvClass.costPerHour = 1.0;
    rvClass.watts = 4.0;
    load::NodeClass x86Class =
        load::NodeClass::forIsa("x86srv", IsaId::Cx86);
    x86Class.system.clockMHz = 2000;
    x86Class.costPerHour = 3.0;
    x86Class.watts = 18.0;

    struct FleetMix {
        const char *name;
        load::FleetSpec spec;
    };
    std::vector<FleetMix> fleets(3);
    fleets[0].name = "rv4";
    fleets[0].spec.groups = {{rvClass, 4}};
    fleets[1].name = "x864";
    fleets[1].spec.groups = {{x86Class, 4}};
    fleets[2].name = "rv2x862";
    fleets[2].spec.groups = {{rvClass, 2}, {x86Class, 2}};

    // Routing policies under test, overridable from the environment
    // (e.g. SVBENCH_FLEET_POLICIES=least-loaded,p2c,cost). Parsed
    // through the shared name round-trip, so the accepted names are
    // exactly the ones the tables print; any other value warns and
    // keeps the default.
    std::vector<load::RoutingPolicy> classPolicies = {
        load::RoutingPolicy::LeastLoaded, load::RoutingPolicy::CostWeighted,
        load::RoutingPolicy::PowerWeighted};
    const char *policies = std::getenv("SVBENCH_FLEET_POLICIES");
    if (policies != nullptr && policies[0] != '\0' &&
        !load::parseRoutingPolicies(policies, classPolicies))
        warn("ignoring SVBENCH_FLEET_POLICIES='", policies,
             "' (want a comma list of routing policies); using "
             "least-loaded,cost,power");

    std::vector<load::LoadScenario> mixScenarios;
    for (const FleetMix &fm : fleets) {
        for (load::RoutingPolicy pol : classPolicies) {
            for (double rate : rates) {
                // The base cluster is the row-key platform; per-class
                // calibrations ride their own class-tagged rows.
                load::LoadScenario s = baseScenario(IsaId::Riscv);
                std::ostringstream name;
                name << "go-mix3;fleetmix;" << fm.name << ";"
                     << load::routingPolicyName(pol) << ";rate"
                     << unsigned(rate) << ";n1000;seed53";
                s.name = name.str();
                s.arrival.ratePerSec = rate;
                s.fleet.spec = fm.spec;
                s.fleet.routing = pol;
                mixScenarios.push_back(std::move(s));
            }
        }
    }
    const std::vector<load::LoadResult> mixResults =
        load::loadSweep(cache, mixScenarios);

    report::figureHeader(
        "Fleet extension",
        "node-class fleets: capacity and capacity-per-watt, all-RISC-V "
        "vs all-x86 (2 GHz) vs 2+2 mixed, class-aware routing "
        "(Poisson, 3-function Go mix, 2 slots/node, 1000 invocations; "
        "common SLO = 5x the unloaded p50 of the all-RISC-V fleet)",
        {SystemConfig::paperConfig(IsaId::Riscv),
         SystemConfig::paperConfig(IsaId::Cx86)});
    {
        // One SLO bar for every fleet — capacity-per-watt is only
        // comparable against a common latency target. Anchored at the
        // all-RISC-V fleet's first-policy lowest-rate point.
        const uint64_t mixSloNs = 5 * mixResults[0].goodP50Ns;
        std::vector<report::Row> rows;
        for (size_t fIdx = 0; fIdx < fleets.size(); ++fIdx) {
            for (size_t pIdx = 0; pIdx < classPolicies.size(); ++pIdx) {
                const size_t base =
                    (fIdx * classPolicies.size() + pIdx) * rates.size();
                size_t cap = 0;
                for (size_t r = 0; r < rates.size(); ++r) {
                    if (mixResults[base + r].goodP99Ns <= mixSloNs)
                        cap = r;
                }
                const load::LoadResult &at = mixResults[base + cap];
                const double watts = double(at.fleetPowerMw) / 1000.0;
                const double dollarsPerHour =
                    double(at.fleetCostMilli) / 1000.0;
                std::ostringstream label;
                label << fleets[fIdx].name << "/"
                      << load::routingPolicyName(classPolicies[pIdx]);
                rows.push_back(
                    {label.str(),
                     {rates[cap], watts, rates[cap] / watts,
                      rates[cap] / dollarsPerHour,
                      double(at.goodP99Ns) / 1000.0,
                      100.0 * at.fleetUtilisation}});
            }
        }
        report::table({"fleet/policy", "capacity rps", "fleet W",
                       "rps per W", "rps per $/h", "good p99 us",
                       "util %"},
                      rows);
    }

    // The determinism probe: per-scenario fingerprints over the full
    // and goodput-only distributions, independent of SVBENCH_JOBS.
    std::printf("\nDeterminism fingerprints (stable across SVBENCH_JOBS):\n");
    auto printFps = [](const std::vector<load::LoadResult> &rs) {
        for (const load::LoadResult &res : rs)
            std::printf("  %-60s histo=%016lx good=%016lx\n",
                        res.scenario.c_str(),
                        (unsigned long)res.histoFingerprint,
                        (unsigned long)res.goodFingerprint);
    };
    printFps(results);
    printFps(crashResults);
    printFps(scaleResults);
    printFps(mixResults);
    return 0;
}
