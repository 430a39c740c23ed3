/**
 * @file
 * Workflow extension: end-to-end latency and critical-path stage
 * attribution for composed serverless functions.
 *
 * SeBS-Flow (PAPERS.md) benchmarks serverless *workflows* and shows
 * the end-to-end picture is governed by stage scheduling and
 * inter-function payload transfer, not per-function service time
 * alone. This bench drives the three canonical workflow families —
 * a 4-stage chain, an 8-wide fan-out/fan-in, and a 4x2 map-reduce —
 * over the calibrated Go mix, sweeping (ISA x node count x stage
 * placement). For every point it reports the end-to-end percentiles,
 * the local/remote transfer split, and the per-stage critical-path
 * attribution: which stages the end-to-end latency is actually spent
 * in, computed by walking each completed workflow's last-finishing
 * determining-predecessor chain (the per-stage shares sum to the
 * end-to-end time exactly).
 *
 * Deterministic: all randomness comes from the scenario seed's
 * StreamId substreams and attribution shares are cached as permil
 * integers, so every table and the fingerprint block are
 * byte-identical at any SVBENCH_JOBS value, fresh or cached.
 */

#include <cstdio>
#include <sstream>

#include "bench_common.hh"
#include "load/names.hh"
#include "load/workflow.hh"

using namespace svb;

namespace
{

/** 64 KiB inter-stage payloads: big enough that a cross-node hop
 *  (60 us base + 20 us copy) rivals a warm service time, so placement
 *  actually moves the tables. */
constexpr uint64_t kPayloadBytes = 64 * 1024;

/** The three canonical shapes over the 3-function mix (fns cycled
 *  across stages, so the chain is fib->aes->auth->fib and so on). */
std::vector<load::WorkflowSpec>
shapes()
{
    const std::vector<uint32_t> fns = {0, 1, 2};
    return {
        load::chainSpec("chain-4", 4, fns, kPayloadBytes),
        load::fanOutSpec("fanout-8", 8, fns, kPayloadBytes),
        load::mapReduceSpec("map-reduce", 4, 2, fns, kPayloadBytes),
    };
}

const std::vector<unsigned> nodeCounts = {1, 4};

load::WorkflowSpec
withPlacement(load::WorkflowSpec spec, load::StagePlacement placement)
{
    for (load::StageSpec &st : spec.stages)
        st.placement = placement;
    return spec;
}

load::WorkflowScenario
baseScenario(IsaId isa)
{
    load::WorkflowScenario s;
    s.cluster = benchutil::chapter4Config(isa, false);
    s.functions = benchutil::goMix();
    s.arrival.kind = load::ArrivalKind::Poisson;
    // 500 workflows/s of multi-task DAGs: thousands of stage tasks
    // per second against 2 slots per node, so queueing and placement
    // both matter without saturating the single-node fleet.
    s.arrival.ratePerSec = 500.0;
    s.pool = {load::KeepAlivePolicy::FixedTtl, 2, 50'000'000};
    s.invocations = 300;
    s.seed = 67;
    return s;
}

std::string
scenarioName(const std::string &shape, IsaId isa, unsigned nodes,
             load::StagePlacement placement)
{
    std::ostringstream name;
    name << "go-mix3;wflow;" << shape << ";" << isaName(isa) << ";nodes"
         << nodes << ";" << load::stagePlacementName(placement)
         << ";rate500;n300;seed67";
    return name.str();
}

} // namespace

int
main()
{
    ResultCache cache;

    const std::vector<load::WorkflowSpec> dags = shapes();
    const std::vector<load::StagePlacement> placements = {
        load::StagePlacement::Inherit,
        load::StagePlacement::PayloadAffinity,
    };

    std::vector<load::WorkflowScenario> scenarios;
    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (const load::WorkflowSpec &dag : dags) {
            for (unsigned nodes : nodeCounts) {
                for (load::StagePlacement placement : placements) {
                    load::WorkflowScenario s = baseScenario(isa);
                    s.name =
                        scenarioName(dag.name, isa, nodes, placement);
                    s.dag = withPlacement(dag, placement);
                    s.fleet.nodes = nodes;
                    scenarios.push_back(std::move(s));
                }
            }
        }
    }
    const std::vector<load::WorkflowResult> results =
        load::workflowSweep(cache, scenarios);

    // --- Table 1: end-to-end latency and transfer split per ISA --------
    const size_t perShape = nodeCounts.size() * placements.size();
    const size_t perIsa = dags.size() * perShape;
    for (size_t isaIdx = 0; isaIdx < 2; ++isaIdx) {
        const IsaId isa = isaIdx == 0 ? IsaId::Riscv : IsaId::Cx86;
        report::figureHeader(
            "Workflow extension",
            std::string("end-to-end workflow latency, ") + isaName(isa) +
                " (Poisson 500 workflows/s, 64 KiB inter-stage "
                "payloads, 2 slots/node, 300 workflow instances)",
            {SystemConfig::paperConfig(isa)});

        std::vector<report::Row> rows;
        for (size_t i = isaIdx * perIsa; i < (isaIdx + 1) * perIsa; ++i) {
            const load::WorkflowResult &res = results[i];
            const uint64_t hops =
                res.transfersLocal + res.transfersRemote;
            std::ostringstream label;
            label << scenarios[i].dag.name << "/n" << res.nodes << "/"
                  << load::stagePlacementName(
                         scenarios[i].dag.stages[0].placement);
            rows.push_back(
                {label.str(),
                 {double(res.p50Ns) / 1000.0, double(res.p99Ns) / 1000.0,
                  double(res.goodP99Ns) / 1000.0, res.availabilityPct(),
                  hops ? 100.0 * double(res.transfersRemote) /
                             double(hops)
                       : 0.0,
                  double(res.transferNs) / 1e6}});
        }
        report::table({"workflow", "e2e p50 us", "e2e p99 us",
                       "good p99 us", "avail %", "remote hop %",
                       "xfer total ms"},
                      rows);
    }

    // --- Table 2: critical-path attribution per stage ------------------
    // Where the end-to-end time is spent: each stage's share of the
    // summed critical-path time over all completed workflows, from
    // the cached permil integers (fresh and cached runs print the
    // same bytes). Shown for RISC-V on the larger fleet, where
    // placement changes the answer.
    for (size_t shapeIdx = 0; shapeIdx < dags.size(); ++shapeIdx) {
        report::figureHeader(
            "Workflow extension",
            std::string("critical-path stage attribution, ") +
                dags[shapeIdx].name +
                ", riscv64, 4 nodes (share of summed critical-path "
                "time; a chain charges every stage, a fan-out charges "
                "its slowest worker)",
            {SystemConfig::paperConfig(IsaId::Riscv)});
        std::vector<report::Row> rows;
        for (load::StagePlacement placement : placements) {
            // riscv64 block, this shape, nodes=4.
            const size_t idx = shapeIdx * perShape +
                               placements.size() * 1 +
                               (placement ==
                                        load::StagePlacement::
                                            PayloadAffinity
                                    ? 1
                                    : 0);
            const load::WorkflowResult &res = results[idx];
            for (size_t st = 0; st < res.critPermil.size(); ++st) {
                std::ostringstream label;
                label << load::stagePlacementName(placement) << "/"
                      << dags[shapeIdx].stages[st].name;
                rows.push_back({label.str(),
                                {double(st),
                                 double(res.critPermil[st]) / 10.0}});
            }
        }
        report::table({"placement/stage", "stage idx", "crit-path %"},
                      rows);
    }

    // The determinism probe: distribution and attribution
    // fingerprints, independent of SVBENCH_JOBS and cache state.
    std::printf(
        "\nDeterminism fingerprints (stable across SVBENCH_JOBS):\n");
    for (const load::WorkflowResult &res : results)
        std::printf("  %-64s histo=%016lx crit=%016lx\n",
                    res.scenario.c_str(),
                    (unsigned long)res.histoFingerprint,
                    (unsigned long)res.critFingerprint);
    return 0;
}
