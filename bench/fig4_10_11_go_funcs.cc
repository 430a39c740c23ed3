/**
 * @file
 * Figures 4.10 / 4.11: cycles and L2 misses for every Go-tier
 * function on the RISC-V simulated system. The memcached-dependent
 * hotel subgroup stands an order of magnitude above the rest in L2
 * misses (Section 4.2.1.2).
 */

#include "bench_common.hh"

using namespace svb;

int
main()
{
    ResultCache cache;
    // The Go set mixes store-free and store-backed functions, so each
    // job carries its own cluster configuration.
    std::vector<RunSpec> runs;
    for (const FunctionSpec &spec : workloads::goFunctions()) {
        runs.push_back(benchutil::detailedRun(
            benchutil::chapter4Config(IsaId::Riscv, spec.usesDb), spec));
    }
    const std::vector<FunctionResult> results =
        benchutil::resultsOf<FunctionResult>(parallelSweep(cache, runs));

    report::figureHeader("Figure 4.10",
                         "cycles, all Go functions, RISC-V (cold/warm)",
                         {SystemConfig::paperConfig(IsaId::Riscv)});
    std::vector<report::Row> cyc_rows;
    for (const FunctionResult &res : results) {
        cyc_rows.push_back({res.name,
                            {double(res.cold.cycles),
                             double(res.warm.cycles)}});
    }
    report::barFigure({{"RISCV Cold", "cycles"}, {"RISCV Warm", "cycles"}},
                      cyc_rows);

    report::figureHeader("Figure 4.11",
                         "L2 misses, all Go functions, RISC-V (cold/warm)",
                         {SystemConfig::paperConfig(IsaId::Riscv)});
    std::vector<report::Row> l2_rows;
    for (const FunctionResult &res : results) {
        l2_rows.push_back({res.name,
                           {double(res.cold.l2Misses),
                            double(res.warm.l2Misses)}});
    }
    report::barFigure(
        {{"RISCV Cold", "L2 misses"}, {"RISCV Warm", "L2 misses"}}, l2_rows);
    return 0;
}
