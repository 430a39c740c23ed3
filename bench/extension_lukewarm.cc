/**
 * @file
 * Extension study: lukewarm execution (paper Section 2.1).
 *
 * The thesis recounts (citing Schall et al.) that interleaving other
 * functions between a function's invocations thrashes caches and
 * microarchitectural state, so "every invocation behaves as if it was
 * called for the first time". This bench co-locates an interferer on
 * the server core and compares the function's isolated warm request
 * against the interleaved (lukewarm) one.
 */

#include "bench_common.hh"

using namespace svb;

namespace
{

FunctionSpec
pick(const std::string &name)
{
    for (const FunctionSpec &spec : workloads::allFunctions()) {
        if (spec.name == name)
            return spec;
    }
    return {};
}

} // namespace

int
main()
{
    report::figureHeader(
        "Extension: lukewarm execution",
        "warm vs interleaved request, RISC-V (Section 2.1)",
        {SystemConfig::paperConfig(IsaId::Riscv)});

    const std::pair<const char *, const char *> pairs[] = {
        {"fibonacci-go", "aes-python"},
        {"aes-go", "fibonacci-nodejs"},
        {"currency-nodejs", "fibonacci-python"},
    };

    std::printf("%-18s %-18s %12s %12s %8s %14s\n", "function",
                "interferer", "warm cyc", "lukewarm cyc", "slowdown",
                "L1I miss w/lw");
    for (const auto &[fn, interferer] : pairs) {
        ClusterConfig cfg = benchutil::chapter4Config(IsaId::Riscv, false);
        ExperimentRunner runner(cfg);
        const FunctionSpec spec = pick(fn), other = pick(interferer);
        const LukewarmResult res = runner.runLukewarm(
            spec, workloads::workloadImpl(spec.workload), other,
            workloads::workloadImpl(other.workload));
        if (!res.ok) {
            std::printf("%-18s %-18s FAILED\n", fn, interferer);
            continue;
        }
        std::printf("%-18s %-18s %12lu %12lu %7.2fx %6lu/%-6lu\n", fn,
                    interferer, (unsigned long)res.warm.cycles,
                    (unsigned long)res.lukewarm.cycles,
                    double(res.lukewarm.cycles) /
                        double(std::max<uint64_t>(res.warm.cycles, 1)),
                    (unsigned long)res.warm.l1iMisses,
                    (unsigned long)res.lukewarm.l1iMisses);
    }
    std::printf("\nInterleaving a second function on the core thrashes"
                " the caches between\ninvocations: the 'warm' request"
                " pays cold-class misses again.\n");
    return 0;
}
