/**
 * @file
 * Design-space ablations (the thesis' stated future work, Section 6):
 * sweep L2 size, branch-predictor strength and LSQ depth on one cold
 * and one warm request of a representative function, on both ISAs.
 *
 * Every point is an independent simulation, so the whole grid is
 * collected first and fanned out across host cores with parallelRun()
 * (cache-free: these configurations differ in fields the ResultCache
 * key does not cover). Output is printed in grid order afterwards,
 * identical to the old serial loop.
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

/** One ablation point: the section it belongs to plus its run. */
struct Point
{
    std::string section; ///< figure header this point prints under
    std::string label;
    RunSpec run;
};

void
printPoint(const Point &point, const FunctionResult &res)
{
    std::printf("  %-34s cold %9lu cyc (cpi %4.2f)   warm %9lu cyc"
                " (cpi %4.2f)%s\n",
                point.label.c_str(), (unsigned long)res.cold.cycles,
                res.cold.cpi, (unsigned long)res.warm.cycles, res.warm.cpi,
                res.ok ? "" : "  [FAILED]");
}

} // namespace

int
main()
{
    const FunctionSpec spec = pick("fibonacci-go");
    std::vector<Point> points;
    auto add = [&](const char *section, std::string label,
                   ClusterConfig cfg) {
        points.push_back(
            {section, std::move(label), benchutil::detailedRun(cfg, spec)});
    };

    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (uint32_t kb : {256u, 512u, 1024u, 2048u}) {
            ClusterConfig cfg = benchutil::chapter4Config(isa, false);
            cfg.system.caches.l2.sizeBytes = kb * 1024;
            add("Ablation A", std::string(isaName(isa)) + " L2=" +
                                  std::to_string(kb) + "KB",
                cfg);
        }
    }

    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (uint32_t entries : {256u, 1024u, 4096u, 16384u}) {
            ClusterConfig cfg = benchutil::chapter4Config(isa, false);
            cfg.system.o3.bp.tableEntries = entries;
            cfg.system.o3.bp.btbEntries = entries;
            add("Ablation B", std::string(isaName(isa)) + " BP=" +
                                  std::to_string(entries) + " entries",
                cfg);
        }
    }

    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (unsigned entries : {8u, 16u, 32u, 64u}) {
            ClusterConfig cfg = benchutil::chapter4Config(isa, false);
            cfg.system.o3.lqEntries = entries;
            cfg.system.o3.sqEntries = entries;
            add("Ablation C", std::string(isaName(isa)) + " LQ/SQ=" +
                                  std::to_string(entries),
                cfg);
        }
    }

    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (BpKind kind :
             {BpKind::Bimodal, BpKind::GShare, BpKind::Tournament}) {
            ClusterConfig cfg = benchutil::chapter4Config(isa, false);
            cfg.system.o3.bp.kind = kind;
            add("Ablation D",
                std::string(isaName(isa)) + " " + bpKindName(kind), cfg);
        }
    }

    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (int mode = 0; mode < 3; ++mode) {
            ClusterConfig cfg = benchutil::chapter4Config(isa, false);
            std::string label(isaName(isa));
            if (mode >= 1) {
                cfg.system.caches.l1i.nextLinePrefetch = true;
                label += " +L1I-pf";
            }
            if (mode >= 2) {
                cfg.system.caches.l2.nextLinePrefetch = true;
                label += " +L2-pf";
            }
            if (mode == 0)
                label += " no prefetch";
            add("Ablation E", label, cfg);
        }
    }

    std::vector<RunSpec> runs;
    runs.reserve(points.size());
    for (const Point &point : points)
        runs.push_back(point.run);
    const std::vector<FunctionResult> results =
        benchutil::resultsOf<FunctionResult>(parallelRun(runs));

    const std::map<std::string, std::string> captions = {
        {"Ablation A", "L2 capacity sweep (fibonacci-go)"},
        {"Ablation B", "branch predictor sweep (fibonacci-go)"},
        {"Ablation C", "LSQ depth sweep (fibonacci-go)"},
        {"Ablation D", "branch predictor organisation (fibonacci-go)"},
        {"Ablation E", "next-line prefetching (fibonacci-go)"},
    };
    std::string current;
    for (size_t i = 0; i < points.size(); ++i) {
        if (points[i].section != current) {
            current = points[i].section;
            report::figureHeader(current, captions.at(current), {});
        }
        printPoint(points[i], results[i]);
    }
    return 0;
}
