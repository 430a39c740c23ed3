/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries.
 *
 * Every binary keys its measurements through the on-disk ResultCache
 * (svbench_results.csv in the working directory), so figures that
 * replot the same experiments — exactly as the paper's do — reuse
 * each other's runs. Set SVBENCH_FRESH=1 to force re-measurement.
 */

#ifndef SVB_BENCH_BENCH_COMMON_HH
#define SVB_BENCH_BENCH_COMMON_HH

#include <vector>

#include "core/parallel.hh"
#include "core/report.hh"
#include "core/result_cache.hh"
#include "load/load_runner.hh"
#include "workloads/workloads.hh"

namespace svb::benchutil
{

/** Cluster configuration used throughout Chapter 4. */
inline ClusterConfig
chapter4Config(IsaId isa, bool with_stores,
               db::DbKind kind = db::DbKind::Cassandra)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.dbKind = kind;
    cfg.startDb = with_stores;
    cfg.startMemcached = with_stores;
    return cfg;
}

/** Unwrap the results of a one-mode sweep into @p Result values. */
template <class Result>
std::vector<Result>
resultsOf(const std::vector<RunResult> &results)
{
    std::vector<Result> out;
    out.reserve(results.size());
    for (const RunResult &r : results)
        out.push_back(std::get<Result>(r));
    return out;
}

/** The detailed (Figure 4.1) experiment of @p spec on @p cfg. */
inline RunSpec
detailedRun(const ClusterConfig &cfg, const FunctionSpec &spec)
{
    return {.mode = RunMode::Detailed,
            .spec = spec,
            .impl = &workloads::workloadImpl(spec.workload),
            .platform = cfg};
}

/**
 * Run (or fetch) the same function set on several configurations as
 * ONE parallel batch, so the scheduler overlaps simulations across
 * configurations too (e.g. both ISAs of Figs 4.15-4.18 at once).
 * @return one result vector per configuration, in @p cfgs order.
 */
inline std::vector<std::vector<FunctionResult>>
sweepConfigs(ResultCache &cache, const std::vector<ClusterConfig> &cfgs,
             const std::vector<FunctionSpec> &specs)
{
    std::vector<RunSpec> runs;
    runs.reserve(cfgs.size() * specs.size());
    for (const ClusterConfig &cfg : cfgs) {
        for (const FunctionSpec &spec : specs)
            runs.push_back(detailedRun(cfg, spec));
    }
    const std::vector<FunctionResult> flat =
        resultsOf<FunctionResult>(parallelSweep(cache, runs));
    std::vector<std::vector<FunctionResult>> out(cfgs.size());
    for (size_t c = 0; c < cfgs.size(); ++c) {
        out[c].assign(flat.begin() + c * specs.size(),
                      flat.begin() + (c + 1) * specs.size());
    }
    return out;
}

/**
 * Run (or fetch) detailed results for a list of functions.
 *
 * Independent experiments fan out across host cores (SVBENCH_JOBS
 * workers); results, figure tables and the CSV cache are identical to
 * a serial run — see core/parallel.hh.
 */
inline std::vector<FunctionResult>
sweep(ResultCache &cache, IsaId isa,
      const std::vector<FunctionSpec> &specs, bool with_stores)
{
    return sweepConfigs(cache, {chapter4Config(isa, with_stores)}, specs)
        .front();
}

/** The standalone+shop set in the paper's Fig 4.4/4.12/4.15 order. */
inline std::vector<FunctionSpec>
standalonePlusShop()
{
    std::vector<FunctionSpec> specs = workloads::standaloneSuite();
    for (const FunctionSpec &spec : workloads::onlineShopSuite())
        specs.push_back(spec);
    return specs;
}

/** The three Go functions at equal weight: the load benches' mix. */
inline std::vector<load::LoadMixEntry>
goMix()
{
    std::vector<load::LoadMixEntry> mix;
    for (const char *fn : {"fibonacci-go", "aes-go", "auth-go"}) {
        for (const FunctionSpec &spec : workloads::standaloneSuite()) {
            if (spec.name == fn)
                mix.push_back(
                    {spec, &workloads::workloadImpl(spec.workload), 1.0});
        }
    }
    return mix;
}

} // namespace svb::benchutil

#endif // SVB_BENCH_BENCH_COMMON_HH
