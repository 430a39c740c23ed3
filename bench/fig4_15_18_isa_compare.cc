/**
 * @file
 * Figures 4.15-4.18: RISC-V vs x86 on the standalone + online-shop
 * set — cycles, committed instructions, L1I misses, and L2 misses,
 * each cold and warm. The headline observations (Section 4.2.3.1):
 * every benchmark runs faster on RISC-V, the RISC-V cold run often
 * beats the x86 warm run, and the driver is the much lower dynamic
 * instruction count of the lean RISC-V software stack.
 */

#include "bench_common.hh"
#include "sim/env.hh"

using namespace svb;

int
main()
{
    ResultCache cache;
    const auto specs = benchutil::standalonePlusShop();
    // Both ISAs as one parallel batch; job order (RISC-V sweep, then
    // x86) matches the old serial code, so the CSV cache is identical.
    const auto per_isa = benchutil::sweepConfigs(
        cache,
        {benchutil::chapter4Config(IsaId::Riscv, false),
         benchutil::chapter4Config(IsaId::Cx86, false)},
        specs);
    const auto &rv = per_isa[0];
    const auto &cx = per_isa[1];

    const std::vector<SystemConfig> platforms = {
        SystemConfig::paperConfig(IsaId::Cx86),
        SystemConfig::paperConfig(IsaId::Riscv)};
    const std::vector<std::string> seriesNames = {"x86 Cold", "x86 Warm",
                                                  "RISCV Cold", "RISCV Warm"};

    auto emit = [&](const std::string &fig, const std::string &caption,
                    const std::string &unit, auto field) {
        report::figureHeader(fig, caption, platforms);
        std::vector<report::SeriesSpec> series;
        for (const std::string &name : seriesNames)
            series.push_back({name, unit});
        std::vector<report::Row> rows;
        for (size_t i = 0; i < rv.size(); ++i) {
            rows.push_back({rv[i].name,
                            {double(field(cx[i].cold)),
                             double(field(cx[i].warm)),
                             double(field(rv[i].cold)),
                             double(field(rv[i].warm))}});
        }
        report::barFigure(series, rows);
    };

    emit("Figure 4.15", "cycles, standalone + shop, RISC-V vs x86",
         "cycles", [](const RequestStats &s) { return s.cycles; });
    emit("Figure 4.16",
         "executed instructions, standalone + shop, RISC-V vs x86",
         "insts", [](const RequestStats &s) { return s.insts; });
    emit("Figure 4.17", "L1 instruction misses, RISC-V vs x86", "misses",
         [](const RequestStats &s) { return s.l1iMisses; });
    emit("Figure 4.18", "L2 misses, RISC-V vs x86", "misses",
         [](const RequestStats &s) { return s.l2Misses; });

    // Headline check printed alongside the data.
    size_t riscv_cold_beats_x86_warm = 0;
    for (size_t i = 0; i < rv.size(); ++i) {
        if (rv[i].cold.cycles < cx[i].warm.cycles)
            ++riscv_cold_beats_x86_warm;
    }
    std::printf("\nRISC-V cold faster than x86 warm for %zu of %zu"
                " benchmarks\n", riscv_cold_beats_x86_warm, rv.size());

    // Opt-in extra panel (off by default so the figure output above
    // stays byte-identical): per-request stall-cause attribution.
    if (envFlag("SVBENCH_STALLS", false)) {
        report::figureHeader("Stall panel",
                             "O3 stall-cause breakdown, cold + warm, "
                             "RISC-V vs x86 (percent of cycles)",
                             platforms);
        std::vector<report::Row> stall_rows;
        auto add = [&](const std::string &label, const RequestStats &s) {
            std::vector<double> vals;
            for (unsigned c = 0; c < numStallCauses; ++c)
                vals.push_back(double(s.stalls[c]));
            stall_rows.push_back({label, vals});
        };
        for (size_t i = 0; i < rv.size(); ++i) {
            add(rv[i].name + "/x86/cold", cx[i].cold);
            add(rv[i].name + "/x86/warm", cx[i].warm);
            add(rv[i].name + "/riscv/cold", rv[i].cold);
            add(rv[i].name + "/riscv/warm", rv[i].warm);
        }
        report::stallPanel(stall_rows);
    }
    return 0;
}
