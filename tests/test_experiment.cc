/**
 * @file
 * Integration tests of the full experiment pipeline: cluster boot,
 * checkpoint restore, container deployment, cold/warm measurement.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "workloads/workloads.hh"

#include "test_support.hh"

using namespace svb;

namespace
{

ClusterConfig
smallConfig(IsaId isa, bool with_stores)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.startDb = with_stores;
    cfg.startMemcached = with_stores;
    return cfg;
}

/**
 * Exact O3 request statistics, pinned so that any timing drift in the
 * detailed CPU fails here instead of only in the perf benchmark's
 * digests. The stall array is in cpu/stall_cause.hh order.
 */
struct PinnedStats
{
    uint64_t cycles, insts, uops;
    uint64_t l1iMisses, l1dMisses, l2Misses;
    uint64_t itlbMisses, dtlbMisses;
    uint64_t branches, branchMispredicts;
    uint64_t stalls[numStallCauses];
};

void
expectPinned(const RequestStats &got, const PinnedStats &want,
             const char *what)
{
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.insts, want.insts) << what;
    EXPECT_EQ(got.uops, want.uops) << what;
    EXPECT_EQ(got.l1iMisses, want.l1iMisses) << what;
    EXPECT_EQ(got.l1dMisses, want.l1dMisses) << what;
    EXPECT_EQ(got.l2Misses, want.l2Misses) << what;
    EXPECT_EQ(got.itlbMisses, want.itlbMisses) << what;
    EXPECT_EQ(got.dtlbMisses, want.dtlbMisses) << what;
    EXPECT_EQ(got.branches, want.branches) << what;
    EXPECT_EQ(got.branchMispredicts, want.branchMispredicts) << what;
    for (unsigned c = 0; c < numStallCauses; ++c) {
        EXPECT_EQ(got.stalls[c], want.stalls[c])
            << what << " stall." << stallCauseName(c);
    }
    if (::testing::Test::HasFailure()) {
        // Print the observed values as a ready-to-paste initializer.
        std::string row = "{" + std::to_string(got.cycles) + ", " +
                          std::to_string(got.insts) + ", " +
                          std::to_string(got.uops) + ", " +
                          std::to_string(got.l1iMisses) + ", " +
                          std::to_string(got.l1dMisses) + ", " +
                          std::to_string(got.l2Misses) + ", " +
                          std::to_string(got.itlbMisses) + ", " +
                          std::to_string(got.dtlbMisses) + ", " +
                          std::to_string(got.branches) + ", " +
                          std::to_string(got.branchMispredicts) + ", {";
        for (unsigned c = 0; c < numStallCauses; ++c)
            row += (c ? ", " : "") + std::to_string(got.stalls[c]);
        ADD_FAILURE() << what << " observed: " << row << "}}";
    }
}

/**
 * One host-only counter of @p sys by its printed name. Host-only
 * groups stay out of snapshotAll(), so read the stat listing, as
 * perfbench does.
 */
double
hostStat(System &sys, const std::string &name)
{
    std::ostringstream os;
    sys.stats().printAll(os);
    std::istringstream is(os.str());
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream fields(line);
        std::string key;
        double value = 0;
        if (fields >> key >> value && key == name)
            return value;
    }
    ADD_FAILURE() << "no stat " << name;
    return -1;
}

/**
 * Guest code is immutable: at the end of a run, every instruction O3
 * or the oracle cached and every block the fast tier formed still
 * match a fresh decode of guest memory, field by field.
 */
void
expectImmutableCode(System &sys, const char *what)
{
    EXPECT_GT(hostStat(sys, "system.decode.entries") +
                  double(sys.superblocks().size()),
              0.0)
        << what << ": nothing decoded, nothing checked";
    EXPECT_EQ(sys.decodedCodeMismatches(), 0u) << what;
}

} // namespace

// fibonacci-go cold and warm requests on the paper configuration:
// cycles, insts, uops, L1I/L1D/L2 misses, ITLB/DTLB misses, branches,
// mispredicts, then the ten stall causes.
const PinnedStats kRiscvCold = {
    1511103, 270695, 270695, 10181, 9319, 19493, 177, 157, 31730, 862,
    {104420, 1658, 799835, 38011, 55104, 170014, 126686, 0, 172006, 43369}};
const PinnedStats kRiscvWarm = {
    742501, 158039, 158039, 7633, 3138, 8630, 132, 54, 11134, 226,
    {61902, 220, 473573, 27506, 8386, 42410, 1, 0, 96242, 32261}};
const PinnedStats kCx86Cold = {
    3160763, 410200, 419482, 15542, 24627, 40158, 267, 441, 76026, 621,
    {290109, 1424, 1110451, 57243, 378549, 661459, 27223, 0, 517108,
     117197}};
const PinnedStats kCx86Warm = {
    1636500, 208773, 216122, 12269, 8167, 20431, 217, 172, 24702, 492,
    {167815, 239, 832187, 45239, 49, 156367, 0, 0, 342017, 92587}};

TEST(Experiment, FibonacciGoRiscvColdWarm)
{
    ExperimentRunner runner(smallConfig(IsaId::Riscv, false));
    const FunctionSpec spec = specFor("fibonacci-go");
    FunctionResult res =
        runner.runFunction(spec, workloads::workloadImpl(spec.workload));
    ASSERT_TRUE(res.ok);
    EXPECT_GT(res.cold.cycles, 0u);
    EXPECT_GT(res.warm.cycles, 0u);
    EXPECT_GT(res.cold.insts, 0u);
    // Cold runs the lazy init and misses everywhere: strictly slower.
    EXPECT_GT(res.cold.cycles, res.warm.cycles);
    EXPECT_GT(res.cold.l1iMisses, res.warm.l1iMisses);
    expectPinned(res.cold, kRiscvCold, "riscv cold");
    expectPinned(res.warm, kRiscvWarm, "riscv warm");
    expectImmutableCode(runner.cluster().system(), "riscv detailed");
}

TEST(Experiment, FibonacciGoCx86ColdWarm)
{
    ExperimentRunner runner(smallConfig(IsaId::Cx86, false));
    const FunctionSpec spec = specFor("fibonacci-go");
    FunctionResult res =
        runner.runFunction(spec, workloads::workloadImpl(spec.workload));
    ASSERT_TRUE(res.ok);
    EXPECT_GT(res.cold.cycles, res.warm.cycles);
    expectPinned(res.cold, kCx86Cold, "cx86 cold");
    expectPinned(res.warm, kCx86Warm, "cx86 warm");
    expectImmutableCode(runner.cluster().system(), "cx86 detailed");
}

TEST(Experiment, FibonacciGoEmuFormsBlocksStraightFromCode)
{
    // The fast tier lowers every block from guest memory and fills no
    // decode-cache entry; each instruction it lowers is one counted
    // decode, the host work perfbench's decode.hit_ratio reads.
    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        const char *what = isaName(isa);
        ExperimentRunner runner(smallConfig(isa, false));
        const FunctionSpec spec = specFor("fibonacci-go");
        const EmuResult res = runner.runFunctionEmu(
            spec, workloads::workloadImpl(spec.workload));
        ASSERT_TRUE(res.ok) << what;
        System &sys = runner.cluster().system();
        ASSERT_TRUE(sys.fastPathEnabled())
            << "SVBENCH_FASTWARM=0 turns off the tier this test pins";
        EXPECT_EQ(hostStat(sys, "system.decode.entries"), 0.0) << what;
        const double lowered =
            hostStat(sys, "system.superblock.instsLowered");
        EXPECT_GT(lowered, 0.0) << what;
        EXPECT_EQ(hostStat(sys, "system.decode.misses"), lowered) << what;
        expectImmutableCode(sys, what);
    }
}

TEST(Experiment, PythonInterpreterRuns)
{
    ExperimentRunner runner(smallConfig(IsaId::Riscv, false));
    const FunctionSpec spec = specFor("fibonacci-python");
    FunctionResult res =
        runner.runFunction(spec, workloads::workloadImpl(spec.workload));
    ASSERT_TRUE(res.ok);
    EXPECT_GT(res.cold.cycles, res.warm.cycles);
}

TEST(Experiment, HotelGeoTalksToCassandra)
{
    ExperimentRunner runner(smallConfig(IsaId::Riscv, true));
    const FunctionSpec spec = specFor("geo");
    FunctionResult res =
        runner.runFunction(spec, workloads::workloadImpl(spec.workload));
    ASSERT_TRUE(res.ok);
    EXPECT_GT(res.cold.cycles, res.warm.cycles);
    expectImmutableCode(runner.cluster().system(), "hotel geo");
}

TEST(Experiment, EmulationModeReportsLatencies)
{
    ExperimentRunner runner(smallConfig(IsaId::Riscv, false));
    const FunctionSpec spec = specFor("aes-go");
    EmuResult res = runner.runFunctionEmu(
        spec, workloads::workloadImpl(spec.workload));
    ASSERT_TRUE(res.ok);
    EXPECT_GT(res.coldNs, res.warmNs);
}
