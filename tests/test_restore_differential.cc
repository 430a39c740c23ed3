/**
 * @file
 * Full vs working-set-aware (REAP-style) restore differential.
 *
 * The tentpole invariant of the lazy-restore path: a restore that
 * prefetches only the recorded working set and materialises every
 * other snapshot page on first touch is ARCHITECTURALLY INVISIBLE.
 * Verified here by running the same experiment under SVBENCH_REAP=0
 * and =1 — on both ISAs and both emulation tiers — and asserting
 * byte-identity of the guest-visible latencies, the full guest stats
 * snapshot, and a re-taken checkpoint of the final system state.
 * Plus: CoW sharing across concurrently restored runners.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/checkpoint_store.hh"
#include "core/experiment.hh"
#include "workloads/workloads.hh"

#include "test_support.hh"

using namespace svb;

namespace
{

ClusterConfig
standaloneConfig(IsaId isa, bool fast_warm)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.system.fastWarm = fast_warm;
    cfg.startDb = false;
    cfg.startMemcached = false;
    return cfg;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Pin SVBENCH_REAP for one scope and restore the prior value after.
 *  The gate is latched at System construction, so it must be set
 *  BEFORE an ExperimentRunner is built. */
struct ReapEnv
{
    explicit ReapEnv(bool on)
    {
        const char *prev = std::getenv("SVBENCH_REAP");
        had = prev != nullptr;
        if (had)
            saved = prev;
        setenv("SVBENCH_REAP", on ? "1" : "0", 1);
    }
    ~ReapEnv()
    {
        if (had)
            setenv("SVBENCH_REAP", saved.c_str(), 1);
        else
            unsetenv("SVBENCH_REAP");
    }
    bool had = false;
    std::string saved;
};

/** Serialise the post-run system state to bytes (the strongest
 *  identity surface: every architectural bit, deterministic order). */
std::string
stateBytes(ExperimentRunner &runner, const std::string &dir,
           const std::string &tag)
{
    const std::string path = dir + "/" + tag + ".state";
    runner.cluster().system().saveCheckpoint().saveToFile(path);
    return slurp(path);
}

/**
 * The differential proper: prepare once (publishing the snapshot and
 * its recorded working set), then restore-and-measure under full and
 * under REAP mode. Everything guest-visible must match byte for byte,
 * while the host-side page counters prove the REAP run really did
 * take the lazy path.
 */
void
checkFullVsReap(IsaId isa, bool fast_warm, const std::string &dir)
{
    TempCheckpointDir ckpts(dir);
    std::filesystem::create_directories(dir);
    const FunctionSpec spec = specFor("fibonacci-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    const ClusterConfig cfg = standaloneConfig(isa, fast_warm);

    // Prepare + publish (records the cold request's working set).
    {
        ReapEnv env(false);
        ExperimentRunner prep(cfg);
        ASSERT_TRUE(prep.runFunctionEmu(spec, impl).ok);
    }

    EmuResult full;
    std::map<std::string, double> snapFull;
    std::string bytesFull;
    {
        ReapEnv env(false);
        ExperimentRunner runner(cfg);
        full = runner.runFunctionEmu(spec, impl);
        ASSERT_TRUE(full.ok);
        EXPECT_FALSE(runner.cluster().system().reapEnabled());
        EXPECT_EQ(runner.cluster().system().phys().lazyRestores(), 0u);
        snapFull = runner.cluster().system().stats().snapshotAll();
        bytesFull = stateBytes(runner, dir, "full");
    }

    EmuResult reap;
    std::map<std::string, double> snapReap;
    std::string bytesReap;
    {
        ReapEnv env(true);
        ExperimentRunner runner(cfg);
        reap = runner.runFunctionEmu(spec, impl);
        ASSERT_TRUE(reap.ok);
        PhysMemory &phys = runner.cluster().system().phys();
        // The lazy path must actually have been exercised: at least
        // one working-set prefetch, and not every image page resident.
        EXPECT_GE(phys.lazyRestores(), 1u);
        EXPECT_GT(phys.prefetchedPages(), 0u);
        EXPECT_GT(phys.imagePages(), 0u);
        snapReap = runner.cluster().system().stats().snapshotAll();
        bytesReap = stateBytes(runner, dir, "reap");
    }

    EXPECT_EQ(full.coldNs, reap.coldNs) << "cold latency diverged";
    EXPECT_EQ(full.warmNs, reap.warmNs) << "warm latency diverged";
    EXPECT_EQ(snapFull, snapReap) << "guest stats snapshot diverged";
    ASSERT_FALSE(bytesFull.empty());
    EXPECT_EQ(bytesFull, bytesReap)
        << "post-run architectural state diverged";
}

} // namespace

TEST(RestoreDifferential, FullVsReapRiscvFastWarm)
{
    checkFullVsReap(IsaId::Riscv, true, "reapdiff_rv_fw");
}

TEST(RestoreDifferential, FullVsReapRiscvAtomic)
{
    checkFullVsReap(IsaId::Riscv, false, "reapdiff_rv_at");
}

TEST(RestoreDifferential, FullVsReapCx86FastWarm)
{
    checkFullVsReap(IsaId::Cx86, true, "reapdiff_cx_fw");
}

TEST(RestoreDifferential, FullVsReapCx86Atomic)
{
    checkFullVsReap(IsaId::Cx86, false, "reapdiff_cx_at");
}

TEST(RestoreDifferential, ConcurrentRestoredRunnersShareButDoNotLeak)
{
    // Two runners restored from the same snapshot run back to back
    // while both are alive: the shared CoW image must serve both, and
    // the first runner's guest writes must never leak into the second
    // runner's restore.
    TempCheckpointDir ckpts("reapdiff_cow");
    const FunctionSpec spec = specFor("aes-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv, true);

    ReapEnv env(true);
    {
        ExperimentRunner prep(cfg);
        ASSERT_TRUE(prep.runFunctionEmu(spec, impl).ok);
    }
    ExperimentRunner a(cfg);
    const EmuResult ra = a.runFunctionEmu(spec, impl);
    ASSERT_TRUE(ra.ok);
    EXPECT_GE(a.cluster().system().phys().lazyRestores(), 1u);

    // Runner a stays alive (its materialised pages and image refs
    // included) while b restores from the same fingerprint.
    ExperimentRunner b(cfg);
    const EmuResult rb = b.runFunctionEmu(spec, impl);
    ASSERT_TRUE(rb.ok);
    EXPECT_GE(b.cluster().system().phys().lazyRestores(), 1u);
    EXPECT_EQ(ra.coldNs, rb.coldNs);
    EXPECT_EQ(ra.warmNs, rb.warmNs);
    EXPECT_EQ(a.cluster().system().stats().snapshotAll(),
              b.cluster().system().stats().snapshotAll());
}
