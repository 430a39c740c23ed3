/**
 * @file
 * The checkpoint-once / restore-many contract.
 *
 * The non-negotiable invariant: an experiment that restores a
 * prepared-state checkpoint produces measurements BYTE-IDENTICAL to
 * one that boots and settles from scratch — same RequestStats, same
 * full post-measurement stats snapshot, same CSV row. Verified here
 * for both ISAs, with and without database containers, in detailed
 * and emulation mode; plus the loader's corruption defences and the
 * ResultCache's tolerance of truncated backing files.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>

#include "core/checkpoint_store.hh"
#include "mem/phys_memory.hh"
#include "core/result_cache.hh"
#include "workloads/workloads.hh"

#include "test_support.hh"

using namespace svb;

namespace
{

ClusterConfig
standaloneConfig(IsaId isa)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
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

void
expectSameStats(const RequestStats &a, const RequestStats &b,
                const std::string &label)
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.insts, b.insts) << label;
    EXPECT_EQ(a.uops, b.uops) << label;
    EXPECT_EQ(a.l1iMisses, b.l1iMisses) << label;
    EXPECT_EQ(a.l1dMisses, b.l1dMisses) << label;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << label;
    EXPECT_EQ(a.branches, b.branches) << label;
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts) << label;
    EXPECT_EQ(a.itlbMisses, b.itlbMisses) << label;
    EXPECT_EQ(a.dtlbMisses, b.dtlbMisses) << label;
}

/**
 * Run the same function on two independently constructed runners.
 * The first prepares from scratch and publishes the checkpoint; the
 * second restores it. Everything measurable must match byte for byte,
 * including the full post-measurement stats tree.
 */
void
checkRoundTrip(const ClusterConfig &cfg, const std::string &fn,
               const std::string &dir)
{
    TempCheckpointDir ckpts(dir);
    const FunctionSpec spec = specFor(fn);
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);

    ExperimentRunner fresh(cfg);
    const FunctionResult a = fresh.runFunction(spec, impl);
    ASSERT_TRUE(a.ok) << fn << ": fresh run failed";
    const auto snapA = fresh.cluster().system().stats().snapshotAll();

    // The checkpoint file must exist on disk now.
    const std::string fp = CheckpointStore::fingerprint(cfg, spec);
    EXPECT_TRUE(std::filesystem::exists(
        CheckpointStore::global().pathFor(fp)));

    ExperimentRunner restored(cfg);
    const FunctionResult b = restored.runFunction(spec, impl);
    ASSERT_TRUE(b.ok) << fn << ": restored run failed";
    const auto snapB = restored.cluster().system().stats().snapshotAll();

    expectSameStats(a.cold, b.cold, fn + " cold");
    expectSameStats(a.warm, b.warm, fn + " warm");
    EXPECT_EQ(snapA, snapB) << fn
                            << ": post-measurement stats trees differ";
}

} // namespace

TEST(CheckpointStoreTest, FingerprintSharesBackendAblationPoints)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    const ClusterConfig base = standaloneConfig(IsaId::Riscv);

    // Backend-only parameters must NOT change the fingerprint: the
    // whole point is that ablation points over latencies, prefetchers,
    // O3 geometry and predictor kind reuse one prepared snapshot.
    ClusterConfig latency = base;
    latency.system.caches.l2.hitLatency = 40;
    latency.system.dram.rowMissLatency = 200;
    ClusterConfig prefetch = base;
    prefetch.system.caches.l1d.nextLinePrefetch = true;
    ClusterConfig o3geom = base;
    o3geom.system.o3.robEntries = 64;
    ClusterConfig bp = base;
    bp.system.o3.bp.kind = BpKind::Bimodal;
    bp.system.o3.bp.tableEntries = 256;

    const std::string fpBase = CheckpointStore::fingerprint(base, spec);
    EXPECT_EQ(fpBase, CheckpointStore::fingerprint(latency, spec));
    EXPECT_EQ(fpBase, CheckpointStore::fingerprint(prefetch, spec));
    EXPECT_EQ(fpBase, CheckpointStore::fingerprint(o3geom, spec));
    EXPECT_EQ(fpBase, CheckpointStore::fingerprint(bp, spec));

    // Frontend-visible parameters MUST change it.
    ClusterConfig otherIsa = standaloneConfig(IsaId::Cx86);
    ClusterConfig geometry = base;
    geometry.system.caches.l2.sizeBytes = 256 * 1024;
    ClusterConfig withDb = base;
    withDb.startDb = true;
    EXPECT_NE(fpBase, CheckpointStore::fingerprint(otherIsa, spec));
    EXPECT_NE(fpBase, CheckpointStore::fingerprint(geometry, spec));
    EXPECT_NE(fpBase, CheckpointStore::fingerprint(withDb, spec));
    EXPECT_NE(fpBase,
              CheckpointStore::fingerprint(base, specFor("aes-go")));

    // The lukewarm pair fingerprint is distinct from the solo one.
    const FunctionSpec other = specFor("aes-go");
    EXPECT_NE(fpBase, CheckpointStore::fingerprint(base, spec, &other));
}

TEST(CheckpointRestoreTest, ByteIdenticalRiscv)
{
    checkRoundTrip(standaloneConfig(IsaId::Riscv), "fibonacci-go",
                   "ckpt_rt_riscv");
}

TEST(CheckpointRestoreTest, ByteIdenticalCx86)
{
    checkRoundTrip(standaloneConfig(IsaId::Cx86), "fibonacci-go",
                   "ckpt_rt_cx86");
}

TEST(CheckpointRestoreTest, ByteIdenticalWithCassandraAndMemcached)
{
    // geo talks to the database; the full store bootstrap rides in the
    // checkpoint, which is where restore-many saves the most time.
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(IsaId::Riscv);
    cfg.dbKind = db::DbKind::Cassandra;
    checkRoundTrip(cfg, "geo", "ckpt_rt_db");
}

TEST(CheckpointRestoreTest, EmulationRestoreMatchesAndUsesNs)
{
    TempCheckpointDir ckpts("ckpt_rt_emu");
    const FunctionSpec spec = specFor("fibonacci-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);

    ExperimentRunner fresh(cfg);
    const EmuResult a = fresh.runFunctionEmu(spec, impl);
    ASSERT_TRUE(a.ok);
    ExperimentRunner restored(cfg);
    const EmuResult b = restored.runFunctionEmu(spec, impl);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.coldNs, b.coldNs);
    EXPECT_EQ(a.warmNs, b.warmNs);

    // Unit correctness: at 500 MHz one cycle is 2 ns, and the guest's
    // cycle-level behaviour does not depend on the clock label, so the
    // reported latencies must be exactly double the 1 GHz ones.
    ClusterConfig slow = cfg;
    slow.system.clockMHz = 500;
    ExperimentRunner slowRunner(slow);
    const EmuResult s = slowRunner.runFunctionEmu(spec, impl);
    ASSERT_TRUE(s.ok);
    EXPECT_EQ(s.coldNs, 2 * a.coldNs);
    EXPECT_EQ(s.warmNs, 2 * a.warmNs);
}

TEST(CheckpointRestoreTest, CsvRowByteIdentity)
{
    TempCheckpointDir ckpts("ckpt_rt_csv");
    const FunctionSpec spec = specFor("aes-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);

    const std::string fileA = "ckpt_csv_a.csv";
    const std::string fileB = "ckpt_csv_b.csv";
    std::remove(fileA.c_str());
    std::remove(fileB.c_str());

    {
        ResultCache cache(fileA); // miss path: prepares and publishes
        ASSERT_TRUE(cache.detailed(cfg, spec, impl).ok);
    }
    {
        ResultCache cache(fileB); // restore path: snapshot is warm
        ASSERT_TRUE(cache.detailed(cfg, spec, impl).ok);
    }
    const std::string a = slurp(fileA);
    const std::string b = slurp(fileB);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "restored run wrote a different CSV row";
    std::remove(fileA.c_str());
    std::remove(fileB.c_str());
}

namespace
{

/** Prepare @p spec on @p cl from scratch, as ExperimentRunner does on
 *  a store miss, and return the settle-point checkpoint. */
Checkpoint
prepareSettled(ServerlessCluster &cl, const FunctionSpec &spec,
               ServerlessCluster::Deployment &dep)
{
    cl.boot();
    cl.resetToBaseline();
    dep = cl.deploy(spec, workloads::workloadImpl(spec.workload));
    EXPECT_TRUE(cl.runUntilReady(1));
    cl.system().run(5'000);
    return cl.savePrepared();
}

/** @p b's process table must equal @p a's, entry by entry. */
void
expectSameProcessTable(ServerlessCluster &a, ServerlessCluster &b)
{
    GuestKernel &ka = a.system().kernel();
    GuestKernel &kb = b.system().kernel();
    ASSERT_EQ(ka.numProcesses(), kb.numProcesses());
    for (int pid = 0; pid < int(ka.numProcesses()); ++pid) {
        SCOPED_TRACE("pid " + std::to_string(pid));
        const Process &pa = ka.process(pid);
        const Process &pb = kb.process(pid);
        EXPECT_EQ(pa.name, pb.name);
        EXPECT_EQ(pa.core, pb.core);
        EXPECT_EQ(pa.state, pb.state);
        EXPECT_EQ(pa.space->root(), pb.space->root());
        EXPECT_EQ(pa.saved.pc, pb.saved.pc);
        EXPECT_EQ(pa.saved.regs, pb.saved.regs);
        EXPECT_EQ(pa.saved.ptRoot, pb.saved.ptRoot);
        EXPECT_EQ(pa.saved.processId, pb.saved.processId);
        EXPECT_EQ(pa.saved.halted, pb.saved.halted);
    }
}

class SelfContainedRestoreTest : public ::testing::TestWithParam<IsaId>
{
};

} // namespace

TEST_P(SelfContainedRestoreTest, RestoreRebuildsTheProcessTable)
{
    // A prepared checkpoint restores with no deploy(): the kernel
    // creates every process from it, adopting its page table.
    const ClusterConfig cfg = standaloneConfig(GetParam());
    const FunctionSpec spec = specFor("fibonacci-go");
    ServerlessCluster saving(cfg);
    ServerlessCluster::Deployment dep;
    const Checkpoint cp = prepareSettled(saving, spec, dep);

    ServerlessCluster restored(cfg);
    restored.beginRestore();
    EXPECT_EQ(restored.system().kernel().numProcesses(), 0u);
    restored.finishRestore(cp);
    expectSameProcessTable(saving, restored);
    const ServerlessCluster::Deployment found = restored.deployed(spec);
    EXPECT_EQ(found.serverPid, dep.serverPid);
    EXPECT_EQ(found.clientPid, dep.clientPid);
    const AddressSpace &as =
        *saving.system().kernel().process(dep.clientPid).space;
    const AddressSpace &bs =
        *restored.system().kernel().process(found.clientPid).space;
    for (const Addr va : {layout::codeBase, layout::heapBase})
        EXPECT_EQ(as.translate(va), bs.translate(va)) << va;

    // The restored platform saves back to the same checkpoint file.
    const std::string stem =
        std::string("ckpt_selfcontained_") + isaName(GetParam());
    cp.saveToFile(stem + ".saved");
    restored.savePrepared().saveToFile(stem + ".restored");
    EXPECT_TRUE(slurp(stem + ".saved") == slurp(stem + ".restored"));
    std::remove((stem + ".saved").c_str());
    std::remove((stem + ".restored").c_str());
}

TEST_P(SelfContainedRestoreTest, DeployBetweenTheHalvesMustMatch)
{
    // The sequence a caller may still use: beginRestore(), the same
    // deploy(), finishRestore(). The kernel keeps the deployed
    // processes, which must match the checkpoint.
    const ClusterConfig cfg = standaloneConfig(GetParam());
    const FunctionSpec spec = specFor("fibonacci-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    ServerlessCluster saving(cfg);
    ServerlessCluster::Deployment dep;
    const Checkpoint cp = prepareSettled(saving, spec, dep);

    ServerlessCluster redeployed(cfg);
    redeployed.beginRestore();
    const ServerlessCluster::Deployment again = redeployed.deploy(spec, impl);
    redeployed.finishRestore(cp);
    expectSameProcessTable(saving, redeployed);
    EXPECT_EQ(again.serverPid, dep.serverPid);
    EXPECT_EQ(again.clientPid, dep.clientPid);

    const FunctionSpec other = specFor("aes-go");
    ServerlessCluster wrong(cfg);
    wrong.beginRestore();
    wrong.deploy(other, workloads::workloadImpl(other.workload));
    EXPECT_DEATH(wrong.finishRestore(cp),
                 "checkpoint process name mismatch");
}

TEST_P(SelfContainedRestoreTest, DoctoredProcessCountFailsOnAMissingKey)
{
    // The table grows one checkpointed process at a time, so a huge
    // numProcs ends at the first process the checkpoint lacks.
    const ClusterConfig cfg = standaloneConfig(GetParam());
    ServerlessCluster saving(cfg);
    ServerlessCluster::Deployment dep;
    Checkpoint cp = prepareSettled(saving, specFor("fibonacci-go"), dep);
    cp.setScalar("kernel.numProcs", ~uint64_t(0));
    ServerlessCluster restored(cfg);
    restored.beginRestore();
    EXPECT_DEATH(restored.finishRestore(cp),
                 "checkpoint missing string 'kernel.proc2.name'");
}

INSTANTIATE_TEST_SUITE_P(Isas, SelfContainedRestoreTest,
                         ::testing::Values(IsaId::Riscv, IsaId::Cx86),
                         [](const auto &info) {
                             return info.param == IsaId::Riscv ? "Riscv"
                                                               : "Cx86";
                         });

TEST(CheckpointRestoreTest, LukewarmRestoreMatchesFreshRun)
{
    // aes-go's next request begins while fibonacci-nodejs still warms,
    // so the measured request is the one after it; a restored runner
    // must measure the same request with the same stats.
    TempCheckpointDir ckpts("ckpt_rt_lukewarm");
    const FunctionSpec spec = specFor("aes-go");
    const FunctionSpec other = specFor("fibonacci-nodejs");
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);
    auto run = [&](LukewarmResult &res) {
        ExperimentRunner runner(cfg);
        res = runner.runLukewarm(spec, workloads::workloadImpl(spec.workload),
                                 other,
                                 workloads::workloadImpl(other.workload));
        return runner.cluster().system().stats().snapshotAll();
    };
    LukewarmResult fresh;
    LukewarmResult restored;
    const auto snapFresh = run(fresh);
    const auto snapRestored = run(restored);
    ASSERT_TRUE(fresh.ok);
    ASSERT_TRUE(restored.ok);
    expectSameStats(fresh.warm, restored.warm, "warm");
    expectSameStats(fresh.lukewarm, restored.lukewarm, "lukewarm");
    EXPECT_EQ(snapFresh, snapRestored);
}

TEST(CheckpointRestoreTest, BootAfterARestoreMatchesAFreshBoot)
{
    // A runner whose first experiment restored boots its stores only
    // when a later experiment misses the store. That boot must start
    // from a fresh machine and fresh run-control counters, exactly as
    // on a new runner.
    ClusterConfig cfg = standaloneConfig(IsaId::Riscv);
    cfg.startMemcached = true;
    const FunctionSpec first = specFor("fibonacci-go");
    const FunctionSpec second = specFor("aes-go");
    const WorkloadImpl &firstImpl = workloads::workloadImpl(first.workload);
    const WorkloadImpl &secondImpl =
        workloads::workloadImpl(second.workload);
    const std::string fp = CheckpointStore::fingerprint(cfg, second);
    EmuResult expected;
    std::string expectedFile;
    {
        TempCheckpointDir ckpts("ckpt_rt_boot_fresh");
        ExperimentRunner fresh(cfg);
        expected = fresh.runFunctionEmu(second, secondImpl);
        ASSERT_TRUE(expected.ok);
        expectedFile = slurp(CheckpointStore::global().pathFor(fp));
    }
    TempCheckpointDir ckpts("ckpt_rt_boot_mixed");
    {
        ExperimentRunner prep(cfg);
        ASSERT_TRUE(prep.runFunctionEmu(first, firstImpl).ok);
    }
    ExperimentRunner mixed(cfg);
    ASSERT_TRUE(mixed.runFunctionEmu(first, firstImpl).ok);
    ASSERT_FALSE(mixed.cluster().booted()) << "the first run restored";
    const EmuResult got = mixed.runFunctionEmu(second, secondImpl);
    ASSERT_TRUE(got.ok);
    EXPECT_EQ(got.coldNs, expected.coldNs);
    EXPECT_EQ(got.warmNs, expected.warmNs);
    EXPECT_TRUE(slurp(CheckpointStore::global().pathFor(fp)) == expectedFile)
        << "the second function's snapshot differs from a fresh one";
}

TEST(CheckpointNegativeTest, LoaderRejectsCorruptFiles)
{
    TempCheckpointDir ckpts("ckpt_neg_files");
    std::filesystem::create_directories(ckpts.dir);
    std::string err;

    // Missing file.
    EXPECT_FALSE(Checkpoint::tryLoadFromFile(ckpts.dir + "/missing.ckpt",
                                             &err)
                     .has_value());
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;

    // Bad magic.
    const std::string badMagic = ckpts.dir + "/badmagic.ckpt";
    {
        std::ofstream os(badMagic, std::ios::binary);
        os << "DEADBEEF and then some";
    }
    EXPECT_FALSE(Checkpoint::tryLoadFromFile(badMagic, &err).has_value());
    EXPECT_NE(err.find("bad magic"), std::string::npos) << err;

    // A real checkpoint, truncated mid-entry: the error must name the
    // key being read when the bytes ran out.
    Checkpoint cp;
    cp.setScalar("alpha", 1);
    cp.setScalar("bravo.long.key.name", 2);
    cp.setString("charlie", "value");
    cp.setBlob("delta", std::vector<uint8_t>(64, 0xab));
    const std::string whole = ckpts.dir + "/whole.ckpt";
    cp.saveToFile(whole);
    const std::string full = slurp(whole);
    ASSERT_GT(full.size(), 40u);

    const std::string truncated = ckpts.dir + "/truncated.ckpt";
    {
        std::ofstream os(truncated, std::ios::binary);
        os.write(full.data(), std::streamsize(full.size() / 2));
    }
    EXPECT_FALSE(Checkpoint::tryLoadFromFile(truncated, &err).has_value());
    EXPECT_NE(err.find("while reading"), std::string::npos) << err;

    // An oversized length field must not allocate or crash.
    const std::string badLen = ckpts.dir + "/badlen.ckpt";
    {
        std::string bytes = full;
        // First scalar key length lives right after the 8-byte magic
        // and the 8-byte scalar count; stamp it with a huge value.
        for (size_t i = 16; i < 24; ++i)
            bytes[i] = char(0xff);
        std::ofstream os(badLen, std::ios::binary);
        os.write(bytes.data(), std::streamsize(bytes.size()));
    }
    EXPECT_FALSE(Checkpoint::tryLoadFromFile(badLen, &err).has_value());
    EXPECT_NE(err.find("exceeds"), std::string::npos) << err;

    // Trailing garbage is corruption, not slack.
    const std::string trailing = ckpts.dir + "/trailing.ckpt";
    {
        std::ofstream os(trailing, std::ios::binary);
        os.write(full.data(), std::streamsize(full.size()));
        os << "extra";
    }
    EXPECT_FALSE(Checkpoint::tryLoadFromFile(trailing, &err).has_value());
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;

    // The intact file still loads, and loads what was saved.
    std::optional<Checkpoint> back = Checkpoint::tryLoadFromFile(whole);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->getScalar("alpha"), 1u);
    EXPECT_EQ(back->getString("charlie"), "value");
    EXPECT_EQ(back->getBlob("delta").size(), 64u);
}

TEST(CheckpointNegativeTest, StoreTreatsCorruptFileAsMiss)
{
    TempCheckpointDir ckpts("ckpt_neg_store");
    std::filesystem::create_directories(ckpts.dir);
    CheckpointStore &store = CheckpointStore::global();
    const FunctionSpec spec = specFor("fibonacci-go");
    const std::string fp =
        CheckpointStore::fingerprint(standaloneConfig(IsaId::Riscv), spec);

    // Corrupt bytes where the checkpoint should be: acquire must hand
    // the caller the claim instead of crashing or returning garbage.
    {
        std::ofstream os(store.pathFor(fp), std::ios::binary);
        os << "this is not a checkpoint";
    }
    bool claimed = false;
    EXPECT_EQ(store.acquire(fp, &claimed), nullptr);
    EXPECT_TRUE(claimed);
    store.release(fp);

    // A valid checkpoint file carrying a DIFFERENT fingerprint (hash
    // collision / stale file) must also be a miss.
    Checkpoint other;
    other.setString("meta.fingerprint", "some other configuration");
    other.setScalar("x", 1);
    other.saveToFile(store.pathFor(fp));
    claimed = false;
    EXPECT_EQ(store.acquire(fp, &claimed), nullptr);
    EXPECT_TRUE(claimed);
    store.release(fp);
}

TEST(CheckpointNegativeTest, RepublishAfterACorruptFileRestoresFromDisk)
{
    // The caller that holds the claim for a discarded disk restore
    // re-prepares and publishes. The new file replaces the bad one, so
    // the next process restores the published state from disk.
    TempCheckpointDir ckpts("ckpt_neg_republish");
    std::filesystem::create_directories(ckpts.dir);
    CheckpointStore &store = CheckpointStore::global();
    const std::string fp = "republish-test-fingerprint";
    {
        std::ofstream os(store.pathFor(fp), std::ios::binary);
        os << "this is not a checkpoint";
    }
    bool claimed = false;
    EXPECT_EQ(store.acquire(fp, &claimed), nullptr);
    ASSERT_TRUE(claimed);
    Checkpoint cp;
    cp.setScalar("state.value", 42);
    store.publish(fp, std::move(cp));

    // Later callers in this process share the published copy.
    claimed = false;
    const auto shared = store.acquire(fp, &claimed);
    ASSERT_NE(shared, nullptr);
    EXPECT_FALSE(claimed);
    EXPECT_EQ(shared->getScalar("state.value"), 42u);

    // Drop the in-memory copy but keep the file, as a new process
    // would see the store: the disk restore now succeeds.
    store.resetForTest(ckpts.dir);
    claimed = false;
    const auto back = store.acquire(fp, &claimed);
    ASSERT_NE(back, nullptr);
    EXPECT_FALSE(claimed);
    EXPECT_EQ(back->getScalar("state.value"), 42u);
    EXPECT_EQ(back->getString("meta.fingerprint"), fp);
}

TEST(CheckpointNegativeTest, DoctoredMemoryImageIsAMiss)
{
    // A checkpoint whose memory image carries hostile page counts or
    // offsets must be refused at acquire() time — warn and miss, never
    // an OOB index in the restore path.
    TempCheckpointDir ckpts("ckpt_neg_doctored");
    std::filesystem::create_directories(ckpts.dir);
    CheckpointStore &store = CheckpointStore::global();
    const std::string fp = "doctored-image-test";
    const std::string path = store.pathFor(fp);

    // A genuine page-granular image, published the way the store
    // writes them.
    PhysMemory mem(8 * snapshotPageBytes);
    mem.write64(0, 0x1234);
    mem.write64(5 * snapshotPageBytes, 0x5678);
    Checkpoint cp;
    mem.serializeState("mem.", cp);
    cp.setString("meta.fingerprint", fp);
    cp.saveToFile(path);

    bool claimed = false;
    ASSERT_NE(store.acquire(fp, &claimed), nullptr)
        << "the intact checkpoint must load";

    // Doctor the on-disk page count far beyond the recorded memory
    // and drop the in-memory cache so acquire() re-reads the file.
    Checkpoint evil = Checkpoint::loadFromFile(path);
    evil.setScalar("mem.pages", uint64_t(1) << 20);
    evil.saveToFile(path);
    CheckpointStore::global().resetForTest(ckpts.dir);

    claimed = false;
    EXPECT_EQ(store.acquire(fp, &claimed), nullptr)
        << "a doctored memory image was served";
    EXPECT_TRUE(claimed);
    store.release(fp);

    // Same for a table that indexes outside the unique-page pool.
    Checkpoint evil2 = Checkpoint::loadFromFile(path);
    std::vector<uint8_t> table = evil2.getBlob("mem.table");
    ASSERT_GE(table.size(), 16u);
    table[8] = 0xff; // first mapping's unique-page id
    evil2.setBlob("mem.table", std::move(table));
    evil2.setScalar("mem.pages", 2); // restore a sane page count
    evil2.saveToFile(path);
    CheckpointStore::global().resetForTest(ckpts.dir);

    claimed = false;
    EXPECT_EQ(store.acquire(fp, &claimed), nullptr);
    EXPECT_TRUE(claimed);
    store.release(fp);

    // A well-formed image in the retired flat v1 encoding (repeated
    // page index + raw page bytes, no format scalar) is a miss too:
    // the caller claims the fingerprint and prepares again.
    Checkpoint v1;
    v1.setScalar("mem.size", 8 * snapshotPageBytes);
    v1.setScalar("mem.pageBytes", snapshotPageBytes);
    v1.setScalar("mem.pages", 2);
    BlobWriter records;
    for (const uint64_t page : {0u, 5u}) {
        records.putU64(page);
        for (size_t b = 0; b < snapshotPageBytes; ++b)
            records.putU8(uint8_t(page + b));
    }
    v1.setBlob("mem.data", records.take());
    v1.setString("meta.fingerprint", fp);
    v1.saveToFile(path);
    CheckpointStore::global().resetForTest(ckpts.dir);

    claimed = false;
    EXPECT_EQ(store.acquire(fp, &claimed), nullptr)
        << "a v1 memory image was served";
    EXPECT_TRUE(claimed);
    store.release(fp);
}

TEST(CheckpointNegativeTest, DecodeAddressesPastMemoryAreIgnored)
{
    // Checkpoints carry no decoded code, so a snapshot that names
    // decode addresses (here one past the end of guest memory) must
    // be served and restore exactly like the clean one, never decode
    // from them.
    TempCheckpointDir ckpts("ckpt_neg_decode");
    CheckpointStore &store = CheckpointStore::global();
    const FunctionSpec spec = specFor("fibonacci-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);
    {
        ExperimentRunner prep(cfg);
        ASSERT_TRUE(prep.runFunctionEmu(spec, impl).ok);
    }
    ExperimentRunner clean(cfg);
    const EmuResult a = clean.runFunctionEmu(spec, impl);
    ASSERT_TRUE(a.ok);

    const std::string path =
        store.pathFor(CheckpointStore::fingerprint(cfg, spec));
    Checkpoint cp = Checkpoint::loadFromFile(path);
    BlobWriter addrs;
    addrs.putU64(0x10000);
    addrs.putU64(cfg.system.memBytes + 0x1000);
    cp.setBlob("decode.paddrs", addrs.take());
    cp.saveToFile(path);
    store.resetForTest(ckpts.dir);

    ExperimentRunner doctored(cfg);
    const EmuResult b = doctored.runFunctionEmu(spec, impl);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.coldNs, b.coldNs);
    EXPECT_EQ(a.warmNs, b.warmNs);
    EXPECT_EQ(clean.cluster().system().stats().snapshotAll(),
              doctored.cluster().system().stats().snapshotAll());
    // Served, not re-prepared: a miss would have republished the file.
    EXPECT_TRUE(Checkpoint::loadFromFile(path).hasBlob("decode.paddrs"));
}

namespace
{

/** Overwrite the little-endian u64 at @p off of @p blob. */
void
putLe(std::vector<uint8_t> &blob, size_t off, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        blob[off + size_t(i)] = uint8_t(v >> (8 * i));
}

/** Apply @p edit to a copy of blob @p key of @p cp and store it back. */
template <class Edit>
void
editBlob(Checkpoint &cp, const std::string &key, Edit &&edit)
{
    std::vector<uint8_t> blob = cp.getBlob(key);
    edit(blob);
    cp.setBlob(key, std::move(blob));
}

} // namespace

TEST(CheckpointNegativeTest, MutatedMemoryImageIsAMissOrRestores)
{
    // Seeded mutations of the memory image of a real published
    // checkpoint. Restores install frames by page index, so each case
    // must end in warn-and-miss at acquire(), or in a full and a REAP
    // restore that both complete; never in a crash.
    TempCheckpointDir ckpts("ckpt_neg_mutated");
    std::filesystem::create_directories(ckpts.dir);
    CheckpointStore &store = CheckpointStore::global();
    const FunctionSpec spec = specFor("fibonacci-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);
    {
        ExperimentRunner prep(cfg);
        ASSERT_TRUE(prep.runFunctionEmu(spec, impl).ok);
    }
    const std::string fp = CheckpointStore::fingerprint(cfg, spec);
    const std::string path = store.pathFor(fp);
    const Checkpoint original = Checkpoint::loadFromFile(path);
    ASSERT_TRUE(original.hasBlob("mem.ws"));
    const uint64_t nFrames = cfg.system.memBytes / snapshotPageBytes;
    const size_t tableBytes = original.getBlob("mem.table").size();
    const size_t wsBytes = original.getBlob("mem.ws").size();
    ASSERT_GE(tableBytes, 32u);
    ASSERT_GE(wsBytes, 16u);

    std::vector<std::pair<std::string, std::function<void(Checkpoint &)>>>
        cases;
    std::mt19937_64 rng(0x5eed);
    for (const auto &[key, bytes, n] :
         {std::tuple{"mem.table", tableBytes, 24},
          std::tuple{"mem.ws", wsBytes, 12}}) {
        for (int i = 0; i < n; ++i) {
            const size_t at = rng() % bytes;
            const uint8_t bit = uint8_t(1u << (rng() % 8));
            cases.emplace_back(
                std::string(key) + " flip @" + std::to_string(at),
                [key, at, bit](Checkpoint &cp) {
                    editBlob(cp, key, [&](auto &b) { b[at] ^= bit; });
                });
        }
    }
    for (const char *key : {"mem.size", "mem.pages", "mem.uniquePages",
                            "mem.pageBytes"}) {
        const uint64_t v = original.getScalar(key);
        for (const uint64_t to : {v + 1, v - 1, uint64_t(0), ~uint64_t(0)})
            cases.emplace_back(std::string(key) + "=" + std::to_string(to),
                               [key, to](Checkpoint &cp) {
                                   cp.setScalar(key, to);
                               });
    }
    for (const uint64_t page : {nFrames, nFrames + 1, ~uint64_t(0)}) {
        cases.emplace_back("last table page=" + std::to_string(page),
                           [page](Checkpoint &cp) {
                               editBlob(cp, "mem.table", [&](auto &b) {
                                   putLe(b, b.size() - 16, page);
                               });
                           });
        cases.emplace_back("last ws page=" + std::to_string(page),
                           [page](Checkpoint &cp) {
                               editBlob(cp, "mem.ws", [&](auto &b) {
                                   putLe(b, b.size() - 8, page);
                               });
                           });
    }
    cases.emplace_back("swapped table entries", [](Checkpoint &cp) {
        editBlob(cp, "mem.table", [](auto &b) {
            std::swap_ranges(b.begin(), b.begin() + 16, b.begin() + 16);
        });
    });
    cases.emplace_back("duplicated table entry", [](Checkpoint &cp) {
        editBlob(cp, "mem.table", [](auto &b) {
            std::copy(b.begin(), b.begin() + 16, b.begin() + 16);
        });
    });
    cases.emplace_back("swapped unique-page ids", [](Checkpoint &cp) {
        editBlob(cp, "mem.table", [](auto &b) {
            std::swap_ranges(b.begin() + 8, b.begin() + 16, b.begin() + 24);
        });
    });
    for (const auto &[key, cut] :
         {std::pair{"mem.table", 1}, std::pair{"mem.table", 8},
          std::pair{"mem.table", 16}, std::pair{"mem.pagedata", 1},
          std::pair{"mem.pagedata", int(snapshotPageBytes)},
          std::pair{"mem.ws", 1}, std::pair{"mem.ws", 8}}) {
        cases.emplace_back(std::string(key) + " cut by " +
                               std::to_string(cut),
                           [key, cut](Checkpoint &cp) {
                               editBlob(cp, key, [&](auto &b) {
                                   b.resize(b.size() - size_t(cut));
                               });
                           });
    }

    ServerlessCluster cl(cfg);
    unsigned misses = 0;
    unsigned restores = 0;
    for (const auto &[name, mutate] : cases) {
        SCOPED_TRACE(name);
        Checkpoint cp = original;
        mutate(cp);
        cp.saveToFile(path);
        store.resetForTest(ckpts.dir);

        bool claimed = false;
        testing::internal::CaptureStderr();
        const std::shared_ptr<const Checkpoint> got =
            store.acquire(fp, &claimed);
        const std::string warned = testing::internal::GetCapturedStderr();
        if (got == nullptr) {
            EXPECT_TRUE(claimed);
            EXPECT_NE(warned.find("warn: ignoring corrupt checkpoint"),
                      std::string::npos)
                << warned;
            store.release(fp);
            ++misses;
            continue;
        }
        EXPECT_FALSE(claimed);
        for (const bool reap : {false, true}) {
            cl.beginRestore();
            std::shared_ptr<const PageImage> img;
            if (reap)
                img = store.imageFor(fp, *got);
            cl.finishRestore(*got, img);
            const PhysMemory &phys = cl.system().phys();
            EXPECT_EQ(phys.lazyRestores() + phys.fullRestores(), 1u);
        }
        ++restores;
    }
    // Both endings occur, so neither branch is vacuous.
    EXPECT_GT(misses, 0u);
    EXPECT_GT(restores, 0u);
}

TEST(CheckpointAtomicityTest, ConcurrentWritersNeverTearTheFile)
{
    // Several threads repeatedly save DIFFERENT checkpoints to the
    // same path while a reader polls it: every successful load must be
    // exactly one writer's complete content. With a fixed temporary
    // sibling name (the pre-fix behaviour) concurrent writers
    // interleave their bytes in the shared temp file and a mixed or
    // torn checkpoint can be renamed into place.
    TempCheckpointDir ckpts("ckpt_atomic_stress");
    std::filesystem::create_directories(ckpts.dir);
    const std::string path = ckpts.dir + "/contended.ckpt";
    constexpr unsigned kWriters = 4;
    constexpr unsigned kRounds = 40;

    std::vector<Checkpoint> contents(kWriters);
    for (unsigned w = 0; w < kWriters; ++w) {
        contents[w].setScalar("writer", w);
        contents[w].setBlob(
            "payload", std::vector<uint8_t>(64 * 1024, uint8_t(w + 1)));
    }

    std::atomic<bool> done{false};
    std::atomic<unsigned> torn{0};
    std::atomic<unsigned> loads{0};
    std::thread reader([&] {
        while (!done.load()) {
            std::optional<Checkpoint> cp = Checkpoint::tryLoadFromFile(path);
            if (!cp.has_value())
                continue; // not yet written; never torn (see below)
            ++loads;
            const uint64_t w = cp->getScalar("writer");
            const std::vector<uint8_t> &payload = cp->getBlob("payload");
            bool consistent = w < kWriters &&
                              payload.size() == 64 * 1024;
            for (size_t i = 0; consistent && i < payload.size(); ++i)
                consistent = payload[i] == uint8_t(w + 1);
            if (!consistent)
                ++torn;
        }
    });

    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (unsigned r = 0; r < kRounds; ++r)
                contents[w].saveToFile(path);
        });
    }
    for (std::thread &t : writers)
        t.join();
    done = true;
    reader.join();

    EXPECT_EQ(torn.load(), 0u)
        << "a reader observed a torn/mixed checkpoint";
    EXPECT_GT(loads.load(), 0u) << "the reader never saw the file";

    // The final file is intact and is one writer's exact content.
    std::optional<Checkpoint> last = Checkpoint::tryLoadFromFile(path);
    ASSERT_TRUE(last.has_value());
    EXPECT_LT(last->getScalar("writer"), kWriters);

    // No temporary siblings left behind.
    unsigned files = 0;
    for (const auto &e : std::filesystem::directory_iterator(ckpts.dir))
        files += e.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 1u) << "stray temp files left beside the checkpoint";
}

TEST(ResultCacheRobustnessTest, TruncatedCsvLosesOnlyAffectedRows)
{
    TempCheckpointDir ckpts("ckpt_csv_robust");
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);
    const FunctionSpec good = specFor("fibonacci-go");
    const FunctionSpec bad = specFor("aes-go");

    const std::string file = "ckpt_csv_truncated.csv";
    std::remove(file.c_str());

    // Build one genuine row to copy the exact on-disk shape from.
    {
        ResultCache cache(file);
        ASSERT_TRUE(
            cache.detailed(cfg, good, workloads::workloadImpl(good.workload))
                .ok);
    }
    std::string contents = slurp(file);
    ASSERT_FALSE(contents.empty());

    // Forge a second row for 'bad' and truncate it inside the warm
    // block — everything through "ok=1" survives, so the pre-fix
    // loader would have accepted it as a complete result.
    std::string forged = contents;
    const std::string goodName = "," + good.name + ",";
    const size_t at = forged.find(goodName);
    ASSERT_NE(at, std::string::npos);
    forged.replace(at, goodName.size(), "," + bad.name + ",");
    const size_t warmAt = forged.find("|warm.insts=");
    ASSERT_NE(warmAt, std::string::npos);
    forged.resize(warmAt + 7); // cut mid-field-name
    {
        std::ofstream os(file, std::ios::binary | std::ios::app);
        os << "not-a-row-at-all\n";  // junk line
        os << forged;                // truncated row, no newline
    }

    ResultCache reloaded(file);
    ResultCache::Row out;
    EXPECT_TRUE(reloaded.lookupRow(
        reloaded.rowKey(cfg, good, RunMode::Detailed), out))
        << "intact row was lost";
    EXPECT_EQ(out.at("ok"), 1u);
    EXPECT_FALSE(reloaded.lookupRow(
        reloaded.rowKey(cfg, bad, RunMode::Detailed), out))
        << "truncated row was served as a complete result";
    std::remove(file.c_str());
}
