/**
 * @file
 * System-level tests: run-loop semantics, magic-operation plumbing,
 * idle detection, multi-core independence, and configuration.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/system.hh"
#include "gen/guestlib.hh"
#include "gen/ir.hh"
#include "guest/loader.hh"
#include "guest/syscall_abi.hh"

using namespace svb;

namespace
{

/** A program that stores a value then exits. */
gen::Program
storeAndExit(Addr &result, uint64_t value)
{
    gen::ProgramBuilder pb;
    result = pb.addZeroData(8);
    auto f = pb.beginFunction("main", 0);
    const int v = f.imm(int64_t(value)), out = f.newVreg();
    f.lea(out, result);
    f.store(out, 0, v, 8);
    f.ret();
    pb.setEntry("main");
    return pb.take();
}

} // namespace

TEST(SystemRun, StopsWhenAllCoresHalt)
{
    SystemConfig cfg = SystemConfig::paperConfig(IsaId::Riscv);
    cfg.numCores = 1;
    System sys(cfg);
    Addr result = 0;
    loadProcess(sys.kernel(),
                gen::compileProgram(storeAndExit(result, 7), IsaId::Riscv),
                "p", 0);
    sys.scheduleIdleCores();
    const uint64_t ran = sys.run(1'000'000);
    EXPECT_LT(ran, 10'000u); // tiny program: early exit, not budget
    EXPECT_TRUE(sys.cpu(0).halted());
}

TEST(SystemRun, GuestExitSimStopsTheLoop)
{
    SystemConfig cfg = SystemConfig::paperConfig(IsaId::Riscv);
    cfg.numCores = 1;
    System sys(cfg);

    gen::ProgramBuilder pb;
    auto f = pb.beginFunction("main", 0);
    const int op = f.imm(int64_t(sys::m5ExitSim));
    const int arg = f.imm(0);
    f.syscall(sys::sysM5, {op, arg});
    // Infinite loop after the exit request: must not matter.
    const int spin = f.newLabel();
    f.label(spin);
    f.br(spin);
    pb.setEntry("main");

    loadProcess(sys.kernel(), gen::compileProgram(pb.take(), IsaId::Riscv),
                "p", 0);
    sys.scheduleIdleCores();
    const uint64_t ran = sys.run(1'000'000);
    EXPECT_LT(ran, 10'000u);
    EXPECT_FALSE(sys.cpu(0).halted()); // stopped, not finished
}

TEST(SystemRun, UnassignedM5OpsNeitherStopNorResetStats)
{
    // A bare System acts on m5ResetStats and m5ExitSim alone. Any other
    // op, 4 (unassigned) and out-of-range numbers included, passes
    // through: the program runs on to its exit and the counts of the
    // work before the ops survive.
    SystemConfig cfg = SystemConfig::paperConfig(IsaId::Riscv);
    cfg.numCores = 1;
    System sys(cfg);

    gen::ProgramBuilder pb;
    const gen::GuestLib lib = gen::GuestLib::addTo(pb);
    const Addr result = pb.addZeroData(8);
    auto f = pb.beginFunction("main", 0);
    const int iters = f.imm(2'000);
    f.callVoid(lib.burnAlu, {iters});
    for (const int64_t op : {int64_t(0), int64_t(4), int64_t(7),
                             int64_t(1) << 40}) {
        const int code = f.imm(op), arg = f.imm(0);
        f.syscall(sys::sysM5, {code, arg});
    }
    const int v = f.imm(42), out = f.newVreg();
    f.lea(out, result);
    f.store(out, 0, v, 8);
    f.ret();
    pb.setEntry("main");

    const int pid =
        loadProcess(sys.kernel(),
                    gen::compileProgram(pb.take(), IsaId::Riscv), "p", 0)
            .pid;
    sys.scheduleIdleCores();
    sys.run(10'000'000);
    EXPECT_TRUE(sys.cpu(0).halted()); // ran to its exit, not stopped
    EXPECT_EQ(sys.kernel().process(pid).space->read(result, 8), 42u);
    EXPECT_GT(sys.stats().snapshotAll().at("system.cpu0.atomic.numInsts"),
              2'000.0);
}

TEST(SystemRun, RunOneAdvancesExactlyOneCycle)
{
    // Callers that test a condition between cycles loop on run(1). On
    // a busy core (the other one halted, so the chained rule applies)
    // each call must advance exactly one cycle and leave the machine
    // where one long run() would, on either emulation tier.
    for (const bool fast : {true, false}) {
        SystemConfig cfg = SystemConfig::paperConfig(IsaId::Riscv);
        cfg.fastWarm = fast;
        std::unique_ptr<System> systems[2];
        for (auto &sys : systems) {
            sys = std::make_unique<System>(cfg);
            gen::ProgramBuilder pb;
            const gen::GuestLib lib = gen::GuestLib::addTo(pb);
            auto f = pb.beginFunction("main", 0);
            const int iters = f.imm(1 << 20);
            f.callVoid(lib.burnAlu, {iters});
            f.ret();
            pb.setEntry("main");
            loadProcess(sys->kernel(),
                        gen::compileProgram(pb.take(), IsaId::Riscv), "p",
                        0);
            sys->scheduleIdleCores();
        }
        System &stepped = *systems[0];
        for (uint64_t c = 1; c <= 5'000; ++c) {
            ASSERT_EQ(stepped.run(1), 1u) << "fast=" << fast;
            ASSERT_EQ(stepped.cycle(), c) << "fast=" << fast;
        }
        EXPECT_FALSE(stepped.cpu(0).halted());
        EXPECT_TRUE(stepped.cpu(1).halted());
        System &whole = *systems[1];
        EXPECT_EQ(whole.run(5'000), 5'000u);
        EXPECT_EQ(stepped.cpu(0).getContext().pc,
                  whole.cpu(0).getContext().pc);
        EXPECT_EQ(stepped.stats().snapshotAll(), whole.stats().snapshotAll())
            << "fast=" << fast;
    }
}

TEST(SystemRun, FourCoresRunIndependentPrograms)
{
    SystemConfig cfg = SystemConfig::paperConfig(IsaId::Riscv);
    cfg.numCores = 4;
    System sys(cfg);

    Addr results[4];
    int pids[4];
    for (int c = 0; c < 4; ++c) {
        gen::Program prog = storeAndExit(results[c], 100 + uint64_t(c));
        pids[c] = loadProcess(sys.kernel(),
                              gen::compileProgram(prog, IsaId::Riscv),
                              "p" + std::to_string(c), c)
                      .pid;
    }
    sys.scheduleIdleCores();
    sys.run(1'000'000);
    for (int c = 0; c < 4; ++c) {
        EXPECT_TRUE(sys.cpu(unsigned(c)).halted());
        EXPECT_EQ(sys.kernel().process(pids[c]).space->read(results[c], 8),
                  100u + uint64_t(c));
    }
}

TEST(SystemRun, MixedCpuModelsAcrossCores)
{
    SystemConfig cfg = SystemConfig::paperConfig(IsaId::Riscv);
    cfg.numCores = 2;
    System sys(cfg);

    Addr r0 = 0, r1 = 0;
    gen::Program p0 = storeAndExit(r0, 11);
    gen::Program p1 = storeAndExit(r1, 22);
    const int pid0 =
        loadProcess(sys.kernel(), gen::compileProgram(p0, IsaId::Riscv),
                    "a", 0)
            .pid;
    const int pid1 =
        loadProcess(sys.kernel(), gen::compileProgram(p1, IsaId::Riscv),
                    "b", 1)
            .pid;
    sys.scheduleIdleCores();
    sys.switchCpu(0, CpuModel::Atomic);
    sys.switchCpu(1, CpuModel::O3);
    sys.run(1'000'000);
    EXPECT_EQ(sys.kernel().process(pid0).space->read(r0, 8), 11u);
    EXPECT_EQ(sys.kernel().process(pid1).space->read(r1, 8), 22u);
}

TEST(SystemConfigTest, PaperConfigMirrorsTable41)
{
    const SystemConfig cfg = SystemConfig::paperConfig(IsaId::Riscv);
    EXPECT_EQ(cfg.numCores, 2u);
    EXPECT_EQ(cfg.clockMHz, 1000u);
    EXPECT_EQ(cfg.caches.l1i.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.caches.l1i.assoc, 8u);
    EXPECT_EQ(cfg.caches.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.caches.l2.sizeBytes, 512u * 1024);
    EXPECT_EQ(cfg.caches.l2.assoc, 4u);
    EXPECT_EQ(cfg.o3.robEntries, 192u);
    EXPECT_EQ(cfg.o3.lqEntries, 32u);
    EXPECT_EQ(cfg.o3.sqEntries, 32u);
    EXPECT_EQ(cfg.o3.numPhysIntRegs, 256u);
    // Table 4.2 / 4.3 provenance strings.
    EXPECT_NE(cfg.osLabel.find("Jammy"), std::string::npos);
    const SystemConfig x86 = SystemConfig::paperConfig(IsaId::Cx86);
    EXPECT_NE(x86.compilerLabel.find("gcc"), std::string::npos);
}

TEST(SystemRun, DecodedCodeMismatchesSeesACodeWrite)
{
    // The immutable-code check is not vacuous: a write over cached code
    // shows up, in the oracle's decode cache and in the fast tier's
    // superblocks alike.
    for (const bool fast : {false, true}) {
        SystemConfig cfg = SystemConfig::paperConfig(IsaId::Riscv);
        cfg.numCores = 1;
        cfg.fastWarm = fast;
        System sys(cfg);
        Addr result = 0;
        const LoadedProgram prog = loadProcess(
            sys.kernel(),
            gen::compileProgram(storeAndExit(result, 7), IsaId::Riscv), "p",
            0);
        sys.scheduleIdleCores();
        sys.run(1'000'000);
        ASSERT_TRUE(sys.cpu(0).halted());
        EXPECT_EQ(sys.decodedCodeMismatches(), 0u) << "fast " << fast;
        const Addr entry =
            sys.kernel().process(prog.pid).space->translate(prog.entry);
        sys.phys().write(entry, ~sys.phys().read32(entry), 4);
        EXPECT_GE(sys.decodedCodeMismatches(), 1u) << "fast " << fast;
    }
}

TEST(SystemCheckpointDeathTest, RestoreIntoASystemThatHasRunPanics)
{
    // Checkpoints carry no decoded code, so restore needs a freshly
    // built System: cycle 0, empty decode and superblock caches.
    SystemConfig cfg = SystemConfig::paperConfig(IsaId::Riscv);
    cfg.numCores = 1;
    System sys(cfg);
    const Checkpoint cp = sys.saveCheckpoint();
    Addr result = 0;
    loadProcess(sys.kernel(),
                gen::compileProgram(storeAndExit(result, 7), IsaId::Riscv),
                "p", 0);
    sys.scheduleIdleCores();
    sys.run(1'000'000);
    ASSERT_TRUE(sys.cpu(0).halted());
    EXPECT_DEATH(sys.restoreCheckpoint(cp),
                 "restoreCheckpoint needs a freshly built system");
}
