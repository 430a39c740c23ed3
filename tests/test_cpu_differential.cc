/**
 * @file
 * Differential CPU testing: randomly generated structured IR programs
 * must produce identical architectural results on the Atomic model
 * and the detailed out-of-order model, on both ISAs. This is the
 * strongest correctness check of the O3 pipeline (renaming, LSQ
 * forwarding, squash/recovery) against the simple reference model.
 *
 * The same harness also pins down the Atomic CPU's superblock fast
 * path (cpu/superblock.hh) and the run loop's chained batches against
 * the per-instruction, per-cycle oracle: a fast-tier system and a
 * slow-tier system execute the same programs (on one core, or one per
 * core on two) in cycle lockstep, and every architectural context plus
 * the entire guest-visible stats tree must match at every chunk
 * boundary — not just at the end. A checkpoint taken mid-run must
 * likewise restore and resume through the fast tier byte-identically
 * to the uninterrupted machine, and a whole Emu-mode experiment must
 * measure the same on both tiers.
 *
 * Architectural agreement does not catch a timing drift, so O3 timing
 * is pinned too: the whole stats tree after random programs run on
 * O3 must hash to recorded digests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint_store.hh"
#include "core/experiment.hh"
#include "core/system.hh"
#include "gen/guestlib.hh"
#include "gen/ir.hh"
#include "guest/loader.hh"
#include "guest/syscall_abi.hh"
#include "sim/rng.hh"
#include "workloads/workloads.hh"

using namespace svb;

namespace
{

/** Traps added at the top of every loop iteration of randomProgram(). */
enum class LoopTrap
{
    None,
    Yield,
    /** A yield, then an m5 stat reset: a trap handler that observes
     *  (and zeroes) every core's statistics mid-cycle. */
    YieldAndResetStats,
    /** A yield, then an m5 exit: a stop request in every iteration,
     *  which ends System::run() at the end of the trapping cycle. */
    YieldAndExit,
};

/**
 * Generate a random but well-formed program: straight-line arithmetic,
 * bounded loops, loads/stores into a scratch array, calls into a
 * helper, and data-dependent branches. Writes a final FNV digest of
 * its scratch state to a result cell. @p loop_trap draws no random
 * numbers, so the rest of the program does not depend on it.
 */
gen::Program
randomProgram(uint64_t seed, Addr &result_addr,
              LoopTrap loop_trap = LoopTrap::None)
{
    Rng rng(seed);
    gen::ProgramBuilder pb;
    result_addr = pb.addZeroData(8);
    const Addr scratch = pb.addZeroData(512);
    const gen::GuestLib lib = gen::GuestLib::addTo(pb);

    // A helper the main function calls (exercises the call path).
    {
        auto f = pb.beginFunction("helper", 2);
        const int a = f.arg(0), b = f.arg(1);
        const int r = f.newVreg();
        f.bin(gen::BinOp::Mul, r, a, b);
        f.bini(gen::BinOp::Xor, r, r, int64_t(rng.nextBounded(1 << 20)));
        f.ret(r);
    }
    const int helper = pb.functionIndex("helper");

    auto f = pb.beginFunction("main", 0);
    const int base = f.newVreg();
    f.lea(base, scratch);

    // Registers to juggle — more than the CX86 pool, to force spills.
    std::vector<int> regs;
    for (int i = 0; i < 12; ++i) {
        const int v = f.newVreg();
        f.movi(v, int64_t(rng.nextBounded(1000)) + 1);
        regs.push_back(v);
    }
    auto pick = [&] { return regs[rng.nextBounded(regs.size())]; };

    // A bounded loop with a random body.
    const int i = f.newVreg();
    const int loop = f.newLabel(), done = f.newLabel();
    f.movi(i, 0);
    f.label(loop);
    if (loop_trap != LoopTrap::None)
        f.syscall(sys::sysYield, {});
    if (loop_trap == LoopTrap::YieldAndResetStats ||
        loop_trap == LoopTrap::YieldAndExit) {
        const int op = f.imm(int64_t(loop_trap == LoopTrap::YieldAndExit
                                         ? sys::m5ExitSim
                                         : sys::m5ResetStats));
        const int arg = f.imm(0);
        f.syscall(sys::sysM5, {op, arg});
    }
    f.brcondi(gen::CondOp::Ge, i, int64_t(8 + rng.nextBounded(24)), done);

    const int body_ops = 6 + int(rng.nextBounded(14));
    for (int op = 0; op < body_ops; ++op) {
        switch (rng.nextBounded(8)) {
          case 0:
            f.bin(gen::BinOp::Add, pick(), pick(), pick());
            break;
          case 1:
            f.bin(gen::BinOp::Mul, pick(), pick(), pick());
            break;
          case 2:
            f.bini(gen::BinOp::Xor, pick(), pick(),
                   int64_t(rng.nextBounded(1 << 16)));
            break;
          case 3: { // store to a random slot
            const int addr = f.newVreg();
            f.bini(gen::BinOp::And, addr, pick(), 63);
            f.bini(gen::BinOp::Shl, addr, addr, 3);
            f.bin(gen::BinOp::Add, addr, base, addr);
            f.store(addr, 0, pick(), 8);
            break;
          }
          case 4: { // load from a random slot (forwarding chances)
            const int addr = f.newVreg();
            f.bini(gen::BinOp::And, addr, pick(), 63);
            f.bini(gen::BinOp::Shl, addr, addr, 3);
            f.bin(gen::BinOp::Add, addr, base, addr);
            f.load(pick(), addr, 0, 8, false);
            break;
          }
          case 5: { // data-dependent branch
            const int skip = f.newLabel();
            f.brcondi(gen::CondOp::Lt, pick(),
                      int64_t(rng.nextBounded(1 << 12)), skip);
            f.bini(gen::BinOp::Add, pick(), pick(), 17);
            f.label(skip);
            break;
          }
          case 6: { // call
            const int r = f.call(helper, {pick(), pick()});
            f.mov(pick(), r);
            break;
          }
          default: // a trap mid-flight (pipeline drain + kernel)
            f.syscall(sys::sysYield, {});
            break;
        }
    }
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);

    // Digest: hash the scratch region plus the register values.
    const int len = f.imm(512);
    const int h = f.call(lib.fnvHash, {base, len});
    for (int v : regs)
        f.bin(gen::BinOp::Xor, h, h, v);
    const int out = f.newVreg();
    f.lea(out, result_addr);
    f.store(out, 0, h, 8);
    f.ret();
    pb.setEntry("main");
    return pb.take();
}

uint64_t
runOn(const gen::Program &prog, IsaId isa, CpuModel model, Addr result)
{
    SystemConfig cfg = SystemConfig::paperConfig(isa);
    cfg.numCores = 1;
    System sys(cfg);
    LoadableImage image = gen::compileProgram(prog, isa);
    LoadedProgram lp = loadProcess(sys.kernel(), image, "rand", 0);
    sys.scheduleIdleCores();
    sys.switchCpu(0, model);
    const uint64_t ran = sys.run(80'000'000);
    EXPECT_LT(ran, 80'000'000u) << "program hung";
    EXPECT_TRUE(sys.cpu(0).halted());
    return sys.kernel().process(lp.pid).space->read(result, 8);
}

/**
 * A mostly-straight-line program whose hot function is large enough
 * (well over 4 KiB of code on either ISA) that execution repeatedly
 * streams across instruction-page boundaries — the case where the
 * superblock engine must re-translate instead of chaining in-page.
 */
gen::Program
pageCrossProgram(Addr &result_addr)
{
    gen::ProgramBuilder pb;
    result_addr = pb.addZeroData(8);
    {
        auto f = pb.beginFunction("blob", 1);
        const int a = f.arg(0);
        for (int k = 0; k < 1500; ++k) {
            f.bini(k % 2 ? gen::BinOp::Add : gen::BinOp::Xor, a, a,
                   int64_t((uint64_t(k) * 2654435761u) & 0xffff));
        }
        f.ret(a);
    }
    const int blob = pb.functionIndex("blob");

    auto f = pb.beginFunction("main", 0);
    const int acc = f.newVreg();
    f.movi(acc, 0x9e3779b9);
    const int i = f.newVreg();
    const int loop = f.newLabel(), done = f.newLabel();
    f.movi(i, 0);
    f.label(loop);
    f.brcondi(gen::CondOp::Ge, i, 4, done);
    const int r = f.call(blob, {acc});
    f.mov(acc, r);
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);
    const int out = f.newVreg();
    f.lea(out, result_addr);
    f.store(out, 0, acc, 8);
    f.ret();
    pb.setEntry("main");
    return pb.take();
}

/** A loaded, scheduled, not-yet-run system the tests step manually. */
struct LiveRun
{
    std::unique_ptr<System> sys;
    int pid = -1;
    Addr result = 0;

    uint64_t
    readResult() const
    {
        return sys->kernel().process(pid).space->read(result, 8);
    }
};

LiveRun
startRun(const gen::Program &prog, IsaId isa, bool fast_warm, Addr result)
{
    LiveRun r;
    SystemConfig cfg = SystemConfig::paperConfig(isa);
    cfg.numCores = 1;
    cfg.fastWarm = fast_warm;
    r.sys = std::make_unique<System>(cfg);
    LoadableImage image = gen::compileProgram(prog, isa);
    LoadedProgram lp = loadProcess(r.sys->kernel(), image, "rand", 0);
    r.pid = lp.pid;
    r.result = result;
    r.sys->scheduleIdleCores();
    return r;
}

void
expectSameContext(const HwContext &a, const HwContext &b,
                  const std::string &label)
{
    EXPECT_EQ(a.pc, b.pc) << label;
    EXPECT_EQ(a.regs, b.regs) << label;
    EXPECT_EQ(a.ptRoot, b.ptRoot) << label;
    EXPECT_EQ(a.processId, b.processId) << label;
    EXPECT_EQ(a.halted, b.halted) << label;
}

/** Run @p prog to halt on the O3 core and return the stats tree. */
std::map<std::string, double>
o3Snapshot(const gen::Program &prog, IsaId isa, Addr result)
{
    LiveRun r = startRun(prog, isa, true, result);
    r.sys->switchCpu(0, CpuModel::O3);
    const uint64_t ran = r.sys->run(80'000'000);
    EXPECT_LT(ran, 80'000'000u) << "program hung";
    EXPECT_TRUE(r.sys->cpu(0).halted());
    return r.sys->stats().snapshotAll();
}

/** FNV-1a over one "name=value" line per stat (values printed exactly). */
uint64_t
snapshotDigest(const std::map<std::string, double> &snap)
{
    uint64_t h = 1469598103934665603ull;
    char buf[64];
    for (const auto &[key, value] : snap) {
        std::snprintf(buf, sizeof(buf), "=%.17g\n", value);
        for (const unsigned char c : key + buf) {
            h ^= c;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** Compare two stats snapshots key by key, naming every divergence. */
void
expectSameSnapshots(const std::map<std::string, double> &a,
                    const std::map<std::string, double> &b,
                    const std::string &label)
{
    for (const auto &[key, value] : a) {
        const auto it = b.find(key);
        if (it == b.end())
            ADD_FAILURE() << label << ": stat " << key << " missing";
        else
            EXPECT_EQ(value, it->second) << label << ": stat " << key;
    }
    for (const auto &[key, value] : b) {
        if (!a.count(key))
            ADD_FAILURE() << label << ": unexpected stat " << key;
    }
}

/**
 * Run the fast-tier and slow-tier systems in cycle lockstep, program i
 * on core i, core i on CPU model @p models[i] (Atomic past the end of
 * @p models): after every @p chunk cycles each core's architectural
 * context, the global cycle, and the whole guest-visible stats tree
 * (host-only groups are excluded by snapshotAll()) must agree exactly.
 * Chunk boundaries deliberately fall mid-block, mid-stall, and between
 * a syscall and its resumption, so the fast path's cursor save/restore
 * is exercised too. The slow tier ticks every core every cycle, so the
 * pair also checks the run loop's bulk crediting of quiet cores. With
 * @p ragged set, each run() limit is drawn from it instead, anywhere
 * from one cycle to @p chunk, and both tiers get the same limit.
 */
void
lockstepFastSlow(const std::vector<gen::Program> &progs,
                 const std::vector<Addr> &results, IsaId isa,
                 const std::string &what, uint64_t chunk = 2048,
                 std::vector<CpuModel> models = {}, Rng *ragged = nullptr)
{
    models.resize(progs.size(), CpuModel::Atomic);
    std::unique_ptr<System> tiers[2]; // fast, slow
    std::vector<int> pids;
    for (const bool fast_warm : {true, false}) {
        SystemConfig cfg = SystemConfig::paperConfig(isa);
        cfg.numCores = unsigned(progs.size());
        cfg.fastWarm = fast_warm;
        auto sys = std::make_unique<System>(cfg);
        pids.clear();
        for (unsigned c = 0; c < progs.size(); ++c) {
            pids.push_back(loadProcess(sys->kernel(),
                                       gen::compileProgram(progs[c], isa),
                                       "rand" + std::to_string(c), int(c))
                               .pid);
        }
        sys->scheduleIdleCores();
        for (unsigned c = 0; c < progs.size(); ++c)
            sys->switchCpu(c, models[c]);
        tiers[fast_warm ? 0 : 1] = std::move(sys);
    }
    System &fast = *tiers[0];
    System &slow = *tiers[1];

    const uint64_t maxChunks = 80'000'000 / chunk;
    for (uint64_t n = 0; n < maxChunks && !slow.allHalted(); ++n) {
        const uint64_t limit = ragged ? 1 + ragged->nextBounded(chunk)
                                      : chunk;
        const uint64_t rf = fast.run(limit);
        const uint64_t rs = slow.run(limit);
        const std::string label = what + " " + isaInfo(isa).name +
                                  " cycle " + std::to_string(slow.cycle());
        ASSERT_EQ(rf, rs) << label << ": tiers ran different cycle counts";
        ASSERT_EQ(fast.cycle(), slow.cycle()) << label;
        for (unsigned c = 0; c < progs.size(); ++c) {
            expectSameContext(fast.cpu(c).getContext(),
                              slow.cpu(c).getContext(),
                              label + " core " + std::to_string(c));
        }
        expectSameSnapshots(fast.stats().snapshotAll(),
                            slow.stats().snapshotAll(), label);
        if (::testing::Test::HasFailure())
            return; // first divergence located; the rest is noise
    }
    ASSERT_TRUE(slow.allHalted()) << what << ": program hung";
    ASSERT_TRUE(fast.allHalted()) << what << ": fast tier hung";
    for (unsigned c = 0; c < progs.size(); ++c) {
        EXPECT_EQ(fast.kernel().process(pids[c]).space->read(results[c], 8),
                  slow.kernel().process(pids[c]).space->read(results[c], 8))
            << what << " core " << c;
    }
}

} // namespace

class DifferentialTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DifferentialTest, AtomicAndO3AgreeOnBothIsas)
{
    const uint64_t seed = GetParam();
    Addr result = 0;
    gen::Program prog = randomProgram(seed, result);

    const uint64_t rv_atomic =
        runOn(prog, IsaId::Riscv, CpuModel::Atomic, result);
    const uint64_t rv_o3 = runOn(prog, IsaId::Riscv, CpuModel::O3, result);
    EXPECT_EQ(rv_atomic, rv_o3) << "riscv atomic/o3 divergence, seed "
                                << seed;

    const uint64_t cx_atomic =
        runOn(prog, IsaId::Cx86, CpuModel::Atomic, result);
    const uint64_t cx_o3 = runOn(prog, IsaId::Cx86, CpuModel::O3, result);
    EXPECT_EQ(cx_atomic, cx_o3) << "cx86 atomic/o3 divergence, seed "
                                << seed;

    // The program is ISA-independent IR: both ISAs must agree too.
    EXPECT_EQ(rv_atomic, cx_atomic) << "cross-ISA divergence, seed "
                                    << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range(uint64_t(1), uint64_t(25)));

// O3 timing, pinned end to end: random programs run to halt on the
// detailed core on both ISAs, and the whole guest-visible stats tree
// (cycles, stall partition, caches, TLBs, predictor, kernel) must hash
// to the recorded digest. The seeds squash wrong-path work and forward
// stores to loads, so the issue queue, LSQ and recovery all count.
TEST(O3TimingTest, StatsTreeDigestsArePinned)
{
    struct Pin
    {
        uint64_t seed;
        IsaId isa;
        uint64_t digest;
    };
    const Pin pins[] = {
        {1, IsaId::Riscv, 3330511224438849401ull},
        {1, IsaId::Cx86, 11113261621705102815ull},
        {2, IsaId::Riscv, 12250328085917319838ull},
        {2, IsaId::Cx86, 15634802697101829075ull},
        {4, IsaId::Riscv, 15715858555118438000ull},
        {4, IsaId::Cx86, 6140916075711365851ull},
        {6, IsaId::Riscv, 14783699737384812835ull},
        {6, IsaId::Cx86, 10079599590448269623ull},
    };
    for (const Pin &pin : pins) {
        Addr result = 0;
        const gen::Program prog = randomProgram(pin.seed, result);
        const auto snap = o3Snapshot(prog, pin.isa, result);
        const std::string label = "seed " + std::to_string(pin.seed) +
                                  " " + isaInfo(pin.isa).name;
        EXPECT_GT(snap.at("system.cpu0.o3.squashedUops"), 0.0) << label;
        EXPECT_GT(snap.at("system.cpu0.o3.forwardedLoads"), 0.0) << label;
        EXPECT_EQ(snapshotDigest(snap), pin.digest) << label;
    }
}

class FastSlowLockstepTest : public ::testing::TestWithParam<uint64_t>
{
};

// The random programs mix syscalls (sysYield traps mid-block), calls,
// data-dependent branches and loads/stores — the trap and side-exit
// cases of the superblock engine.
TEST_P(FastSlowLockstepTest, ArchStateAndStatsMatchOnBothIsas)
{
    const uint64_t seed = GetParam();
    Addr result = 0;
    const gen::Program prog = randomProgram(seed, result);
    lockstepFastSlow({prog}, {result}, IsaId::Riscv,
                     "seed " + std::to_string(seed));
    lockstepFastSlow({prog}, {result}, IsaId::Cx86,
                     "seed " + std::to_string(seed));
}

// Two cores, a program yielding every loop iteration on each: the
// yields' trap stalls and the first program's exit leave one core
// quiet while the other acts, so the run loop alternates between
// per-cycle ticks and chained batches that credit a stalling or halted
// partner. One program also resets the stats each iteration, so a
// handler observes the quiet core's credit mid-cycle; swapping the
// programs puts that core below and then above the trapping one. The
// odd chunk lands boundaries inside the batches.
TEST_P(FastSlowLockstepTest, TwoCoresMatchOnBothIsas)
{
    const uint64_t seed = GetParam();
    Addr ra = 0, rb = 0;
    const gen::Program a = randomProgram(seed, ra, LoopTrap::Yield);
    const gen::Program b =
        randomProgram(seed + 8, rb, LoopTrap::YieldAndResetStats);
    const std::string what = "seeds " + std::to_string(seed) + "+" +
                             std::to_string(seed + 8);
    for (const IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        lockstepFastSlow({a, b}, {ra, rb}, isa, what, 331);
        lockstepFastSlow({b, a}, {rb, ra}, isa, what + " swapped", 331);
    }
}

// The same two programs on two O3 cores. Each yield squashes its
// core's window into a trap stall and every I-cache or ITLB miss on an
// empty window stalls fetch: the run loop credits those quiet cycles
// in bulk, jumps while both cores are quiet and ticks only the acting
// core otherwise. The stat resets observe a settled partner below and
// above the trapping core.
TEST_P(FastSlowLockstepTest, TwoO3CoresMatchOnBothIsas)
{
    const uint64_t seed = GetParam();
    Addr ra = 0, rb = 0;
    const gen::Program a = randomProgram(seed, ra, LoopTrap::Yield);
    const gen::Program b =
        randomProgram(seed + 8, rb, LoopTrap::YieldAndResetStats);
    const std::string what = "o3 seeds " + std::to_string(seed) + "+" +
                             std::to_string(seed + 8);
    for (const IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        lockstepFastSlow({a, b}, {ra, rb}, isa, what, 331,
                         {CpuModel::O3, CpuModel::O3});
        lockstepFastSlow({b, a}, {rb, ra}, isa, what + " swapped", 331,
                         {CpuModel::O3, CpuModel::O3});
    }
}

// One O3 core, yielding every loop iteration, runs to halt: its trap
// stalls and empty-window fetch stalls are jumped over.
TEST_P(FastSlowLockstepTest, OneO3CoreMatchesOnBothIsas)
{
    const uint64_t seed = GetParam();
    Addr result = 0;
    const gen::Program prog = randomProgram(seed, result, LoopTrap::Yield);
    const std::string what = "o3 seed " + std::to_string(seed);
    for (const IsaId isa : {IsaId::Riscv, IsaId::Cx86})
        lockstepFastSlow({prog}, {result}, isa, what, 331, {CpuModel::O3});
}

// An Atomic core beside an O3 core, each model as core 0 and as core
// 1, each with either program: the run loop ticks them in lockstep
// while both act, and each model's traps settle the other while it is
// quiet, below and above the trapping core.
TEST_P(FastSlowLockstepTest, AtomicBesideO3MatchesOnBothIsas)
{
    const uint64_t seed = GetParam();
    Addr ra = 0, rb = 0;
    const gen::Program a = randomProgram(seed, ra, LoopTrap::Yield);
    const gen::Program b =
        randomProgram(seed + 8, rb, LoopTrap::YieldAndResetStats);
    const std::string what = "atomic+o3 seeds " + std::to_string(seed) +
                             "+" + std::to_string(seed + 8);
    for (const IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (const std::vector<CpuModel> &models :
             {std::vector<CpuModel>{CpuModel::Atomic, CpuModel::O3},
              std::vector<CpuModel>{CpuModel::O3, CpuModel::Atomic}}) {
            const std::string order =
                models[0] == CpuModel::O3 ? " o3 first" : "";
            lockstepFastSlow({a, b}, {ra, rb}, isa, what + order, 331,
                             models);
            lockstepFastSlow({b, a}, {rb, ra}, isa,
                             what + order + " swapped", 331, models);
        }
    }
}

// Run limits drawn at random, from one cycle up to 331, on one model
// pair per seed (all four across the seeds) and in both core orders.
// Besides the quiet windows, the run limit is all that bounds a step:
// each limit must cut a chained batch, a lockstep, a jump over quiet
// cores or a trap stall at the same cycle on both tiers, and the next
// run() must resume from there.
TEST_P(FastSlowLockstepTest, RaggedRunLimitsMatchOnAllModelPairs)
{
    const uint64_t seed = GetParam();
    const CpuModel a_model = seed & 1 ? CpuModel::O3 : CpuModel::Atomic;
    const CpuModel b_model = seed & 2 ? CpuModel::O3 : CpuModel::Atomic;
    Addr ra = 0, rb = 0;
    const gen::Program a = randomProgram(seed, ra, LoopTrap::Yield);
    const gen::Program b =
        randomProgram(seed + 8, rb, LoopTrap::YieldAndResetStats);
    const std::string what =
        "ragged seeds " + std::to_string(seed) + "+" +
        std::to_string(seed + 8) +
        (a_model == CpuModel::O3 ? " o3+" : " atomic+") +
        (b_model == CpuModel::O3 ? "o3" : "atomic");
    Rng limits(seed);
    for (const IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        lockstepFastSlow({a, b}, {ra, rb}, isa, what, 331,
                         {a_model, b_model}, &limits);
        lockstepFastSlow({b, a}, {rb, ra}, isa, what + " swapped", 331,
                         {b_model, a_model}, &limits);
    }
}

// A stop request in every loop iteration, on all four model pairs and
// in both core orders: each m5 exit ends run() at the end of its
// trapping cycle, inside a chained batch, a lockstep or a one-cycle
// oracle step, and both tiers must stop on the same cycle.
TEST_P(FastSlowLockstepTest, StopRequestsMatchOnAllModelPairs)
{
    const uint64_t seed = GetParam();
    Addr ra = 0, rb = 0;
    const gen::Program a = randomProgram(seed, ra, LoopTrap::YieldAndExit);
    const gen::Program b =
        randomProgram(seed + 8, rb, LoopTrap::YieldAndResetStats);
    const std::string what = "exit seeds " + std::to_string(seed) + "+" +
                             std::to_string(seed + 8) + " ";
    for (const IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (const CpuModel m0 : {CpuModel::Atomic, CpuModel::O3}) {
            for (const CpuModel m1 : {CpuModel::Atomic, CpuModel::O3}) {
                const std::string pair =
                    what + (m0 == CpuModel::O3 ? "o3+" : "atomic+") +
                    (m1 == CpuModel::O3 ? "o3" : "atomic");
                lockstepFastSlow({a, b}, {ra, rb}, isa, pair, 331,
                                 {m0, m1});
                lockstepFastSlow({b, a}, {rb, ra}, isa, pair + " swapped",
                                 331, {m0, m1});
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastSlowLockstepTest,
                         ::testing::Range(uint64_t(1), uint64_t(9)));

// Instruction streams crossing 4 KiB code-page boundaries: the fast
// path must re-translate at every page edge exactly like the oracle.
TEST(FastSlowLockstepTest, PageCrossingCodeMatches)
{
    Addr result = 0;
    const gen::Program prog = pageCrossProgram(result);
    lockstepFastSlow({prog}, {result}, IsaId::Riscv, "pagecross");
    lockstepFastSlow({prog}, {result}, IsaId::Cx86, "pagecross");
}

namespace
{

/**
 * Save a warm (uarch-carrying) checkpoint mid-run, restore it into
 * fresh systems — one resuming through the fast tier, one through the
 * per-instruction path — and require the remainder of the run to be
 * byte-identical to the uninterrupted machine: same cycle count, same
 * final context, same guest result, same stats tree. Statistics are
 * rebased at the checkpoint moment on every system because checkpoints
 * carry no stats (same contract as the experiment harness).
 */
void
checkpointFastResume(IsaId isa)
{
    Addr result = 0;
    const gen::Program prog = randomProgram(7, result);
    LiveRun ref = startRun(prog, isa, true, result);

    const uint64_t lead = 4'000;
    ASSERT_EQ(ref.sys->run(lead), lead)
        << "program finished before the checkpoint";
    ASSERT_FALSE(ref.sys->cpu(0).halted());
    const Checkpoint cp = ref.sys->saveCheckpoint(true);

    ref.sys->stats().resetAll();
    const uint64_t ranRef = ref.sys->run(80'000'000);
    ASSERT_LT(ranRef, 80'000'000u) << "program hung";
    ASSERT_TRUE(ref.sys->cpu(0).halted());
    const HwContext ctxRef = ref.sys->cpu(0).getContext();
    const auto snapRef = ref.sys->stats().snapshotAll();
    const uint64_t resultRef = ref.readResult();

    for (const bool fast : {true, false}) {
        // Restore into an identically built machine with the same
        // process loaded; the kernel restore checks that it matches
        // the checkpoint.
        LiveRun resumed = startRun(prog, isa, fast, result);
        System &sys = *resumed.sys;
        sys.restoreCheckpoint(cp);
        const std::string label = std::string("resume tier ") +
                                  (fast ? "fast " : "slow ") +
                                  isaInfo(isa).name;
        // Checkpoints carry no decoded code: the restored machine
        // starts without superblocks and forms them as it runs.
        EXPECT_EQ(sys.superblocks().size(), 0u) << label;
        sys.stats().resetAll();
        const uint64_t ran = sys.run(80'000'000);
        EXPECT_EQ(ran, ranRef) << label;
        EXPECT_TRUE(sys.cpu(0).halted()) << label;
        expectSameContext(sys.cpu(0).getContext(), ctxRef, label);
        expectSameSnapshots(sys.stats().snapshotAll(), snapRef, label);
        EXPECT_EQ(sys.kernel().process(ref.pid).space->read(result, 8),
                  resultRef)
            << label;
    }
}

} // namespace

TEST(FastResumeTest, CheckpointRestoreResumesByteIdenticalRiscv)
{
    checkpointFastResume(IsaId::Riscv);
}

TEST(FastResumeTest, CheckpointRestoreResumesByteIdenticalCx86)
{
    checkpointFastResume(IsaId::Cx86);
}

namespace
{

/**
 * A whole Emu-mode experiment (boot, container start and ten requests,
 * all on the Atomic CPU) on the fast tier and on the per-cycle oracle.
 * Each workBegin/workEnd mark is a trap that on the fast tier can land
 * inside a chained batch, where the harness reads the cycle and resets
 * stats: the request latencies and the final stats tree must match.
 */
void
emuFastSlow(IsaId isa)
{
    FunctionSpec spec;
    for (const FunctionSpec &f : workloads::allFunctions()) {
        if (f.name == "fibonacci-go")
            spec = f;
    }
    ASSERT_EQ(spec.name, "fibonacci-go");
    EmuResult res[2];
    std::map<std::string, double> snap[2];
    for (const bool fast : {false, true}) {
        // A private empty checkpoint directory per tier, so both
        // prepare from scratch instead of restoring the other's image.
        const std::string dir = std::string("ckpt_emu_fastslow_") +
                                isaName(isa) + (fast ? "_fast" : "_slow");
        std::filesystem::remove_all(dir);
        CheckpointStore::global().resetForTest(dir);
        ClusterConfig cfg;
        cfg.system = SystemConfig::paperConfig(isa);
        cfg.system.fastWarm = fast;
        cfg.startDb = false;
        cfg.startMemcached = false;
        ExperimentRunner runner(cfg);
        res[fast] = runner.runFunctionEmu(
            spec, workloads::workloadImpl(spec.workload));
        snap[fast] = runner.cluster().system().stats().snapshotAll();
        std::filesystem::remove_all(dir);
    }
    const std::string label = std::string("emu ") + isaInfo(isa).name;
    ASSERT_TRUE(res[0].ok && res[1].ok) << label;
    EXPECT_EQ(res[1].coldNs, res[0].coldNs) << label;
    EXPECT_EQ(res[1].warmNs, res[0].warmNs) << label;
    expectSameSnapshots(snap[1], snap[0], label);
}

} // namespace

TEST(FastSlowEmuTest, FibonacciGoMatchesOnBothIsas)
{
    emuFastSlow(IsaId::Riscv);
    emuFastSlow(IsaId::Cx86);
}
