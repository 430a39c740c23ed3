/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own components:
 * decoders, cache model, TLB, branch predictor, whole-CPU simulation
 * rates and the load engine's replay rate (host-side throughput, not
 * guest metrics).
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/parallel.hh"
#include "core/result_cache.hh"
#include "core/system.hh"
#include "cpu/decode_cache.hh"
#include "cpu/paging.hh"
#include "cpu/superblock.hh"
#include "gen/guestlib.hh"
#include "gen/ir.hh"
#include "guest/loader.hh"
#include "isa/cx86/assembler.hh"
#include "isa/cx86/decoder.hh"
#include "isa/riscv/assembler.hh"
#include "isa/riscv/decoder.hh"
#include "load/load_runner.hh"
#include "sim/rng.hh"
#include "workloads/workloads.hh"

using namespace svb;

namespace
{

/** A small spinning compute program for CPU-rate benchmarks. */
gen::Program
computeProgram()
{
    gen::ProgramBuilder pb;
    const gen::GuestLib lib = gen::GuestLib::addTo(pb);
    auto f = pb.beginFunction("main", 0);
    const int iters = f.imm(1 << 20);
    f.callVoid(lib.burnAlu, {iters});
    const int ptr = f.newVreg(), bytes = f.imm(1 << 16),
              stride = f.imm(64);
    f.movi(ptr, int64_t(layout::heapBase));
    f.callVoid(lib.touchWrite, {ptr, bytes, stride});
    f.ret();
    pb.setEntry("main");
    return pb.take();
}

void
BM_RiscvDecode(benchmark::State &state)
{
    riscv::Assembler as;
    as.add(rv::a0, rv::a1, rv::a2);
    as.ld(rv::a0, rv::sp, 16);
    as.mul(rv::a3, rv::a0, rv::a1);
    const auto &code = as.finish();
    uint32_t words[3];
    std::memcpy(words, code.data(), 12);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(riscv::decode(words[i % 3]));
        ++i;
    }
}
BENCHMARK(BM_RiscvDecode);

void
BM_Cx86Decode(benchmark::State &state)
{
    cx86::Assembler as;
    as.add(cx::r1, cx::r2);
    as.load(cx::r3, cx::rsp, 16, 8, false);
    as.imulImm(cx::r6, 37);
    const auto &code = as.finish();
    size_t off = 0;
    const size_t offs[3] = {0, 2, 5};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cx86::decode(code.data() + offs[off % 3], code.size()));
        ++off;
    }
}
BENCHMARK(BM_Cx86Decode);

void
BM_CacheAccess(benchmark::State &state)
{
    StatGroup stats("bench");
    DramCtrl dram(DramParams{}, stats);
    Cache l2(CacheParams{"l2", 512 * 1024, 4, 64, 20}, dram, stats);
    Cache l1(CacheParams{"l1", 32 * 1024, 8, 64, 2}, l2, stats);
    Rng rng(7);
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            l1.access(rng.nextBounded(1 << 22), false, ++now));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_BranchPredictor(benchmark::State &state)
{
    StatGroup stats("bench");
    BranchPredictor bp(BranchPredParams{}, stats);
    StaticInst inst;
    inst.valid = true;
    inst.length = 4;
    inst.isControl = true;
    inst.isCondCtrl = true;
    inst.isDirectCtrl = true;
    inst.directOffset = -16;
    Addr pc = 0x10000;
    for (auto _ : state) {
        const auto pred = bp.predict(pc, inst, pc + 4);
        bp.update(pc, inst, (pc >> 4) & 1, pred.nextPc);
        pc += 4;
        benchmark::DoNotOptimize(pred);
    }
}
BENCHMARK(BM_BranchPredictor);

/** Whole-system simulation rate: Atomic model. */
void
BM_AtomicSimRate(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        SystemConfig cfg = SystemConfig::paperConfig(IsaId::Riscv);
        cfg.numCores = 1;
        System sys(cfg);
        LoadableImage image =
            gen::compileProgram(computeProgram(), IsaId::Riscv);
        loadProcess(sys.kernel(), image, "bench", 0);
        sys.scheduleIdleCores();
        state.ResumeTiming();
        const uint64_t ran = sys.run(30'000'000);
        state.counters["guest_insts/s"] = benchmark::Counter(
            double(sys.atomicCpu(0).instCount()),
            benchmark::Counter::kIsRate);
        benchmark::DoNotOptimize(ran);
    }
}
BENCHMARK(BM_AtomicSimRate)->Unit(benchmark::kMillisecond);

/**
 * Setup-phase host throughput: guest instructions retired per host
 * second on the Atomic model, across the two execution engines and
 * with functional warming on/off. Args: (isa, fast, warm). The
 * fast/slow ratio at equal warming is the superblock tier's
 * setup-phase speedup recorded in EXPERIMENTS.md; guest-visible
 * results are byte-identical either way (tests/test_cpu_differential).
 */
void
BM_AtomicHostMips(benchmark::State &state)
{
    const IsaId isa = state.range(0) == 0 ? IsaId::Riscv : IsaId::Cx86;
    const bool fast = state.range(1) != 0;
    const bool warm = state.range(2) != 0;
    uint64_t insts = 0;
    for (auto _ : state) {
        state.PauseTiming();
        SystemConfig cfg = SystemConfig::paperConfig(isa);
        cfg.numCores = 1;
        cfg.fastWarm = fast;
        System sys(cfg);
        LoadableImage image =
            gen::compileProgram(computeProgram(), isa);
        loadProcess(sys.kernel(), image, "bench", 0);
        sys.scheduleIdleCores();
        sys.atomicCpu(0).setWarmingEnabled(warm);
        state.ResumeTiming();
        benchmark::DoNotOptimize(sys.run(30'000'000));
        insts += sys.atomicCpu(0).instCount();
    }
    state.counters["guest_mips"] =
        benchmark::Counter(double(insts) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AtomicHostMips)
    ->ArgNames({"isa", "fast", "warm"})
    ->Args({0, 0, 1})
    ->Args({0, 1, 1})
    ->Args({0, 0, 0})
    ->Args({0, 1, 0})
    ->Args({1, 0, 1})
    ->Args({1, 1, 1})
    ->Args({1, 0, 0})
    ->Args({1, 1, 0})
    ->Unit(benchmark::kMillisecond);

/** Whole-system simulation rate: detailed O3 model. */
void
BM_O3SimRate(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        SystemConfig cfg = SystemConfig::paperConfig(IsaId::Riscv);
        cfg.numCores = 1;
        System sys(cfg);
        LoadableImage image =
            gen::compileProgram(computeProgram(), IsaId::Riscv);
        loadProcess(sys.kernel(), image, "bench", 0);
        sys.scheduleIdleCores();
        sys.switchCpu(0, CpuModel::O3);
        state.ResumeTiming();
        const uint64_t ran = sys.run(30'000'000);
        state.counters["guest_cycles/s"] = benchmark::Counter(
            double(sys.o3Cpu(0).cycleCount()),
            benchmark::Counter::kIsRate);
        benchmark::DoNotOptimize(ran);
    }
}
BENCHMARK(BM_O3SimRate)->Unit(benchmark::kMillisecond);

/**
 * Per-task dispatch overhead of the experiment scheduler's pool: a
 * batch of trivial tasks submitted and drained, so the time per
 * iteration is queue+wakeup cost, not work.
 */
void
BM_ThreadPoolDispatch(benchmark::State &state)
{
    ThreadPool pool(unsigned(state.range(0)));
    std::atomic<uint64_t> sink{0};
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i)
            pool.submit([&sink] {
                sink.fetch_add(1, std::memory_order_relaxed);
            });
        pool.wait();
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 256);
    benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(4);

namespace
{

/** A DecodeCache over a loop of RV64 instructions at address 0. */
struct DecodeFixture
{
    DecodeFixture() : phys(1 << 20), cache(IsaId::Riscv, phys)
    {
        riscv::Assembler as;
        for (int i = 0; i < 16; ++i)
            as.add(rv::a0, rv::a1, rv::a2);
        const auto &code = as.finish();
        phys.writeBytes(0, code.data(), code.size());
    }
    PhysMemory phys;
    DecodeCache cache;
};

} // namespace

/** Same-address re-decode: the one-entry MRU fast path. */
void
BM_DecodeCacheMruHit(benchmark::State &state)
{
    DecodeFixture fx;
    fx.cache.decodeAt(0); // populate
    for (auto _ : state)
        benchmark::DoNotOptimize(&fx.cache.decodeAt(0));
}
BENCHMARK(BM_DecodeCacheMruHit);

/** Sequential fetch through a 16-instruction loop: hash-map path. */
void
BM_DecodeCacheLoopFetch(benchmark::State &state)
{
    DecodeFixture fx;
    Addr pc = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(&fx.cache.decodeAt(pc));
        pc = (pc + 4) & 63;
    }
}
BENCHMARK(BM_DecodeCacheLoopFetch);

namespace
{

/**
 * One 4 KiB page of straight-line code (ALU, load, multiply, store;
 * nothing that ends a block), nop-padded to the page end.
 */
std::vector<uint8_t>
straightLinePage(IsaId isa)
{
    std::vector<uint8_t> code;
    if (isa == IsaId::Riscv) {
        riscv::Assembler as;
        while (as.here() + 16 <= paging::pageSize) {
            as.add(rv::a0, rv::a1, rv::a2);
            as.ld(rv::a3, rv::sp, 16);
            as.mul(rv::a4, rv::a0, rv::a3);
            as.sd(rv::a4, rv::sp, 24);
        }
        code = as.finish();
    } else {
        cx86::Assembler as;
        // Stop well short of the page end (a group is under 32 bytes),
        // so no instruction straddles it, then pad.
        while (as.here() + 32 <= paging::pageSize) {
            as.add(cx::r1, cx::r2);
            as.load(cx::r3, cx::rsp, 16, 8, false);
            as.imulImm(cx::r3, 37);
            as.store(cx::r3, cx::rsp, 24, 8);
        }
        while (as.here() < paging::pageSize)
            as.nop();
        code = as.finish();
    }
    return code;
}

} // namespace

/**
 * Superblock formation as after every System rebuild: from a fresh
 * decoder and SuperblockCache, form every block of a page of
 * straight-line code, each anchored where the previous one ended.
 * Reports host time per lowered instruction (s_per_inst). Arg: isa
 * (0 = RV64, 1 = CX86).
 */
void
BM_SuperblockFormation(benchmark::State &state)
{
    const IsaId isa = state.range(0) == 0 ? IsaId::Riscv : IsaId::Cx86;
    PhysMemory phys(1 << 20);
    const std::vector<uint8_t> code = straightLinePage(isa);
    phys.writeBytes(0, code.data(), code.size());
    uint64_t lowered = 0;
    for (auto _ : state) {
        DecodeCache decoder(isa, phys);
        SuperblockCache blocks(decoder);
        Addr anchor = 0;
        while (anchor < paging::pageSize) {
            const SbInst &last = blocks.at(anchor).insts.back();
            anchor = last.pcOff + last.length;
        }
        benchmark::DoNotOptimize(blocks.size());
        lowered += blocks.instsLowered();
    }
    state.counters["s_per_inst"] = benchmark::Counter(
        double(lowered),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SuperblockFormation)->ArgName("isa")->Arg(0)->Arg(1);

/** Program compilation (IR -> machine code) throughput. */
void
BM_CompileProgram(benchmark::State &state)
{
    const auto isa = state.range(0) == 0 ? IsaId::Riscv : IsaId::Cx86;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            gen::compileProgram(computeProgram(), isa));
    }
}
BENCHMARK(BM_CompileProgram)->Arg(0)->Arg(1);

/**
 * Load-engine throughput (items = invocations replayed): a plain
 * single-node stream of the three Go functions alone, Poisson arrivals
 * at 4000/s onto a FixedTtl pool of 4 slots. perfbench's plain streams
 * use the same arrivals and pool but add python and nodejs functions;
 * its traced load.ns_per_attempt.plain times those. The calibrations
 * are hand-written ldcal rows, so the timed loop simulates no CPU.
 * Arg: invocations.
 */
void
BM_AttemptEngineStream(benchmark::State &state)
{
    const std::filesystem::path csv =
        std::filesystem::temp_directory_path() /
        ("svb_bm_stream_" + std::to_string(::getpid()) + ".csv");
    std::filesystem::remove(csv);
    load::LoadScenario s;
    s.name = "bm-stream";
    s.cluster.system = SystemConfig::paperConfig(IsaId::Riscv);
    s.cluster.startDb = false;
    s.cluster.startMemcached = false;
    s.arrival.kind = load::ArrivalKind::Poisson;
    s.arrival.ratePerSec = 4000.0;
    s.pool = {load::KeepAlivePolicy::FixedTtl, 4, 50'000'000};
    s.invocations = uint64_t(state.range(0));
    s.seed = 11;
    {
        ResultCache cache(csv.string());
        // The Go mix's cold and warm service times (ns), rounded from
        // its RV64 calibrations on the paper's standalone platform.
        const struct
        {
            const char *name;
            uint64_t coldNs;
            uint64_t warmNs;
        } go[] = {{"fibonacci-go", 271'000, 158'000},
                  {"aes-go", 278'000, 166'000},
                  {"auth-go", 271'000, 159'000}};
        for (const auto &[name, cold_ns, warm_ns] : go) {
            for (const FunctionSpec &spec : workloads::allFunctions()) {
                if (spec.name != name)
                    continue;
                LoadCalibration cal;
                cal.name = spec.name;
                cal.coldNs = cold_ns;
                for (uint64_t &ns : cal.warmNs)
                    ns = warm_ns;
                cal.ok = true;
                cache.recordRow(
                    cache.rowKey(s.cluster, spec, RunMode::LoadCal),
                    packRunResult(cal));
                s.mix.push_back(
                    {spec, &workloads::workloadImpl(spec.workload), 1.0});
            }
        }
        for (auto _ : state) {
            const load::LoadResult res = load::LoadRunner(cache).run(s);
            benchmark::DoNotOptimize(res.histoFingerprint);
        }
    }
    std::filesystem::remove(csv);
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(s.invocations));
}
BENCHMARK(BM_AttemptEngineStream)
    ->ArgName("invocations")
    ->Arg(60'000)
    ->Arg(2'000'000)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
