#include "system.hh"

#include "guest/syscall_abi.hh"
#include "sim/env.hh"
#include "sim/logging.hh"

namespace svb
{

System::System(const SystemConfig &config) : cfg(config)
{
    physMem = std::make_unique<PhysMemory>(cfg.memBytes);
    // Reserve the first 64 KiB as a null-guard region.
    frameAlloc = std::make_unique<FrameAllocator>(0x10000, cfg.memBytes);
    dram = std::make_unique<DramCtrl>(cfg.dram, rootStats);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        coreMems.push_back(std::make_unique<CoreMemSystem>(
            int(c), cfg.caches, *dram, bus, rootStats));
    }
    decoder = std::make_unique<DecodeCache>(cfg.isa, *physMem);
    // Host-observability groups: they count simulator work, which
    // legitimately differs across emulation tiers and checkpoint
    // restores, so they stay outside the snapshot identity surface.
    StatGroup &decode_grp = rootStats.childGroup("decode");
    decode_grp.markHostOnly();
    decoder->attachStats(decode_grp);
    sblocks = std::make_unique<SuperblockCache>(*decoder);
    StatGroup &sblock_grp = rootStats.childGroup("superblock");
    sblock_grp.markHostOnly();
    sblocks->attachStats(sblock_grp);
    fastWarm = cfg.fastWarm && envFlag("SVBENCH_FASTWARM", true);
    reapRestore = cfg.reapRestore && envFlag("SVBENCH_REAP", true);
    // Page/restore accounting is simulator work (restore mode changes
    // it, guest-visible behavior doesn't), so it stays host-only like
    // the decode and superblock groups.
    StatGroup &mempage_grp = rootStats.childGroup("mempage");
    mempage_grp.markHostOnly();
    physMem->attachStats(mempage_grp);
    guestKernel = std::make_unique<GuestKernel>(
        *physMem, *frameAlloc, cfg.isa, int(cfg.numCores), rootStats);
    guestKernel->setM5Listener(this);

    for (unsigned c = 0; c < cfg.numCores; ++c) {
        StatGroup &core_group =
            rootStats.childGroup("cpu" + std::to_string(c));
        atomics.push_back(std::make_unique<AtomicCpu>(
            int(c), cfg.isa, *physMem, *coreMems[c], *decoder,
            *guestKernel, core_group, *sblocks));
        o3s.push_back(std::make_unique<O3Cpu>(
            cfg.o3, int(c), cfg.isa, *physMem, *coreMems[c], *decoder,
            *guestKernel, core_group));
        const BaseCpu::PreTrap pre_trap = [this, c](uint64_t call_cycles) {
            settleQuietCores(c, call_cycles);
        };
        atomics.back()->setPreTrap(pre_trap);
        o3s.back()->setPreTrap(pre_trap);
        models.push_back(CpuModel::Atomic);
    }
    creditedTo.assign(cfg.numCores, actingCore);
}

BaseCpu &
System::cpu(unsigned core)
{
    return models.at(core) == CpuModel::Atomic
               ? static_cast<BaseCpu &>(*atomics.at(core))
               : static_cast<BaseCpu &>(*o3s.at(core));
}

void
System::switchCpu(unsigned core, CpuModel model)
{
    if (models.at(core) == model)
        return;
    const HwContext ctx = cpu(core).getContext();
    models[core] = model;
    cpu(core).setContext(ctx);
}

void
System::scheduleIdleCores()
{
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (!cpu(c).halted())
            continue;
        HwContext ctx;
        if (guestKernel->scheduleCore(int(c), ctx))
            cpu(c).setContext(ctx);
    }
}

void
System::flushMicroarchState()
{
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        coreMems[c]->flushAll();
        cpu(c).itlb().flush();
        cpu(c).dtlb().flush();
        // The superblock cursor caches an instruction-page translation
        // made before this flush; drop it so the fast path re-walks.
        atomics[c]->resetFastPath();
        o3s[c]->branchPredictor().reset();
    }
}

bool
System::allHalted() const
{
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const bool halted = models[c] == CpuModel::Atomic
                                ? atomics[c]->halted()
                                : o3s[c]->halted();
        if (!halted)
            return false;
    }
    return true;
}

size_t
System::decodedCodeMismatches() const
{
    return decoder->staleEntries() + sblocks->staleBlocks();
}

uint64_t
System::step(uint64_t limit)
{
    // The quiet-core rule. A core is quiet while its next ticks can
    // only count cycles (quietCycles() > 0): it is halted, burning an
    // Atomic trap stall, or an O3 core with an empty window waiting for
    // fetch to resume. Every core is classified once, as quiet with a
    // window or as acting, and the step covers at most the earliest of
    // the run limit and every quiet window:
    //  - no core acts: jump, crediting every core;
    //  - the only acting core is a fast-tier Atomic core: it runs
    //    chained;
    //  - otherwise the acting cores tick in lockstep, in core order,
    //    which keeps shared-memory spin protocols such as the RPC
    //    rings exactly interleaved.
    // The quiet cores are credited in bulk. A trap handler changes only
    // its own core's context, so quiet cores stay quiet through the
    // step, which ends at a trap; the next step classifies again. The
    // per-cycle oracle (SVBENCH_FASTWARM=0) counts every core as
    // acting and steps one cycle.
    const uint64_t g0 = globalCycle;
    unsigned acting = 0;
    unsigned actor = 0; // the last acting core
    uint64_t quiet_end = ~uint64_t(0); // cycles to the next window end
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const uint64_t window = !fastWarm ? 0
                                : models[c] == CpuModel::Atomic
                                    ? atomics[c]->quietCycles()
                                    : o3s[c]->quietCycles();
        creditedTo[c] = window > 0 ? g0 : actingCore;
        if (window > 0) {
            quiet_end = std::min(quiet_end, window);
        } else {
            ++acting;
            actor = c;
        }
    }

    // The final drain, every core halted, is a one-cycle jump: run()
    // ends after it, as after one oracle cycle.
    uint64_t n = std::min(limit, quiet_end);
    if (!fastWarm || (acting == 0 && quiet_end == ~uint64_t(0)))
        n = 1;
    if (fastWarm && acting == 1 && models[actor] == CpuModel::Atomic) {
        callStart = g0;
        n = atomics[actor]->runFast(n);
    } else if (acting > 0) {
        n = tickActing(n);
    }
    globalCycle = g0 + n;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (creditedTo[c] != actingCore)
            creditQuietCore(c, globalCycle);
    }
    return n;
}

uint64_t
System::tickActing(uint64_t n)
{
    const uint64_t g0 = globalCycle;
    trapped = false;
    for (uint64_t done = 0;;) {
        callStart = g0 + done;
        bool went_quiet = false;
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            if (creditedTo[c] != actingCore)
                continue;
            // Both models are final, so these are direct calls.
            if (models[c] == CpuModel::O3) {
                o3s[c]->tick();
                went_quiet = went_quiet || o3s[c]->quietCycles() > 0;
                continue;
            }
            AtomicCpu &core = *atomics[c];
            if (fastWarm)
                core.runFast(1);
            else
                core.tick();
            went_quiet = went_quiet || core.quietCycles() > 0;
        }
        // After a trap the handler may have requested a stop; a core
        // that went quiet may let the next step jump or chain.
        if (++done == n || trapped || went_quiet)
            return done;
    }
}

void
System::creditQuietCore(unsigned c, uint64_t to)
{
    const uint64_t n = to - creditedTo[c];
    creditedTo[c] = to;
    if (models[c] == CpuModel::Atomic)
        atomics[c]->addQuietCycles(n);
    else
        o3s[c]->addQuietCycles(n);
}

void
System::settleQuietCores(unsigned trapper, uint64_t call_cycles)
{
    globalCycle = callStart + call_cycles;
    trapped = true;
    // The per-cycle oracle ticks the cores below the trapper in the
    // trapping cycle before it traps and the cores above it only
    // after; the handler may observe either.
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (creditedTo[c] != actingCore)
            creditQuietCore(c, c < trapper ? globalCycle : globalCycle - 1);
    }
}

uint64_t
System::run(uint64_t max_cycles)
{
    stopRequested = false;
    uint64_t ran = 0;
    while (ran < max_cycles && !stopRequested) {
        ran += step(max_cycles - ran);
        if (allHalted())
            break;
    }
    return ran;
}

void
System::m5Op(int core_id, uint64_t op, uint64_t arg)
{
    switch (op) {
      case sys::m5ResetStats:
        rootStats.resetAll();
        break;
      case sys::m5ExitSim:
        requestStop();
        break;
      default:
        break;
    }
    if (chainedListener != nullptr)
        chainedListener->m5Op(core_id, op, arg);
}

Checkpoint
System::saveCheckpoint(bool include_uarch) const
{
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        svb_assert(models[c] == CpuModel::Atomic,
                   "checkpoints require the Atomic CPU (core ", c, ")");
    }
    Checkpoint cp;
    cp.setString("system.isa", isaName(cfg.isa));
    cp.setScalar("system.cycle", globalCycle);
    physMem->serializeState("mem.", cp);
    frameAlloc->serializeState("frames.", cp);
    guestKernel->serializeState("kernel.", cp);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const HwContext ctx = atomics[c]->getContext();
        const std::string prefix = "cpu" + std::to_string(c) + ".";
        cp.setScalar(prefix + "pc", ctx.pc);
        cp.setScalar(prefix + "ptRoot", ctx.ptRoot);
        cp.setScalar(prefix + "processId",
                     uint64_t(int64_t(ctx.processId)));
        cp.setScalar(prefix + "halted", ctx.halted ? 1 : 0);
        for (unsigned r = 0; r < maxArchRegs; ++r)
            cp.setScalar(prefix + "reg" + std::to_string(r), ctx.regs[r]);
    }
    if (include_uarch) {
        cp.setScalar("uarch.present", 1);
        dram->serializeState("dram.", cp);
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            const std::string prefix = "cpu" + std::to_string(c) + ".";
            coreMems[c]->serializeState(prefix + "mem.", cp);
            atomics[c]->itlb().serializeState(prefix + "itlb.", cp);
            atomics[c]->dtlb().serializeState(prefix + "dtlb.", cp);
            cp.setScalar(prefix + "stall", atomics[c]->stallCycles());
            // Setup mode runs the Atomic CPU, which never trains the
            // predictor; a cold predictor is recorded as a flag, not
            // tables, so the snapshot stays valid (and shareable)
            // across branch-predictor-geometry ablation points.
            const BranchPredictor &bp = o3s[c]->branchPredictor();
            const bool warm = !bp.isReset();
            cp.setScalar(prefix + "bpWarm", warm ? 1 : 0);
            if (warm)
                bp.serializeState(prefix + "bp.", cp);
        }
    }
    return cp;
}

void
System::restoreCheckpoint(const Checkpoint &cp,
                          std::shared_ptr<const PageImage> image)
{
    svb_assert(cp.getString("system.isa") == isaName(cfg.isa),
               "checkpoint ISA mismatch");
    // Decoded code is host-side state that no checkpoint carries: the
    // decode and superblock caches of a freshly built system start
    // empty and refill from the restored memory on first fetch. Both
    // are checked, since superblock formation leaves no decode entry.
    svb_assert(globalCycle == 0 && decoder->size() == 0 &&
                   sblocks->size() == 0,
               "restoreCheckpoint needs a freshly built system (cycle ",
               globalCycle, ", ", decoder->size(), " decoded addresses, ",
               sblocks->size(), " superblocks)");
    globalCycle = cp.getScalar("system.cycle");
    if (image != nullptr && reapRestore)
        physMem->restoreLazy(std::move(image));
    else
        physMem->unserializeState("mem.", cp);
    frameAlloc->unserializeState("frames.", cp);
    guestKernel->unserializeState("kernel.", cp);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const std::string prefix = "cpu" + std::to_string(c) + ".";
        HwContext ctx;
        ctx.pc = cp.getScalar(prefix + "pc");
        ctx.ptRoot = cp.getScalar(prefix + "ptRoot");
        ctx.processId = int(int64_t(cp.getScalar(prefix + "processId")));
        ctx.halted = cp.getScalar(prefix + "halted") != 0;
        for (unsigned r = 0; r < maxArchRegs; ++r)
            ctx.regs[r] = cp.getScalar(prefix + "reg" + std::to_string(r));
        models[c] = CpuModel::Atomic;
        atomics[c]->setContext(ctx);
    }
    if (!cp.hasScalar("uarch.present")) {
        flushMicroarchState();
        return;
    }
    // Warm-state restore. Order matters: setContext() above flushed
    // the Atomic TLBs, so they are repopulated here.
    dram->unserializeState("dram.", cp);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const std::string prefix = "cpu" + std::to_string(c) + ".";
        coreMems[c]->unserializeState(prefix + "mem.", cp);
        atomics[c]->itlb().unserializeState(prefix + "itlb.", cp);
        atomics[c]->dtlb().unserializeState(prefix + "dtlb.", cp);
        atomics[c]->setStallCycles(cp.getScalar(prefix + "stall"));
        if (cp.getScalar(prefix + "bpWarm") != 0)
            o3s[c]->branchPredictor().unserializeState(prefix + "bp.", cp);
        else
            o3s[c]->branchPredictor().reset();
    }
}

} // namespace svb
