#include "system.hh"

#include "guest/syscall_abi.hh"
#include "sim/logging.hh"

namespace svb
{

System::System(const SystemConfig &config)
    : cfg(config), rngState(config.seed)
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
    fastWarm = cfg.fastWarm && SuperblockCache::envEnabled();
    reapRestore = cfg.reapRestore && reapEnvEnabled();
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
        models.push_back(CpuModel::Atomic);
    }
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

void
System::tickCore(unsigned c)
{
    // Atomic-model cores step through the superblock engine when the
    // fast tier is enabled and no trace sink needs per-retirement
    // callbacks; tickFast() is cycle-for-cycle identical to tick().
    // Both models are final, so these are direct calls.
    if (models[c] == CpuModel::O3) {
        o3s[c]->tick();
        return;
    }
    AtomicCpu &atomic = *atomics[c];
    if (fastWarm && !atomic.tracing())
        atomic.tickFast();
    else
        atomic.tick();
}

uint64_t
System::step(uint64_t limit)
{
    // The quiet-core rule. A core is quiet while it is halted or
    // burning stallCycles(): ticking it is pure bookkeeping. While
    // every core is an untraced fast-tier Atomic core and at most one
    // can act, that core runs chained and the quiet ones are credited
    // in bulk, up to the earliest of the run limit, the next event and
    // the end of every other core's stall. A trap handler changes only
    // its own core's context, so quiet cores stay quiet through the
    // batch, which ends at the trap; the next step checks again.
    bool chained = fastWarm;
    unsigned actor = cfg.numCores; // none
    uint64_t quiet_end = ~uint64_t(0); // cycles to the next stall end or event
    for (unsigned c = 0; c < cfg.numCores && chained; ++c) {
        const AtomicCpu &core = *atomics[c];
        if (models[c] != CpuModel::Atomic || core.tracing())
            chained = false;
        else if (core.halted())
            continue;
        else if (core.stallCycles() > 0)
            quiet_end = std::min<uint64_t>(quiet_end, core.stallCycles());
        else if (actor == cfg.numCores)
            actor = c;
        else
            chained = false;
    }
    if (chained && eventq.pending() > 0) {
        const Tick next_ev = eventq.nextEventTick();
        svb_assert(next_ev > globalCycle, "overdue event");
        quiet_end = std::min<uint64_t>(quiet_end, next_ev - globalCycle);
    }

    // Every other case ticks one cycle, every core in core order:
    // detailed or traced cores present, several Atomic cores able to
    // act at once (shared-ring polling needs their exact interleaving),
    // or the final drain, where every core is halted with no event due.
    if (!chained || (actor == cfg.numCores && quiet_end == ~uint64_t(0))) {
        ++globalCycle;
        for (unsigned c = 0; c < cfg.numCores; ++c)
            tickCore(c);
        return 1;
    }

    uint64_t n = std::min(limit, quiet_end);
    const uint64_t g0 = globalCycle;
    if (actor < cfg.numCores) {
        // Two words of captures fit std::function's small buffer, so a
        // batch allocates nothing on the host heap (an allocation per
        // batch raised detailed-fresh's peak RSS by up to 13 MiB).
        const AtomicCpu::PreTrap pre_trap = [this, actor](uint64_t batch) {
            // On the per-cycle path, the trapping cycle ticks the cores
            // below the actor before it traps and the cores above it
            // only after; the handler may observe either.
            globalCycle += batch;
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                if (c != actor)
                    atomics[c]->addQuietCycles(c < actor ? batch
                                                         : batch - 1);
            }
        };
        n = atomics[actor]->runFast(n, &pre_trap);
    }
    // pre_trap moved the cycle to the trapping one: then only the cores
    // above the actor still owe that cycle. Otherwise every quiet core
    // owes the whole batch.
    const bool trapped = globalCycle != g0;
    globalCycle = g0 + n;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (c != actor && (!trapped || c > actor))
            atomics[c]->addQuietCycles(trapped ? 1 : n);
    }
    return n;
}

uint64_t
System::run(uint64_t max_cycles)
{
    stopRequested = false;
    uint64_t ran = 0;
    while (ran < max_cycles && !stopRequested) {
        ran += step(max_cycles - ran);
        eventq.serviceUpTo(globalCycle);
        if (allHalted() && eventq.pending() == 0)
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
      case sys::m5DumpStats:
        if (statsDumpStream != nullptr) {
            *statsDumpStream << "---------- Begin Simulation Statistics"
                             << " (cycle " << globalCycle
                             << ") ----------\n";
            rootStats.printAll(*statsDumpStream);
            *statsDumpStream << "---------- End Simulation Statistics"
                             << " ----------\n";
        }
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
    eventq.clear();
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
