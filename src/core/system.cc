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
            *guestKernel, core_group, sblocks.get()));
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
System::tickCore(unsigned c)
{
    // Atomic-model cores step through the superblock engine when the
    // fast tier is enabled and no trace sink needs per-retirement
    // callbacks; tickFast() is cycle-for-cycle identical to tick().
    // Both models are final, so these are direct calls.
    if (models[c] == CpuModel::O3) {
        O3Cpu &o3 = *o3s[c];
        o3.tick();
        return !o3.halted();
    }
    AtomicCpu &atomic = *atomics[c];
    if (fastWarm && !atomic.tracing())
        atomic.tickFast();
    else
        atomic.tick();
    return !atomic.halted();
}

uint64_t
System::run(uint64_t max_cycles)
{
    stopRequested = false;
    uint64_t ran = 0;
    while (ran < max_cycles && !stopRequested) {
        // Fast-path eligibility, re-evaluated every iteration: model
        // switches, halts and trace sinks only change inside trap
        // handlers or between run() calls, both of which end the
        // chained batch below.
        bool all_atomic_fast = fastWarm;
        unsigned n_active = 0;
        unsigned active_core = 0;
        for (unsigned c = 0; c < cfg.numCores && all_atomic_fast; ++c) {
            if (models[c] != CpuModel::Atomic || atomics[c]->tracing()) {
                all_atomic_fast = false;
            } else if (!atomics[c]->halted()) {
                ++n_active;
                active_core = c;
            }
        }

        if (all_atomic_fast && n_active == 1) {
            // Chained superblock execution on the single runnable
            // core: stay inside the dispatch loop until the budget, a
            // trap, or the next pending event — nothing inside a batch
            // schedules events, so the clamp below keeps event
            // delivery on its exact per-cycle tick. Halted cores are
            // credited idle cycles in bulk; the mid-cycle interleaving
            // a trap handler could observe is reconstructed by
            // pre_trap before the handler runs.
            uint64_t budget = max_cycles - ran;
            if (eventq.pending() > 0) {
                const Tick next_ev = eventq.nextEventTick();
                svb_assert(next_ev > globalCycle, "overdue event");
                budget =
                    std::min<uint64_t>(budget, next_ev - globalCycle);
            }
            const unsigned k = active_core;
            const uint64_t g0 = globalCycle;
            bool trapped = false;
            const AtomicCpu::PreTrap pre_trap = [&](uint64_t batch) {
                // On the per-cycle path, cycle g0+batch would have
                // ticked cores 0..k-1 (idle) before core k traps and
                // cores k+1.. only on the batch's earlier cycles.
                trapped = true;
                globalCycle = g0 + batch;
                for (unsigned c = 0; c < cfg.numCores; ++c) {
                    if (c < k)
                        atomics[c]->addIdleCycles(batch);
                    else if (c > k)
                        atomics[c]->addIdleCycles(batch - 1);
                }
            };
            const uint64_t consumed =
                atomics[k]->runFast(budget, &pre_trap);
            globalCycle = g0 + consumed;
            ran += consumed;
            // Idle top-up to exactly `consumed` per halted core: after
            // a trap, cores above k still owe the trapping cycle; with
            // no trap, pre_trap never ran and everyone owes the batch.
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                if (c == k)
                    continue;
                if (trapped) {
                    if (c > k)
                        atomics[c]->addIdleCycles(1);
                } else {
                    atomics[c]->addIdleCycles(consumed);
                }
            }
            eventq.serviceUpTo(globalCycle);
            bool any_active = false;
            for (unsigned c = 0; c < cfg.numCores; ++c)
                any_active |= !cpu(c).halted();
            if (!any_active && eventq.pending() == 0)
                break;
            continue;
        }

        if (all_atomic_fast && n_active == 0 && eventq.pending() > 0) {
            // Everyone is halted but an event is due: jump straight to
            // it, crediting the skipped cycles as idle — byte-identical
            // to ticking every core through its halted branch.
            const Tick next_ev = eventq.nextEventTick();
            svb_assert(next_ev > globalCycle, "overdue event");
            const uint64_t skip = std::min<uint64_t>(max_cycles - ran,
                                                     next_ev - globalCycle);
            globalCycle += skip;
            ran += skip;
            for (unsigned c = 0; c < cfg.numCores; ++c)
                atomics[c]->addIdleCycles(skip);
            eventq.serviceUpTo(globalCycle);
            bool any_active = false;
            for (unsigned c = 0; c < cfg.numCores; ++c)
                any_active |= !cpu(c).halted();
            if (!any_active && eventq.pending() == 0)
                break;
            continue;
        }

        // Per-cycle path: detailed cores present, several Atomic cores
        // runnable at once (shared-ring polling needs cycle-accurate
        // interleaving), or the final all-idle drain.
        ++globalCycle;
        ++ran;
        bool any_active = false;
        for (unsigned c = 0; c < cfg.numCores; ++c)
            any_active |= tickCore(c);
        eventq.serviceUpTo(globalCycle);
        if (!any_active && eventq.pending() == 0)
            break;
    }
    return ran;
}

uint64_t
System::runUntil(const std::function<bool()> &cond, uint64_t max_cycles)
{
    stopRequested = false;
    uint64_t ran = 0;
    while (ran < max_cycles && !stopRequested && !cond()) {
        // @p cond must be evaluated between cycles, so no chaining
        // here; the superblock engine still accelerates each step.
        ++globalCycle;
        ++ran;
        bool any_active = false;
        for (unsigned c = 0; c < cfg.numCores; ++c)
            any_active |= tickCore(c);
        eventq.serviceUpTo(globalCycle);
        if (!any_active && eventq.pending() == 0)
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
        decoder->serializeState("decode.", cp);
        sblocks->serializeState("superblock.", cp);
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
    globalCycle = cp.getScalar("system.cycle");
    eventq.clear();
    // Superblocks lower code from the pre-restore physical memory;
    // drop them all. setContext() below resets every core's cursor.
    sblocks->clear();
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
    // the Atomic TLBs, so they are repopulated here; physical memory
    // is already restored, so the decode cache can re-decode.
    decoder->unserializeState("decode.", cp);
    // Older (or published, see CheckpointStore) snapshots carry no
    // superblock anchors; the cache then re-forms lazily, which is
    // functionally identical — blocks hold no guest state.
    if (cp.hasBlob("superblock.paddrs"))
        sblocks->unserializeState("superblock.", cp);
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
