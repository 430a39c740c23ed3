#include "cluster.hh"

#include "guest/syscall_abi.hh"
#include "sim/logging.hh"
#include "stack/topology.hh"

namespace svb
{

ServerlessCluster::ServerlessCluster(const ClusterConfig &config)
    : cfg(config)
{
    buildSystem();
}

void
ServerlessCluster::buildSystem()
{
    machine = std::make_unique<System>(cfg.system);
    machine->setM5Listener(this);

    // Shared ring region: one allocation, identical across rebuilds
    // because the frame allocator is deterministic.
    ringsPhys = machine->frames().allocFrames(topo::sharedRegionBytes /
                                          paging::pageSize);
    machine->phys().clearRange(ringsPhys, topo::sharedRegionBytes);

    createStoreContainers();
}

void
ServerlessCluster::createStoreContainers()
{
    dbPid = -1;
    mcPid = -1;
    if (cfg.startDb) {
        db::DbParams params;
        params.kind = cfg.dbKind;
        params.reqRingVa = topo::dbReqRingVa;
        LoadableImage image = db::buildDbProgram(params, cfg.system.isa);
        LoadedProgram lp =
            loadProcess(machine->kernel(), image,
                        std::string(db::dbKindName(cfg.dbKind)),
                        topo::clientCore);
        dbPid = lp.pid;
        mapSharedInto(machine->kernel(), dbPid, layout::sharedBase, ringsPhys,
                      topo::sharedRegionBytes);
    }
    if (cfg.startMemcached) {
        db::DbParams params;
        params.kind = db::DbKind::Memcached;
        params.reqRingVa = topo::mcReqRingVa;
        LoadableImage image = db::buildDbProgram(params, cfg.system.isa);
        LoadedProgram lp = loadProcess(machine->kernel(), image, "memcached",
                                       topo::clientCore);
        mcPid = lp.pid;
        mapSharedInto(machine->kernel(), mcPid, layout::sharedBase, ringsPhys,
                      topo::sharedRegionBytes);
    }
}

void
ServerlessCluster::boot()
{
    if (baseline.has_value())
        return;

    // A runner whose first experiments all restored from prepared
    // checkpoints never booted; its machine has run (deployments,
    // advanced clock) and must be rebuilt before the store bootstraps
    // execute on it.
    if (machine->cycle() != 0)
        buildSystem();

    const uint64_t expected_ready =
        (cfg.startDb ? 1u : 0u) + (cfg.startMemcached ? 1u : 0u);
    machine->scheduleIdleCores();
    if (expected_ready > 0) {
        if (!runUntilReady(expected_ready))
            svb_fatal("store containers failed to boot");
        // Drain until both stores are parked in their receive loops.
        machine->run(20'000);
    }
    baseline = machine->saveCheckpoint();
}

void
ServerlessCluster::resetToBaseline()
{
    svb_assert(baseline.has_value(), "resetToBaseline before boot()");
    nWorkBegin = nWorkEnd = nReady = 0;
    nSlotWorkEnd[0] = nSlotWorkEnd[1] = 0;
    workBeginCycle = workEndCycle = 0;
    stopAtWorkEnds = ~uint64_t(0);
    stopSlot = -1;
    resetOnBegin = false;
    resetOnBeginSlot = -1;
    beginSnap.clear();
    buildSystem();
    machine->restoreCheckpoint(*baseline);
}

Checkpoint
ServerlessCluster::savePrepared() const
{
    Checkpoint cp = machine->saveCheckpoint(/*include_uarch=*/true);
    cp.setScalar("cluster.nWorkBegin", nWorkBegin);
    cp.setScalar("cluster.nWorkEnd", nWorkEnd);
    cp.setScalar("cluster.nSlotWorkEnd0", nSlotWorkEnd[0]);
    cp.setScalar("cluster.nSlotWorkEnd1", nSlotWorkEnd[1]);
    cp.setScalar("cluster.nReady", nReady);
    cp.setScalar("cluster.workBeginCycle", workBeginCycle);
    cp.setScalar("cluster.workEndCycle", workEndCycle);
    return cp;
}

void
ServerlessCluster::beginRestore()
{
    nWorkBegin = nWorkEnd = nReady = 0;
    nSlotWorkEnd[0] = nSlotWorkEnd[1] = 0;
    workBeginCycle = workEndCycle = 0;
    stopAtWorkEnds = ~uint64_t(0);
    stopSlot = -1;
    resetOnBegin = false;
    resetOnBeginSlot = -1;
    beginSnap.clear();
    buildSystem();
}

void
ServerlessCluster::finishRestore(const Checkpoint &cp,
                                 std::shared_ptr<const PageImage> image)
{
    machine->restoreCheckpoint(cp, std::move(image));
    nWorkBegin = cp.getScalar("cluster.nWorkBegin");
    nWorkEnd = cp.getScalar("cluster.nWorkEnd");
    nSlotWorkEnd[0] = cp.getScalar("cluster.nSlotWorkEnd0");
    nSlotWorkEnd[1] = cp.getScalar("cluster.nSlotWorkEnd1");
    nReady = cp.getScalar("cluster.nReady");
    workBeginCycle = cp.getScalar("cluster.workBeginCycle");
    workEndCycle = cp.getScalar("cluster.workEndCycle");
}

ServerlessCluster::Deployment
ServerlessCluster::deploy(const FunctionSpec &spec,
                          const WorkloadImpl &impl, unsigned ring_slot)
{
    Deployment dep;
    {
        LoadableImage image =
            buildServerProgram(spec, impl, cfg.system.isa, ring_slot);
        LoadedProgram lp = loadProcess(machine->kernel(), image,
                                       spec.name + (ring_slot ? "#1" : ""),
                                       topo::serverCore);
        dep.serverPid = lp.pid;
        mapSharedInto(machine->kernel(), dep.serverPid, layout::sharedBase,
                      ringsPhys, topo::sharedRegionBytes);
    }
    {
        LoadableImage image =
            buildClientProgram(spec, impl, cfg.system.isa, ring_slot);
        LoadedProgram lp = loadProcess(machine->kernel(), image,
                                       spec.name + "-client" +
                                           (ring_slot ? "#1" : ""),
                                       topo::clientCore);
        dep.clientPid = lp.pid;
        mapSharedInto(machine->kernel(), dep.clientPid, layout::sharedBase,
                      ringsPhys, topo::sharedRegionBytes);
    }
    resetFunctionRings();
    machine->scheduleIdleCores();
    return dep;
}

void
ServerlessCluster::openClientGate(const Deployment &deployment)
{
    AddressSpace &as = *machine->kernel().process(deployment.clientPid).space;
    as.write(layout::heapBase, 1, 8);
}

void
ServerlessCluster::resetFunctionRings()
{
    // Client<->server ring pairs: pages 0-1 (slot 0) and 6-7 (slot 1).
    machine->phys().clearRange(ringsPhys, 2 * 0x1000);
    machine->phys().clearRange(ringsPhys + 6 * 0x1000, 2 * 0x1000);
}

bool
ServerlessCluster::runUntilCount(const uint64_t &count, uint64_t target)
{
    while (count < target) {
        const uint64_t ran = machine->run(cfg.phaseCycleLimit);
        if (count >= target)
            break;
        // run() stopped short of the target: a hang if it used the
        // whole phase budget or if no core can run any more; otherwise
        // a stop request for an earlier target.
        if (ran >= cfg.phaseCycleLimit || machine->allHalted())
            return false;
    }
    return true;
}

bool
ServerlessCluster::runUntilSlotWorkEnds(unsigned slot, uint64_t target)
{
    stopAtWorkEnds = target;
    stopSlot = int(slot & 1);
    if (!runUntilCount(nSlotWorkEnd[slot & 1], target))
        return false;
    stopAtWorkEnds = ~uint64_t(0);
    stopSlot = -1;
    return true;
}

bool
ServerlessCluster::runUntilWorkEnds(uint64_t target)
{
    stopAtWorkEnds = target;
    stopSlot = -1;
    if (!runUntilCount(nWorkEnd, target))
        return false;
    stopAtWorkEnds = ~uint64_t(0);
    return true;
}

bool
ServerlessCluster::runUntilReady(uint64_t target_events)
{
    return runUntilCount(nReady, target_events);
}

void
ServerlessCluster::m5Op(int core_id, uint64_t op, uint64_t arg)
{
    (void)core_id;
    switch (op) {
      case sys::m5WorkBegin: {
        ++nWorkBegin;
        workBeginCycle = machine->cycle();
        const int slot = int(arg >> 32) & 1;
        if (resetOnBegin &&
            (resetOnBeginSlot < 0 || resetOnBeginSlot == slot)) {
            machine->stats().resetAll();
            // Post-reset snapshot: the measured request's stats are a
            // delta against this (an all-zero baseline, so the delta
            // reproduces the legacy absolute readings bit-for-bit).
            beginSnap = machine->stats().snapshotAll();
            resetOnBegin = false;
        }
        break;
      }
      case sys::m5WorkEnd: {
        ++nWorkEnd;
        const unsigned slot = unsigned(arg >> 32) & 1;
        ++nSlotWorkEnd[slot];
        workEndCycle = machine->cycle();
        if (traceTrack != obs::badTrack) {
            obs::Tracer::global().record(
                traceTrack, "request#" + std::to_string(nWorkEnd), "request",
                workBeginCycle, workEndCycle - workBeginCycle);
        }
        const uint64_t relevant =
            stopSlot < 0 ? nWorkEnd : nSlotWorkEnd[unsigned(stopSlot)];
        if ((stopSlot < 0 || stopSlot == int(slot)) &&
            relevant >= stopAtWorkEnds)
            machine->requestStop();
        break;
      }
      case sys::m5Event:
        if (arg == db::dbReadyEvent || arg == containerReadyEvent) {
            ++nReady;
            machine->requestStop();
        }
        break;
      default:
        break;
    }
}

} // namespace svb
