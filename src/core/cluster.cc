#include "cluster.hh"

#include "guest/syscall_abi.hh"
#include "sim/logging.hh"
#include "stack/topology.hh"

namespace svb
{

namespace
{

/** The process name deploy() gives @p spec's server or client. */
std::string
processName(const FunctionSpec &spec, unsigned ring_slot, bool client)
{
    return spec.name + (client ? "-client" : "") + (ring_slot ? "#1" : "");
}

} // namespace

ServerlessCluster::ServerlessCluster(const ClusterConfig &config)
    : cfg(config)
{
    buildSystem();
}

void
ServerlessCluster::buildSystem()
{
    nWorkBegin = nWorkEnd = nReady = 0;
    nSlotWorkEnd[0] = nSlotWorkEnd[1] = 0;
    workBeginCycle = workEndCycle = 0;
    stopAtWorkEnds = ~uint64_t(0);
    stopSlot = -1;
    resetOnBegin = false;
    resetOnBeginSlot = -1;
    beginSnap.clear();
    machine = std::make_unique<System>(cfg.system);
    machine->setM5Listener(this);

    // Shared ring region: one allocation, identical across rebuilds
    // because the frame allocator is deterministic.
    ringsPhys = machine->frames().allocFrames(topo::sharedRegionBytes /
                                          paging::pageSize);
    machine->phys().clearRange(ringsPhys, topo::sharedRegionBytes);
}

int
ServerlessCluster::loadContainer(const LoadableImage &image,
                                 const std::string &name, int core)
{
    const int pid = loadProcess(machine->kernel(), image, name, core).pid;
    mapSharedInto(machine->kernel(), pid, layout::sharedBase, ringsPhys,
                  topo::sharedRegionBytes);
    return pid;
}

void
ServerlessCluster::createStoreContainers()
{
    if (cfg.startDb) {
        db::DbParams params;
        params.kind = cfg.dbKind;
        params.reqRingVa = topo::dbReqRingVa;
        loadContainer(db::buildDbProgram(params, cfg.system.isa),
                      db::dbKindName(cfg.dbKind), topo::clientCore);
    }
    if (cfg.startMemcached) {
        db::DbParams params;
        params.kind = db::DbKind::Memcached;
        params.reqRingVa = topo::mcReqRingVa;
        loadContainer(db::buildDbProgram(params, cfg.system.isa),
                      "memcached", topo::clientCore);
    }
}

void
ServerlessCluster::boot()
{
    if (baseline.has_value())
        return;

    buildSystem();
    createStoreContainers();
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
    const IsaId isa = cfg.system.isa;
    Deployment dep;
    dep.serverPid =
        loadContainer(buildServerProgram(spec, impl, isa, ring_slot),
                      processName(spec, ring_slot, false), topo::serverCore);
    dep.clientPid =
        loadContainer(buildClientProgram(spec, impl, isa, ring_slot),
                      processName(spec, ring_slot, true), topo::clientCore);
    resetFunctionRings();
    machine->scheduleIdleCores();
    return dep;
}

ServerlessCluster::Deployment
ServerlessCluster::deployed(const FunctionSpec &spec, unsigned ring_slot)
{
    const GuestKernel &kernel = machine->kernel();
    Deployment dep;
    dep.serverPid = kernel.findProcess(processName(spec, ring_slot, false));
    dep.clientPid = kernel.findProcess(processName(spec, ring_slot, true));
    svb_assert(dep.serverPid >= 0 && dep.clientPid >= 0, spec.name,
               " is not deployed in ring slot ", ring_slot);
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
