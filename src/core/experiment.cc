#include "experiment.hh"

#include <sstream>

#include "checkpoint_store.hh"
#include "isa/isa_info.hh"
#include "sim/logging.hh"
#include "stack/topology.hh"

namespace svb
{

const char *
runModeName(RunMode mode)
{
    switch (mode) {
      case RunMode::Detailed: return "o3";
      case RunMode::Emu:      return "emu";
      case RunMode::LoadCal:  return "ldcal";
    }
    return "?";
}

std::string
trackName(const ClusterConfig &platform, const std::string &subject,
          const char *kind)
{
    std::ostringstream os;
    os << isaName(platform.system.isa) << "/"
       << db::dbKindName(platform.dbKind) << (platform.startDb ? 1 : 0)
       << (platform.startMemcached ? 1 : 0) << "/" << subject << "/"
       << kind;
    return os.str();
}

bool
runResultOk(const RunResult &result)
{
    return std::visit([](const auto &r) { return r.ok; }, result);
}

RequestStats
RequestStats::fromStatDelta(const obs::StatSnapshot &delta,
                            const std::string &cpu_prefix,
                            const std::string &mem_prefix)
{
    return read([&](const std::string &, const std::string &stat,
                    bool mem) {
        return uint64_t(
            obs::statValue(delta, (mem ? mem_prefix : cpu_prefix) + stat));
    });
}

ExperimentRunner::ExperimentRunner(const ClusterConfig &config)
    : cfg(config), clusterPtr(std::make_unique<ServerlessCluster>(config))
{
}

ExperimentRunner::~ExperimentRunner() = default;

void
ExperimentRunner::beginTrace(const FunctionSpec &spec, const char *mode)
{
    curName = trackName(cfg, spec.name, mode);
    curTrack = obs::Tracer::global().track(curName);
    clusterPtr->setTraceTrack(curTrack);
}

void
ExperimentRunner::span(const std::string &name, const std::string &cat,
                       uint64_t start, uint64_t end)
{
    if (curTrack != obs::badTrack && end >= start)
        obs::Tracer::global().record(curTrack, name, cat, start,
                                     end - start);
}

std::vector<ServerlessCluster::Deployment>
ExperimentRunner::prepare(const FunctionSpec &spec, const WorkloadImpl &impl,
                          const FunctionSpec *interferer,
                          const WorkloadImpl *interferer_impl)
{
    ServerlessCluster &cl = *clusterPtr;
    CheckpointStore &store = CheckpointStore::global();
    pendingWsFp.clear();
    const std::string fp =
        CheckpointStore::fingerprint(cfg, spec, interferer);
    bool claimed = false;
    std::shared_ptr<const Checkpoint> cp;
    if (store.enabled())
        cp = store.acquire(fp, &claimed);
    if (cp != nullptr) {
        // Restore-many: the snapshot holds the deployed processes too.
        // Working-set aware when the REAP gate is on and the snapshot
        // carries a page table.
        cl.beginRestore();
        std::shared_ptr<const PageImage> img;
        if (cl.system().reapEnabled())
            img = store.imageFor(fp, *cp);
        cl.finishRestore(*cp, img);
        PhysMemory &phys = cl.system().phys();
        if (curTrack != obs::badTrack) {
            obs::Tracer::global().record(
                curTrack, "restore", "phase", cl.system().cycle(), 0,
                {{"mode", img != nullptr ? "reap" : "full"},
                 {"imagePages", std::to_string(phys.imagePages())},
                 {"prefetchedPages",
                  std::to_string(phys.prefetchedPages())},
                 {"residentPages",
                  std::to_string(phys.residentImagePages())}});
        }
        armWorkingSetCapture(fp, cp.get());
        std::vector<ServerlessCluster::Deployment> deps = {
            cl.deployed(spec, 0)};
        if (interferer != nullptr)
            deps.push_back(cl.deployed(*interferer, 1));
        return deps;
    }

    // First preparation of this tuple anywhere, or no store: do the
    // real work once and publish the settle-point snapshot. A reused
    // runner keeps its booted baseline and records no boot span.
    const bool fresh_boot = !cl.booted();
    cl.boot();
    if (fresh_boot)
        span("boot", "phase", 0, cl.system().cycle());
    cl.resetToBaseline();
    std::vector<ServerlessCluster::Deployment> deps = {
        cl.deploy(spec, impl, 0)};
    if (interferer != nullptr)
        deps.push_back(cl.deploy(*interferer, *interferer_impl, 1));
    // Container boot on the Atomic CPU, up to the readiness reports.
    const uint64_t start_begin = cl.system().cycle();
    const bool ok = cl.runUntilReady(deps.size());
    span("container-start", "phase", start_begin, cl.system().cycle());
    if (!ok) {
        if (claimed)
            store.release(fp);
        return {};
    }
    // Let the servers settle into their receive loops.
    const uint64_t settle_begin = cl.system().cycle();
    cl.system().run(5'000);
    span("settle", "phase", settle_begin, cl.system().cycle());
    if (claimed) {
        store.publish(fp, cl.savePrepared());
        armWorkingSetCapture(fp, nullptr);
    }
    return deps;
}

void
ExperimentRunner::armWorkingSetCapture(const std::string &fp,
                                       const Checkpoint *cp)
{
    // Only fingerprints without a recorded working set need one; the
    // capture sends the first access to each page through PhysMemory's
    // slow path until the cold request completes.
    if (cp != nullptr && cp->hasBlob("mem.ws"))
        return;
    pendingWsFp = fp;
    clusterPtr->system().phys().startTouchRecording();
}

void
ExperimentRunner::noteColdRequestDone()
{
    if (pendingWsFp.empty())
        return;
    PhysMemory &phys = clusterPtr->system().phys();
    CheckpointStore::global().attachWorkingSet(pendingWsFp,
                                               phys.stopTouchRecording());
    pendingWsFp.clear();
}

uint64_t
ExperimentRunner::cyclesToNs(uint64_t cycles) const
{
    // One cycle is 1000/clockMHz ns (exactly 1 ns at the default
    // 1 GHz, so results cached before this conversion stay valid).
    return cycles * 1000 / cfg.system.clockMHz;
}

RequestStats
ExperimentRunner::measureServerCore(const char *phase) const
{
    ServerlessCluster &cl = *clusterPtr;
    svb_assert(!cl.statResetArmed(),
               "measured request began before its stat reset was armed");
    const obs::StatSnapshot now = obs::snapshot(cl.system().stats());
    const obs::StatSnapshot delta =
        obs::delta(cl.workBeginSnapshot(), now);

    const std::string cpu = "system.cpu1.o3.";
    const std::string mem = "system.core1.";
    RequestStats rs = RequestStats::fromStatDelta(delta, cpu, mem);
    // The stall taxonomy partitions the measured cycles: a hole here
    // means a tick path missed its accountCycle() call.
    svb_assert(rs.stallTotal() == rs.cycles,
               "stall-cause attribution does not sum to numCycles");
    obs::dumpRequestStats(curName + "." + phase, delta);
    return rs;
}

FunctionResult
ExperimentRunner::runFunction(const FunctionSpec &spec,
                              const WorkloadImpl &impl)
{
    FunctionResult result;
    result.name = spec.name;
    beginTrace(spec, runModeName(RunMode::Detailed));

    ServerlessCluster &cl = *clusterPtr;
    const auto deps = prepare(spec, impl);
    if (deps.empty()) {
        warn(spec.name, ": container failed to boot");
        return result;
    }
    System &m = cl.system();

    // --- Evaluation mode, request 1 (cold) -------------------------------
    m.switchCpu(topo::clientCore, CpuModel::O3);
    m.switchCpu(topo::serverCore, CpuModel::O3);
    // Checkpoint-restore semantics: detailed runs start with cold
    // caches, TLBs and branch predictors, exactly as in gem5.
    m.flushMicroarchState();
    cl.armStatResetOnWorkBegin();
    cl.openClientGate(deps[0]);
    if (!cl.runUntilWorkEnds(1)) {
        warn(spec.name, ": cold request did not complete");
        return result;
    }
    noteColdRequestDone();
    result.cold = measureServerCore("cold");
    span("cold", "measure", cl.lastWorkBeginCycle(), cl.lastWorkEndCycle());

    // --- Setup mode: functional warming through requests 2..9 ------------
    m.switchCpu(topo::clientCore, CpuModel::Atomic);
    m.switchCpu(topo::serverCore, CpuModel::Atomic);
    const uint64_t warming_begin = cl.lastWorkEndCycle();
    if (!cl.runUntilWorkEnds(9)) {
        warn(spec.name, ": warming requests did not complete");
        return result;
    }
    span("warming", "phase", warming_begin, cl.lastWorkEndCycle());

    // --- Evaluation mode, request 10 (warm) -------------------------------
    m.switchCpu(topo::clientCore, CpuModel::O3);
    m.switchCpu(topo::serverCore, CpuModel::O3);
    cl.armStatResetOnWorkBegin();
    if (!cl.runUntilWorkEnds(10)) {
        warn(spec.name, ": warm request did not complete");
        return result;
    }
    result.warm = measureServerCore("warm");
    span("warm", "measure", cl.lastWorkBeginCycle(), cl.lastWorkEndCycle());
    result.ok = true;
    return result;
}

LukewarmResult
ExperimentRunner::runLukewarm(const FunctionSpec &spec,
                              const WorkloadImpl &impl,
                              const FunctionSpec &interferer,
                              const WorkloadImpl &interferer_impl)
{
    LukewarmResult result;
    result.name = spec.name;
    result.interferer = interferer.name;

    // Baseline: the function's clean warm request.
    const FunctionResult solo = runFunction(spec, impl);
    if (!solo.ok)
        return result;
    result.warm = solo.warm;

    beginTrace(spec, "lukewarm");

    // Interleaved run: both functions share the server core, the
    // interferer in ring slot 1. The two-function settle point gets
    // its own checkpoint, keyed by the (function, interferer) pair.
    const auto deps = prepare(spec, impl, &interferer, &interferer_impl);
    if (deps.empty()) {
        warn(spec.name, ": lukewarm containers failed to boot");
        return result;
    }

    ServerlessCluster &cl = *clusterPtr;
    System &m = cl.system();
    // Warm both functions on the Atomic CPU with their requests
    // interleaving freely through the cooperative scheduler. Both
    // clients start through the explicit per-deployment gate.
    cl.openClientGate(deps[0]);
    cl.openClientGate(deps[1]);
    const uint64_t warming_begin = cl.system().cycle();
    if (!cl.runUntilSlotWorkEnds(0, 9) ||
        !cl.runUntilSlotWorkEnds(1, 9)) {
        warn(spec.name, ": lukewarm warming did not complete");
        return result;
    }
    // The pair checkpoint's working set covers the whole interleaved
    // warming phase — a superset of the cold path, so a later REAP
    // restore prefetches everything the study touches.
    noteColdRequestDone();
    span("warming", "phase", warming_begin, cl.lastWorkEndCycle());

    // Measure, detailed, the first request of the function under test
    // that begins after the switch. Warming the interferer may run
    // past slot 0's next workBegin; that request then ends with the
    // reset still armed, and the measurement runs on to the next one.
    m.switchCpu(topo::clientCore, CpuModel::O3);
    m.switchCpu(topo::serverCore, CpuModel::O3);
    cl.armStatResetOnWorkBegin(/*slot=*/0);
    do {
        if (!cl.runUntilSlotWorkEnds(0, cl.slotWorkEnds(0) + 1)) {
            warn(spec.name, ": lukewarm measurement did not complete");
            return result;
        }
    } while (cl.statResetArmed());
    result.lukewarm = measureServerCore("lukewarm");
    span("lukewarm", "measure", cl.lastWorkBeginCycle(),
         cl.lastWorkEndCycle());
    result.ok = true;
    return result;
}

LoadCalibration
ExperimentRunner::runLoadCalibration(const FunctionSpec &spec,
                                     const WorkloadImpl &impl)
{
    LoadCalibration result;
    result.name = spec.name;
    beginTrace(spec, runModeName(RunMode::LoadCal));

    ServerlessCluster &cl = *clusterPtr;
    const auto deps = prepare(spec, impl);
    if (deps.empty()) {
        warn(spec.name, ": load calibration failed to prepare");
        return result;
    }

    cl.openClientGate(deps[0]);
    if (!cl.runUntilWorkEnds(1))
        return result;
    noteColdRequestDone();
    result.coldNs = cyclesToNs(cl.lastWorkEndCycle() -
                               cl.lastWorkBeginCycle());
    span("cold", "measure", cl.lastWorkBeginCycle(), cl.lastWorkEndCycle());

    for (unsigned k = 0; k < loadWarmSamples; ++k) {
        if (!cl.runUntilWorkEnds(2 + k))
            return result;
        result.warmNs[k] = cyclesToNs(cl.lastWorkEndCycle() -
                                      cl.lastWorkBeginCycle());
        span("warm" + std::to_string(1 + k), "measure",
             cl.lastWorkBeginCycle(), cl.lastWorkEndCycle());
    }
    result.ok = true;
    return result;
}

EmuResult
ExperimentRunner::runFunctionEmu(const FunctionSpec &spec,
                                 const WorkloadImpl &impl,
                                 unsigned warm_request)
{
    EmuResult result;
    result.name = spec.name;
    beginTrace(spec, runModeName(RunMode::Emu));

    ServerlessCluster &cl = *clusterPtr;
    const auto deps = prepare(spec, impl);
    if (deps.empty())
        return result;

    cl.openClientGate(deps[0]);
    if (!cl.runUntilWorkEnds(1))
        return result;
    noteColdRequestDone();
    result.coldNs = cyclesToNs(cl.lastWorkEndCycle() -
                               cl.lastWorkBeginCycle());
    span("cold", "measure", cl.lastWorkBeginCycle(), cl.lastWorkEndCycle());

    if (!cl.runUntilWorkEnds(warm_request))
        return result;
    result.warmNs = cyclesToNs(cl.lastWorkEndCycle() -
                               cl.lastWorkBeginCycle());
    span("warm", "measure", cl.lastWorkBeginCycle(), cl.lastWorkEndCycle());
    result.ok = true;
    return result;
}

RunResult
ExperimentRunner::run(const RunSpec &rs)
{
    svb_assert(rs.impl != nullptr, "RunSpec without a workload impl");
    switch (rs.mode) {
      case RunMode::Detailed:
        return runFunction(rs.spec, *rs.impl);
      case RunMode::Emu:
        return runFunctionEmu(rs.spec, *rs.impl, rs.options.warmRequest);
      case RunMode::LoadCal:
        return runLoadCalibration(rs.spec, *rs.impl);
    }
    svb_fatal("unreachable RunMode");
}

} // namespace svb
