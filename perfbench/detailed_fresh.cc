/**
 * @file
 * Workload "detailed-fresh": the Figure-4.1 protocol from scratch.
 *
 * One op is one experiment, ExperimentRunner::run(RunMode::Detailed),
 * on a fresh runner and an empty checkpoint store: construct and boot
 * the cluster, start and settle the container on the Atomic CPU,
 * publish the prepared checkpoint, measure a cold request on the O3
 * CPU, warm functionally through requests 2-9, measure request 10 on
 * O3. The op list covers the Go, Python and Node tiers of the
 * standalone and online-shop functions on both ISAs, plus one hotel
 * function per ISA so the database and memcached containers boot.
 *
 * Set-up builds every op's workload images (server, client and store
 * programs), the cost deploy() and boot() pay again inside each op.
 *
 * The traced round re-drives the same protocol through the public
 * ServerlessCluster / System / CheckpointStore calls with a span
 * around each; its digests must equal the untraced ExperimentRunner
 * ones, which shows the traced path is the real one.
 */

#include <cstring>
#include <filesystem>

#include "core/checkpoint_store.hh"
#include "core/experiment.hh"
#include "db/store_gen.hh"
#include "harness.hh"
#include "stack/topology.hh"
#include "workloads/workloads.hh"

using namespace svb;

namespace svbperf
{

namespace
{

struct Experiment
{
    IsaId isa;
    const char *function;
    bool stores; ///< boots the database and memcached containers
};

const std::vector<Experiment> kExperiments = {
    {IsaId::Riscv, "fibonacci-go", false},
    {IsaId::Riscv, "auth-python", false},
    {IsaId::Riscv, "aes-nodejs", false},
    {IsaId::Riscv, "productcatalog-go", false},
    {IsaId::Riscv, "currency-nodejs", false},
    {IsaId::Riscv, "user", true},
    {IsaId::Cx86, "auth-go", false},
    {IsaId::Cx86, "shipping-go", false},
    {IsaId::Cx86, "emailservice-P", false},
    {IsaId::Cx86, "fibonacci-nodejs", false},
    {IsaId::Cx86, "reservation", true},
};

/** Host seconds of one round on the reference host; at least two
 *  rounds, so a run has more than 20 ops and its tail (the op with
 *  ten beyond it) lies above the median. */
constexpr double kRoundSeconds = 12.5;
constexpr unsigned kMinRounds = 2;

std::string
opName(const Experiment &e)
{
    return std::string(isaName(e.isa)) + "/" + e.function;
}

void
addStats(Digest &d, const RequestStats &rs)
{
    d.add(rs.cycles);
    d.add(rs.insts);
    d.add(rs.uops);
    uint64_t cpi_bits = 0;
    static_assert(sizeof(cpi_bits) == sizeof(rs.cpi));
    std::memcpy(&cpi_bits, &rs.cpi, sizeof(cpi_bits));
    d.add(cpi_bits);
    d.add(rs.l1iMisses);
    d.add(rs.l1dMisses);
    d.add(rs.l2Misses);
    d.add(rs.branches);
    d.add(rs.branchMispredicts);
    d.add(rs.itlbMisses);
    d.add(rs.dtlbMisses);
    for (unsigned c = 0; c < numStallCauses; ++c)
        d.add(rs.stalls[c]);
}

uint64_t
resultDigest(const FunctionResult &res)
{
    Digest d;
    d.add(res.name);
    d.add(uint64_t(res.ok));
    addStats(d, res.cold);
    addStats(d, res.warm);
    return d.value();
}

/** Set-up: build every op's workload images once. */
void
buildImages()
{
    for (const Experiment &e : kExperiments) {
        const FunctionSpec spec = functionNamed(e.function);
        const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
        buildServerProgram(spec, impl, e.isa);
        buildClientProgram(spec, impl, e.isa);
        if (e.stores) {
            // The two store containers ServerlessCluster boots.
            db::DbParams params;
            params.reqRingVa = topo::dbReqRingVa;
            db::buildDbProgram(params, e.isa);
            params.kind = db::DbKind::Memcached;
            params.reqRingVa = topo::mcReqRingVa;
            db::buildDbProgram(params, e.isa);
        }
    }
}

/** The untraced op: the runner's own protocol. */
FunctionResult
runExperiment(const Experiment &e)
{
    const FunctionSpec spec = functionNamed(e.function);
    RunSpec rs;
    rs.mode = RunMode::Detailed;
    rs.spec = spec;
    rs.impl = &workloads::workloadImpl(spec.workload);
    rs.platform = chapter4Config(e.isa, e.stores);
    ExperimentRunner runner(rs.platform);
    return std::get<FunctionResult>(runner.run(rs));
}

RequestStats
measureServerCore(ServerlessCluster &cl, bool &ok)
{
    const obs::StatSnapshot delta = obs::delta(
        cl.workBeginSnapshot(), obs::snapshot(cl.system().stats()));
    RequestStats rs = RequestStats::fromStatDelta(
        delta, "system.cpu" + std::to_string(topo::serverCore) + ".o3.",
        "system.core" + std::to_string(topo::serverCore) + ".");
    ok = ok && rs.stallTotal() == rs.cycles;
    return rs;
}

double
msSince(uint64_t t0)
{
    return double(nowNs() - t0) / 1e6;
}

/**
 * The traced op: ExperimentRunner's fresh-store protocol, call for
 * call, with a span around each public call and per-layer samples.
 */
FunctionResult
runTraced(const Experiment &e, uint64_t op, Spans &spans, LayerStats &ls)
{
    const FunctionSpec spec = functionNamed(e.function);
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    const ClusterConfig cfg = chapter4Config(e.isa, e.stores);
    CheckpointStore &store = CheckpointStore::global();
    FunctionResult res;
    res.name = spec.name;
    Scope root(spans, "op", op);

    std::unique_ptr<ServerlessCluster> cl;
    uint64_t t = nowNs();
    {
        Scope s(spans, "cluster.construct", op);
        cl = std::make_unique<ServerlessCluster>(cfg);
    }
    ls.sample("cluster.construct_ms", msSince(t));
    // The store is empty, so the lookup claims the fingerprint and the
    // op prepares from scratch, exactly as ExperimentRunner::prepare.
    const std::string fp = CheckpointStore::fingerprint(cfg, spec);
    bool claimed = false;
    {
        Scope s(spans, "ckpt.acquire", op);
        if (store.acquire(fp, &claimed) != nullptr || !claimed)
            return res;
    }
    t = nowNs();
    {
        Scope s(spans, "cluster.boot", op);
        cl->boot();
    }
    if (e.stores)
        ls.sample("cluster.boot_ms", msSince(t));
    t = nowNs();
    {
        Scope s(spans, "cluster.reset", op);
        cl->resetToBaseline();
    }
    ls.sample("cluster.reset_ms", msSince(t));

    ServerlessCluster::Deployment dep;
    bool ok = false;
    t = nowNs();
    {
        Scope s(spans, "cluster.container_start", op);
        dep = cl->deploy(spec, impl);
        ok = cl->runUntilReady(1);
        cl->system().run(5'000);
    }
    ls.sample("cluster.container_start_ms", msSince(t));
    if (!ok)
        return res;

    Checkpoint cp;
    t = nowNs();
    {
        Scope s(spans, "ckpt.save", op);
        cp = cl->savePrepared();
    }
    ls.sample("ckpt.save_ms", msSince(t));
    t = nowNs();
    {
        Scope s(spans, "ckpt.publish", op);
        store.publish(fp, std::move(cp));
    }
    ls.sample("ckpt.publish_ms", msSince(t));
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(store.pathFor(fp), ec);
    ls.sample("ckpt.bytes", ec ? 0.0 : double(bytes));

    System &m = cl->system();
    m.phys().startTouchRecording();
    uint64_t c0 = m.cycle();
    t = nowNs();
    {
        Scope s(spans, "o3.cold_req", op);
        m.switchCpu(topo::clientCore, CpuModel::O3);
        m.switchCpu(topo::serverCore, CpuModel::O3);
        m.flushMicroarchState();
        cl->armStatResetOnWorkBegin();
        cl->openClientGate(dep);
        ok = cl->runUntilWorkEnds(1);
    }
    ls.sample("o3.cold_req_ms", msSince(t));
    ls.addSum("o3.ns", double(nowNs() - t));
    ls.addSum("o3.cycles", double(m.cycle() - c0));
    if (!ok)
        return res;
    {
        Scope s(spans, "ckpt.attach_ws", op);
        store.attachWorkingSet(fp, m.phys().stopTouchRecording());
    }
    res.cold = measureServerCore(*cl, ok);

    const uint64_t i0 = atomicInsts(m);
    t = nowNs();
    {
        Scope s(spans, "atomic.warming", op);
        m.switchCpu(topo::clientCore, CpuModel::Atomic);
        m.switchCpu(topo::serverCore, CpuModel::Atomic);
        ok = ok && cl->runUntilWorkEnds(9);
    }
    const double warm_s = double(nowNs() - t) / 1e9;
    ls.sample("atomic.warming_s", warm_s);
    ls.addSum("atomic.warming_s", warm_s);
    ls.addSum("atomic.warming_insts", double(atomicInsts(m) - i0));
    if (!ok)
        return res;

    c0 = m.cycle();
    t = nowNs();
    {
        Scope s(spans, "o3.warm_req", op);
        m.switchCpu(topo::clientCore, CpuModel::O3);
        m.switchCpu(topo::serverCore, CpuModel::O3);
        cl->armStatResetOnWorkBegin();
        ok = cl->runUntilWorkEnds(10);
    }
    ls.sample("o3.warm_req_ms", msSince(t));
    ls.addSum("o3.ns", double(nowNs() - t));
    ls.addSum("o3.cycles", double(m.cycle() - c0));
    if (!ok)
        return res;
    res.warm = measureServerCore(*cl, ok);
    res.ok = ok;
    {
        Scope s(spans, "cluster.teardown", op);
        cl.reset();
    }
    return res;
}

/** One round in seeded order; with @p ls, each op runs untraced and
 *  then traced. */
RoundTimes
runRound(const RunArgs &args, unsigned round, uint64_t order_seed,
         Spans &spans, LayerStats *ls)
{
    const std::string store_dir = args.workdir + "/ckpt";
    RoundTimes times;
    for (size_t idx : permutation(kExperiments.size(), order_seed)) {
        const Experiment &e = kExperiments[idx];
        for (bool traced : {false, true}) {
            if (traced && ls == nullptr)
                break;
            freshStore(store_dir);
            const uint64_t t0 = nowNs();
            const FunctionResult res =
                traced ? runTraced(e, round * 1000 + idx, spans, *ls)
                       : runExperiment(e);
            const uint64_t dt = nowNs() - t0;
            (traced ? times.tracedS : times.plainS) += double(dt) / 1e9;
            opRecord(round, opName(e), dt, res.ok, resultDigest(res));
        }
    }
    return times;
}

} // namespace

void
runDetailedFresh(const RunArgs &args, Spans &spans)
{
    for (unsigned rep = 0; rep < args.setupReps; ++rep) {
        SetupTimer timer;
        buildImages();
        timer.finish();
    }

    if (!args.trace) {
        const unsigned rounds =
            roundsFor(args.seconds, kRoundSeconds, kMinRounds);
        const uint64_t p0 = phaseStart();
        for (unsigned r = 0; r < rounds; ++r)
            runRound(args, r, args.seed * 1000003 + r, spans, nullptr);
        phaseRecord(p0);
        return;
    }

    LayerStats ls;
    overheadMetric(args.workload,
                   runRound(args, 0, args.seed * 1000003, spans, &ls));
    for (const char *name :
         {"cluster.construct_ms", "cluster.boot_ms", "cluster.reset_ms",
          "cluster.container_start_ms", "ckpt.save_ms", "ckpt.publish_ms",
          "o3.cold_req_ms", "o3.warm_req_ms"})
        metric(name, ls.median(name), "ms");
    metric("ckpt.bytes", ls.median("ckpt.bytes"), "B");
    metric("o3.mcycles_per_s",
           ls.sum("o3.cycles") / 1e6 / (ls.sum("o3.ns") / 1e9), "Mcycles/s");
    metric("atomic.warming_s", ls.median("atomic.warming_s"), "s");
    metric("atomic.warming_mips",
           ls.sum("atomic.warming_insts") / 1e6 / ls.sum("atomic.warming_s"),
           "MIPS");
}

} // namespace svbperf
