/**
 * @file
 * Workload "coldstart-churn": repeated snapshot cold starts.
 *
 * Set-up prepares the snapshot and cold-request working set of every
 * standalone function on both ISAs (one Atomic emulation run each on
 * an empty checkpoint store) and constructs the long-lived clusters:
 * one per ISA and restore mode, the mode chosen through
 * SystemConfig::reapRestore (a System latches it at construction).
 *
 * One op is one cold start on its mode's cluster: acquire the
 * snapshot, beginRestore (rebuild the System), deploy (recompile and
 * load the images), finishRestore (full copy-in, or REAP working-set
 * prefetch from the shared page image), then request 1 and request 2
 * on the Atomic CPU. Full and REAP ops strictly alternate; the seed
 * sets the order within each mode. No O3 work happens here.
 *
 * Correctness: each op's digest covers the guest-visible cold and
 * warm latencies, not the restore mode, so a full and a REAP restore
 * of one function must produce equal digests.
 */

#include <sstream>

#include "core/checkpoint_store.hh"
#include "core/experiment.hh"
#include "harness.hh"
#include "workloads/workloads.hh"

using namespace svb;

namespace svbperf
{

namespace
{

const std::vector<IsaId> kIsas = {IsaId::Riscv, IsaId::Cx86};

/** Host seconds of one round on the reference host. */
constexpr double kRoundSeconds = 7.5;

struct Target
{
    IsaId isa;
    FunctionSpec spec;
};

std::vector<Target>
targets()
{
    std::vector<Target> out;
    for (IsaId isa : kIsas) {
        for (const FunctionSpec &spec : workloads::standaloneSuite())
            out.push_back({isa, spec});
    }
    return out;
}

ClusterConfig
churnConfig(IsaId isa, bool reap)
{
    ClusterConfig cfg = chapter4Config(isa, false);
    cfg.system.reapRestore = reap;
    return cfg;
}

/** The long-lived clusters, indexed [isa][reap]. */
struct Platform
{
    std::vector<std::unique_ptr<ServerlessCluster>> clusters;

    ServerlessCluster &
    at(IsaId isa, bool reap)
    {
        return *clusters[(isa == IsaId::Riscv ? 0 : 2) + (reap ? 1 : 0)];
    }
};

/**
 * One set-up repetition on an empty store in @p dir: publish every
 * target's snapshot plus working set, then build the clusters.
 * @return false when a preparation failed
 */
bool
setUp(const std::string &dir, Platform &platform)
{
    // Drop the previous repetition's clusters first, so every
    // repetition holds only the memory the workload itself does.
    platform.clusters.clear();
    freshStore(dir);
    bool ok = true;
    for (IsaId isa : kIsas) {
        ExperimentRunner prep(chapter4Config(isa, false));
        for (const FunctionSpec &spec : workloads::standaloneSuite()) {
            RunSpec rs;
            rs.mode = RunMode::Emu;
            rs.spec = spec;
            rs.impl = &workloads::workloadImpl(spec.workload);
            rs.options.warmRequest = 2;
            ok = runResultOk(prep.run(rs)) && ok;
        }
    }
    for (IsaId isa : kIsas) {
        for (bool reap : {false, true})
            platform.clusters.push_back(
                std::make_unique<ServerlessCluster>(churnConfig(isa, reap)));
    }
    return ok;
}

/** Host-only counters the traced run reads off the System after an op. */
void
sampleHostCounters(System &m, LayerStats &ls)
{
    std::ostringstream os;
    m.stats().printAll(os);
    std::istringstream is(os.str());
    std::string line;
    double hits = 0, mru = 0, misses = 0;
    while (std::getline(is, line)) {
        std::istringstream ls_line(line);
        std::string name;
        double value = 0;
        if (!(ls_line >> name >> value))
            continue;
        if (name == "system.decode.hits")
            hits = value;
        else if (name == "system.decode.mruHits")
            mru = value;
        else if (name == "system.decode.misses")
            misses = value;
    }
    ls.addSum("decode.hits", hits + mru);
    ls.addSum("decode.lookups", hits + mru + misses);
    ls.addSum("superblock.lookups", double(m.superblocks().lookups()));
    ls.addSum("superblock.formed", double(m.superblocks().blocksFormed()));
}

/** One cold start; @return false when any step failed. */
bool
coldStart(const Target &tg, bool reap, ServerlessCluster &cl, uint64_t op,
          Spans &spans, LayerStats *ls, Digest &digest)
{
    CheckpointStore &store = CheckpointStore::global();
    const WorkloadImpl &impl = workloads::workloadImpl(tg.spec.workload);
    const std::string fp =
        CheckpointStore::fingerprint(churnConfig(tg.isa, reap), tg.spec);
    Scope root(spans, "op", op);
    auto timed = [&](const char *span, const std::string &sample,
                     auto &&fn) {
        const uint64_t t0 = nowNs();
        {
            Scope s(spans, span, op);
            fn();
        }
        if (ls)
            ls->sample(sample, double(nowNs() - t0) / 1e6);
    };

    std::shared_ptr<const Checkpoint> cp;
    bool claimed = false;
    timed("ckpt.acquire", "ckpt.acquire_ms",
          [&] { cp = store.acquire(fp, &claimed); });
    if (cp == nullptr) {
        if (claimed)
            store.release(fp);
        return false;
    }
    timed("restore.rebuild", "restore.rebuild_ms", [&] { cl.beginRestore(); });
    ServerlessCluster::Deployment dep;
    timed("restore.deploy", "restore.deploy_ms",
          [&] { dep = cl.deploy(tg.spec, impl); });
    std::shared_ptr<const PageImage> img;
    if (cl.system().reapEnabled()) {
        timed("restore.image", "restore.image_ms",
              [&] { img = store.imageFor(fp, *cp); });
    }
    timed("restore.finish", reap ? "restore.finish_ms.reap"
                                 : "restore.finish_ms.full",
          [&] { cl.finishRestore(*cp, img); });
    if (cl.system().reapEnabled() != reap || (reap && img == nullptr))
        return false;

    System &m = cl.system();
    const uint64_t mhz = m.config().clockMHz;
    bool ok = false;
    uint64_t t0 = nowNs();
    timed("atomic.cold_req", "atomic.cold_req_ms", [&] {
        cl.openClientGate(dep);
        ok = cl.runUntilWorkEnds(1);
    });
    uint64_t req_ns = nowNs() - t0;
    if (!ok)
        return false;
    digest.add((cl.lastWorkEndCycle() - cl.lastWorkBeginCycle()) * 1000 /
               mhz);
    if (ls && reap) {
        PhysMemory &phys = m.phys();
        ls->sample("restore.prefetched_pages", double(phys.prefetchedPages()));
        ls->sample("restore.lazy_faults", double(phys.lazyFaults()));
        ls->addSum("restore.lazy_faults", double(phys.lazyFaults()));
        ls->addSum("restore.resident_pages",
                   double(phys.residentImagePages()));
    }
    t0 = nowNs();
    timed("atomic.warm_req", "atomic.warm_req_ms",
          [&] { ok = cl.runUntilWorkEnds(2); });
    req_ns += nowNs() - t0;
    if (!ok)
        return false;
    digest.add((cl.lastWorkEndCycle() - cl.lastWorkBeginCycle()) * 1000 /
               mhz);
    if (ls) {
        ls->addSum("atomic.ns", double(req_ns));
        ls->addSum("atomic.insts", double(atomicInsts(m)));
        sampleHostCounters(m, *ls);
    }
    return true;
}

/** One round: every target once per mode, modes alternating. With
 *  @p ls, each cold start runs untraced and then traced. */
RoundTimes
runRound(unsigned round, uint64_t order_seed, Platform &platform,
         Spans &spans, LayerStats *ls)
{
    const std::vector<Target> tgs = targets();
    const std::vector<size_t> full = permutation(tgs.size(), order_seed * 2);
    const std::vector<size_t> reap =
        permutation(tgs.size(), order_seed * 2 + 1);
    const bool reap_first = (order_seed & 1) != 0;
    Spans off(false);
    RoundTimes times;
    for (size_t k = 0; k < 2 * tgs.size(); ++k) {
        const bool is_reap = (k % 2 == 0) == reap_first;
        const Target &tg = tgs[is_reap ? reap[k / 2] : full[k / 2]];
        for (bool traced : {false, true}) {
            if (traced && ls == nullptr)
                break;
            Digest digest;
            digest.add(tg.spec.name);
            const uint64_t t0 = nowNs();
            const bool ok = coldStart(
                tg, is_reap, platform.at(tg.isa, is_reap), round * 1000 + k,
                traced ? spans : off, traced ? ls : nullptr, digest);
            const uint64_t dt = nowNs() - t0;
            (traced ? times.tracedS : times.plainS) += double(dt) / 1e9;
            opRecord(round,
                     std::string(isaName(tg.isa)) + "/" + tg.spec.name +
                         (is_reap ? "/reap" : "/full"),
                     dt, ok, digest.value());
        }
    }
    return times;
}

} // namespace

void
runColdstartChurn(const RunArgs &args, Spans &spans)
{
    // Every repetition prepares from an empty store; the last one's
    // snapshots and clusters serve the measured phase.
    const std::string store_dir = args.workdir + "/ckpt";
    Platform platform;
    bool setup_ok = true;
    for (unsigned rep = 0; rep < args.setupReps; ++rep) {
        SetupTimer timer;
        setup_ok = setUp(store_dir, platform) && setup_ok;
        timer.finish();
    }
    if (!setup_ok)
        std::printf("setup-failed\n");

    if (!args.trace) {
        const unsigned rounds = roundsFor(args.seconds, kRoundSeconds, 1);
        const uint64_t p0 = phaseStart();
        for (unsigned r = 0; r < rounds; ++r)
            runRound(r, args.seed * 1000003 + r, platform, spans, nullptr);
        phaseRecord(p0);
        return;
    }

    LayerStats ls;
    overheadMetric(args.workload,
                   runRound(0, args.seed * 1000003, platform, spans, &ls));
    for (const char *name :
         {"ckpt.acquire_ms", "restore.rebuild_ms", "restore.deploy_ms",
          "restore.image_ms", "restore.finish_ms.full",
          "restore.finish_ms.reap", "atomic.cold_req_ms",
          "atomic.warm_req_ms"})
        metric(name, ls.median(name), "ms");
    metric("restore.prefetched_pages", ls.median("restore.prefetched_pages"),
           "pages");
    metric("restore.lazy_faults", ls.median("restore.lazy_faults"), "pages");
    metric("restore.ws_miss_ratio",
           ls.sum("restore.lazy_faults") / ls.sum("restore.resident_pages"),
           "ratio");
    metric("atomic.mips", ls.sum("atomic.insts") / 1e6 /
                              (ls.sum("atomic.ns") / 1e9),
           "MIPS");
    metric("decode.hit_ratio",
           ls.sum("decode.hits") / ls.sum("decode.lookups"), "ratio");
    metric("superblock.hit_ratio",
           1.0 - ls.sum("superblock.formed") / ls.sum("superblock.lookups"),
           "ratio");
}

} // namespace svbperf
