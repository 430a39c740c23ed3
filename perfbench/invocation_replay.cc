/**
 * @file
 * Workload "invocation-replay": the load, fleet and workflow engines
 * replaying calibrated service models.
 *
 * Set-up calibrates every (cluster, function) the scenario catalogue
 * needs: a three-function Go mix plus one Python and one Node function
 * on both ISAs, and the Go mix on the two node classes of the mixed
 * RISC-V/x86 fleet. Each calibration platform gets its own short-lived
 * ResultCache, so its runner (a whole simulated System) is freed before
 * the next one; the measured phase then reads the calibrations back
 * from the cache file and never simulates a CPU.
 *
 * One op is one scenario, run through LoadRunner::run or
 * WorkflowRunner::run:
 *  - plain: single-node Poisson arrivals under each keep-alive policy,
 *    a mixed RISC-V/x86 class fleet, and two large streams (>= 2M
 *    invocations) whose memory growth shows in peak RSS;
 *  - fleet_faults: a 4-node power-of-two fleet with the fault preset,
 *    retries, timeouts, the circuit breaker and a node crash;
 *  - autoscaled: bursty arrivals with the autoscaler and scale-to-zero;
 *  - workflow: chain-4, fan-out-8 and map-reduce DAGs with payload
 *    affinity on a 4-node fleet.
 *
 * Correctness: each op's digest covers the latency histogram, goodput
 * and critical-path fingerprints plus the outcome counters, and an op
 * fails unless succeeded + failed + sheds == invocations.
 */

#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "core/checkpoint_store.hh"
#include "harness.hh"
#include "load/load_runner.hh"
#include "load/names.hh"
#include "load/workflow.hh"
#include "workloads/workloads.hh"

using namespace svb;

namespace svbperf
{

namespace
{

/** Invocations of a sweep-sized load scenario. */
constexpr uint64_t kSweepInvocations = 60'000;
/** Invocations of the large streams. */
constexpr uint64_t kLargeInvocations = 2'000'000;
/** Workflow instances of a workflow scenario. */
constexpr uint64_t kWorkflowInstances = 6'000;
/** Host seconds of one round on the reference host. */
constexpr double kRoundSeconds = 5.0;

const std::vector<IsaId> kIsas = {IsaId::Riscv, IsaId::Cx86};

load::LoadMixEntry
entry(const char *name, double weight = 1.0)
{
    const FunctionSpec spec = functionNamed(name);
    return {spec, &workloads::workloadImpl(spec.workload), weight};
}

std::vector<load::LoadMixEntry>
goMix()
{
    return {entry("fibonacci-go"), entry("aes-go"), entry("auth-go")};
}

/** The Go mix plus one interpreted function of each tier. */
std::vector<load::LoadMixEntry>
tierMix()
{
    std::vector<load::LoadMixEntry> mix = goMix();
    mix.push_back(entry("fibonacci-python", 0.5));
    mix.push_back(entry("aes-nodejs", 0.5));
    return mix;
}

load::NodeClass
rvClass()
{
    load::NodeClass k = load::NodeClass::forIsa("rv64sbc", IsaId::Riscv);
    k.watts = 4.0;
    return k;
}

load::NodeClass
x86Class()
{
    load::NodeClass k = load::NodeClass::forIsa("x86srv", IsaId::Cx86);
    k.system.clockMHz = 2000;
    k.costPerHour = 3.0;
    k.watts = 18.0;
    return k;
}

struct Scenario
{
    std::string cls; ///< plain / fleet_faults / autoscaled / workflow
    bool isWorkflow = false;
    load::LoadScenario load;
    load::WorkflowScenario flow;
    bool large = false;

    const std::string &
    name() const
    {
        return isWorkflow ? flow.name : load.name;
    }
};

load::LoadScenario
baseLoad(IsaId isa, const std::string &name, uint64_t seed)
{
    load::LoadScenario s;
    s.name = name;
    s.cluster = chapter4Config(isa, false);
    s.mix = tierMix();
    s.arrival.kind = load::ArrivalKind::Poisson;
    s.arrival.ratePerSec = 4000.0;
    s.pool = {load::KeepAlivePolicy::FixedTtl, 4, 50'000'000};
    s.invocations = kSweepInvocations;
    s.seed = seed;
    return s;
}

std::vector<Scenario>
catalogue()
{
    std::vector<Scenario> out;
    auto add_load = [&out](const char *cls, load::LoadScenario s,
                           bool large = false) {
        Scenario sc;
        sc.cls = cls;
        sc.load = std::move(s);
        sc.large = large;
        out.push_back(std::move(sc));
    };
    for (IsaId isa : kIsas) {
        const std::string isa_s = isaName(isa);
        for (load::KeepAlivePolicy pol :
             {load::KeepAlivePolicy::AlwaysCold,
              load::KeepAlivePolicy::AlwaysWarm,
              load::KeepAlivePolicy::FixedTtl, load::KeepAlivePolicy::Lru}) {
            load::LoadScenario s = baseLoad(
                isa,
                "plain;" + isa_s + ";" + load::keepAlivePolicyName(pol), 11);
            s.pool.policy = pol;
            add_load("plain", std::move(s));
        }

        load::LoadScenario big = baseLoad(isa, "large;" + isa_s, 12);
        big.invocations = kLargeInvocations;
        big.pool.policy = isa == IsaId::Riscv ? load::KeepAlivePolicy::FixedTtl
                                              : load::KeepAlivePolicy::Lru;
        add_load("plain", std::move(big), true);

        for (double rate : {4000.0, 8000.0}) {
            std::ostringstream name;
            name << "faults;" << isa_s << ";p2c4;rate" << unsigned(rate);
            load::LoadScenario s = baseLoad(isa, name.str(), 13);
            s.mix = goMix();
            s.arrival.ratePerSec = rate;
            s.pool.maxInstances = 2;
            s.fleet.nodes = 4;
            s.fleet.routing = load::RoutingPolicy::PowerOfTwo;
            s.fault = load::defaultFaultPreset();
            s.retry.maxAttempts = 3;
            s.retry.timeoutNs = 5'000'000;
            s.retry.backoffBaseNs = 500'000;
            s.retry.backoffCapNs = 10'000'000;
            s.breaker.enabled = true;
            s.fleet.nodeFaults.push_back(
                {load::NodeFaultEvent::Kind::Crash, 1, 500'000'000,
                 100'000'000});
            add_load("fleet_faults", std::move(s));
        }

        load::LoadScenario sc = baseLoad(isa, "autoscale;" + isa_s, 14);
        sc.mix = goMix();
        sc.arrival.kind = load::ArrivalKind::Burst;
        sc.arrival.ratePerSec = 6000.0;
        sc.arrival.burstFactor = 8.0;
        sc.arrival.burstPeriodNs = 20'000'000;
        sc.arrival.burstDuty = 0.1;
        sc.pool.maxInstances = 2;
        sc.fleet.nodes = 6;
        sc.fleet.autoscaler.enabled = true;
        sc.fleet.autoscaler.minNodes = 0;
        sc.fleet.autoscaler.evalPeriodNs = 10'000'000;
        sc.fleet.autoscaler.targetInFlightPerNode = 2.0;
        sc.fleet.autoscaler.scaleUpLagNs = 5'000'000;
        sc.fleet.autoscaler.scaleDownIdleNs = 5'000'000;
        add_load("autoscaled", std::move(sc));
    }

    for (load::RoutingPolicy pol :
         {load::RoutingPolicy::LeastLoaded, load::RoutingPolicy::CostWeighted,
          load::RoutingPolicy::PowerWeighted}) {
        load::LoadScenario s = baseLoad(
            IsaId::Riscv,
            std::string("classes;rv2x862;") + load::routingPolicyName(pol),
            15);
        s.mix = goMix();
        s.arrival.ratePerSec = 10000.0;
        s.pool.maxInstances = 2;
        s.fleet.routing = pol;
        s.fleet.spec.groups = {{rvClass(), 2}, {x86Class(), 2}};
        add_load("plain", std::move(s));
    }

    const std::vector<uint32_t> fns = {0, 1, 2};
    constexpr uint64_t payload = 64 * 1024;
    for (IsaId isa : kIsas) {
        for (const load::WorkflowSpec &dag :
             {load::chainSpec("chain-4", 4, fns, payload),
              load::fanOutSpec("fanout-8", 8, fns, payload),
              load::mapReduceSpec("map-reduce", 4, 2, fns, payload)}) {
            Scenario sc;
            sc.cls = "workflow";
            sc.isWorkflow = true;
            load::WorkflowScenario &w = sc.flow;
            w.name = "wflow;" + dag.name + ";" + isaName(isa) + ";nodes4";
            w.cluster = chapter4Config(isa, false);
            w.functions = goMix();
            w.dag = dag;
            for (load::StageSpec &st : w.dag.stages)
                st.placement = load::StagePlacement::PayloadAffinity;
            w.arrival.kind = load::ArrivalKind::Poisson;
            w.arrival.ratePerSec = 500.0;
            w.pool = {load::KeepAlivePolicy::FixedTtl, 2, 50'000'000};
            w.fleet.nodes = 4;
            w.invocations = kWorkflowInstances;
            w.seed = 16;
            out.push_back(std::move(sc));
        }
    }
    return out;
}

/** Every calibration platform the catalogue needs, with its functions. */
std::vector<std::pair<ClusterConfig, std::vector<load::LoadMixEntry>>>
calibrationPlan(const std::vector<Scenario> &scenarios)
{
    std::vector<std::pair<ClusterConfig, std::vector<load::LoadMixEntry>>>
        plan;
    std::map<std::string, size_t> byCluster;
    std::set<std::string> seen;
    for (const Scenario &sc : scenarios) {
        const ClusterConfig &base =
            sc.isWorkflow ? sc.flow.cluster : sc.load.cluster;
        const load::FleetConfig &fleet =
            sc.isWorkflow ? sc.flow.fleet : sc.load.fleet;
        const auto &mix = sc.isWorkflow ? sc.flow.functions : sc.load.mix;
        for (const ClusterConfig &cfg : load::calibrationClusters(base, fleet)) {
            const std::string ckey =
                std::string(isaName(cfg.system.isa)) + "@" + cfg.classTag;
            auto it = byCluster.find(ckey);
            if (it == byCluster.end()) {
                it = byCluster.emplace(ckey, plan.size()).first;
                plan.push_back({cfg, {}});
            }
            for (const load::LoadMixEntry &e : mix) {
                if (seen.insert(ckey + "/" + e.spec.name).second)
                    plan[it->second].second.push_back(e);
            }
        }
    }
    return plan;
}

/** Samples this process's resident set while a large scenario runs. */
class RssSampler
{
  public:
    RssSampler() : base(currentRssKib()), peak(base)
    {
        thread = std::thread([this] {
            while (!stop.load(std::memory_order_relaxed)) {
                const uint64_t now = currentRssKib();
                if (now > peak.load(std::memory_order_relaxed))
                    peak.store(now, std::memory_order_relaxed);
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
    }
    ~RssSampler() { finish(); }
    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    /** Stop sampling; @return the growth over the start, in KiB. */
    uint64_t
    finish()
    {
        if (thread.joinable()) {
            stop.store(true);
            thread.join();
        }
        return peak.load() - base;
    }

  private:
    uint64_t base;
    std::atomic<uint64_t> peak;
    std::atomic<bool> stop{false};
    std::thread thread;
};

bool
runScenario(const Scenario &sc, ResultCache &cache, uint64_t op,
            Spans &spans, Digest &d, uint64_t &attempts)
{
    Scope root(spans, "op", op);
    if (!sc.isWorkflow) {
        load::LoadResult r;
        {
            Scope s(spans, "load.replay", op);
            r = load::LoadRunner(cache).run(sc.load);
        }
        for (uint64_t v :
             {r.histoFingerprint, r.goodFingerprint, r.invocations,
              r.succeeded, r.failedInvocations, r.sheds, r.retries,
              r.coldStarts, r.warmHits, r.evictions, r.throttles,
              r.maxActiveNodes, r.p50Ns, r.p99Ns, r.maxNs})
            d.add(v);
        attempts = r.invocations + r.retries;
        return r.ok &&
               r.succeeded + r.failedInvocations + r.sheds == r.invocations;
    }
    load::WorkflowResult r;
    {
        Scope s(spans, "workflow.replay", op);
        r = load::WorkflowRunner(cache).run(sc.flow);
    }
    for (uint64_t v :
         {r.histoFingerprint, r.goodFingerprint, r.critFingerprint,
          r.invocations, r.succeeded, r.failedWorkflows, r.sheds, r.retries,
          r.coldStarts, r.warmHits, r.transfersLocal, r.transfersRemote,
          r.transferNs, r.p50Ns, r.p99Ns})
        d.add(v);
    attempts = r.invocations * r.tasksPerWorkflow + r.retries;
    return r.ok && r.succeeded + r.failedWorkflows + r.sheds == r.invocations;
}

/** One set-up repetition; @return false when a calibration failed. */
bool
setUp(const RunArgs &args, const std::vector<Scenario> &scenarios,
      const std::string &csv, Spans &spans)
{
    const std::string store_dir = args.workdir + "/ckpt";
    removeTree(csv);
    freshStore(store_dir);
    bool ok = true;
    for (const auto &[cfg, fns] : calibrationPlan(scenarios)) {
        ResultCache cache(csv);
        for (const load::LoadMixEntry &e : fns) {
            Scope s(spans, "setup.calibrate", 0);
            ok = cache.loadCalibration(cfg, e.spec, *e.impl).ok && ok;
        }
    }
    // Drop the published snapshots; the replay never restores one.
    freshStore(store_dir);
    return ok;
}

/** One round in seeded order; with @p ls, each scenario runs untraced
 *  and then traced. */
RoundTimes
runRound(unsigned round, uint64_t order_seed,
         const std::vector<Scenario> &scenarios, ResultCache &cache,
         Spans &spans, LayerStats *ls)
{
    Spans off(false);
    RoundTimes times;
    for (size_t idx : permutation(scenarios.size(), order_seed)) {
        const Scenario &sc = scenarios[idx];
        for (bool traced : {false, true}) {
            if (traced && ls == nullptr)
                break;
            Digest d;
            d.add(sc.name());
            uint64_t attempts = 0;
            std::unique_ptr<RssSampler> rss;
            if (traced && sc.large && !ls->has("load.rss_kib"))
                rss = std::make_unique<RssSampler>();
            const uint64_t t0 = nowNs();
            const bool ok = runScenario(sc, cache, round * 1000 + idx,
                                        traced ? spans : off, d, attempts);
            const uint64_t dt = nowNs() - t0;
            (traced ? times.tracedS : times.plainS) += double(dt) / 1e9;
            opRecord(round, sc.name(), dt, ok, d.value(), sc.cls.c_str());
            if (!traced)
                continue;
            const std::string key =
                sc.isWorkflow ? std::string("workflow") : "load." + sc.cls;
            ls->sample(key + ".replay_ms", double(dt) / 1e6);
            ls->addSum(key + ".ns", double(dt));
            ls->addSum(key + ".attempts", double(attempts));
            if (rss) {
                ls->sample("load.rss_kib", double(rss->finish()));
                ls->addSum("load.rss_minv", double(sc.load.invocations) / 1e6);
            }
        }
    }
    return times;
}

} // namespace

void
runInvocationReplay(const RunArgs &args, Spans &spans)
{
    const std::vector<Scenario> scenarios = catalogue();
    const std::string csv = args.workdir + "/results.csv";
    bool setup_ok = true;
    double calibrate_s = 0;
    for (unsigned rep = 0; rep < args.setupReps; ++rep) {
        SetupTimer timer;
        const uint64_t t0 = nowNs();
        setup_ok = setUp(args, scenarios, csv, spans) && setup_ok;
        calibrate_s = double(nowNs() - t0) / 1e9;
        timer.finish();
    }
    if (!setup_ok)
        std::printf("setup-failed\n");

    ResultCache cache(csv);
    if (!args.trace) {
        const unsigned rounds = roundsFor(args.seconds, kRoundSeconds, 1);
        const uint64_t p0 = phaseStart();
        for (unsigned r = 0; r < rounds; ++r)
            runRound(r, args.seed * 1000003 + r, scenarios, cache, spans,
                     nullptr);
        phaseRecord(p0);
    } else {
        LayerStats ls;
        overheadMetric(args.workload, runRound(0, args.seed * 1000003,
                                               scenarios, cache, spans, &ls));
        metric("load.calibrate_s", calibrate_s, "s");
        for (const char *cls : {"plain", "fleet_faults", "autoscaled"}) {
            const std::string key = std::string("load.") + cls;
            metric("load.replay_ms." + std::string(cls),
                   ls.median(key + ".replay_ms"), "ms");
            metric("load.ns_per_attempt." + std::string(cls),
                   ls.sum(key + ".ns") / ls.sum(key + ".attempts"), "ns");
        }
        metric("load.rss_mb_per_minv",
               ls.median("load.rss_kib") / 1024.0 / ls.sum("load.rss_minv"),
               "MiB/Minv");
        metric("workflow.replay_ms", ls.median("workflow.replay_ms"), "ms");
        metric("workflow.ns_per_task",
               ls.sum("workflow.ns") / ls.sum("workflow.attempts"), "ns");
    }
}

} // namespace svbperf
