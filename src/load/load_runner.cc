#include "load_runner.hh"

#include "attempt_engine.hh"
#include "obs/stat_export.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace svb::load
{

namespace
{

/**
 * What a plain invocation stream adds to the attempt engine: each
 * invocation is one task running the function its traffic-mix draw
 * chose, with no placement hint and no input transfer, and its spans
 * are named "<inv>[.<attempt>]".
 */
class StreamPolicy
{
  public:
    /** Draw every invocation's function from the mix, in arrival
     *  order, off the mix substream. */
    explicit StreamPolicy(const LoadScenario &s)
    {
        double totalWeight = 0.0;
        for (const LoadMixEntry &entry : s.mix)
            totalWeight += entry.weight;
        svb_assert(totalWeight > 0.0, "load mix has no weight");
        Rng mixRng = Rng(s.seed).split(kStreamMix);
        fns.resize(s.invocations);
        for (uint32_t &fn : fns) {
            double u = mixRng.nextDouble() * totalWeight;
            fn = 0;
            for (size_t m = 0; m + 1 < s.mix.size(); ++m) {
                u -= s.mix[m].weight;
                if (u < 0.0)
                    break;
                fn = uint32_t(m + 1);
            }
        }
    }

    uint32_t fn(uint32_t inv, uint32_t) const { return fns[inv]; }
    unsigned preferredNode(uint32_t, uint32_t) const { return Fleet::badNode; }
    uint64_t transferNs(uint32_t, uint32_t, unsigned) const { return 0; }
    SpanArgs transferArgs(uint32_t) const { return {}; }
    SpanArgs serviceArgs(uint32_t) const { return {}; }
    bool taskSucceeded(AttemptEngine &, const AttemptEvent &) const
    {
        return true;
    }

    /** Only retries carry the attempt suffix, so fault-free traces
     *  keep the plain "cold#i"/"warm#i"/"queue#i" span names. */
    std::string tag(uint32_t inv, uint32_t, uint32_t attempt) const
    {
        std::string t = std::to_string(inv);
        if (attempt > 0)
            t += "." + std::to_string(attempt);
        return t;
    }

  private:
    std::vector<uint32_t> fns;
};

/**
 * The load simulation: replay calibrated service times through the
 * arrival process, fleet, fault model, retry policy and circuit
 * breakers, one task per invocation.
 */
LoadResult
simulateStream(const LoadScenario &s, const CalibrationMatrix &cals)
{
    LoadResult res;
    StreamPolicy policy(s);
    AttemptEngine engine(s, s.mix.size(), 1, {0}, cals, res, "load");
    engine.run(policy);
    res.failedInvocations = engine.failures();

    const Fleet &fleet = engine.fleetState();
    const uint64_t nodeCapacityNs = engine.lastEndNs() * s.pool.maxInstances;
    res.nodeUtilisation.assign(fleet.nodeCount(), 0.0);
    for (unsigned n = 0; n < fleet.nodeCount(); ++n)
        res.nodeUtilisation[n] =
            safeShare(fleet.nodeStats(n).busyNs, nodeCapacityNs);
    if (fleet.classed()) {
        res.classRouted.assign(fleet.groupCount(), 0);
        res.classNames.resize(fleet.groupCount());
        for (unsigned g = 0; g < fleet.groupCount(); ++g)
            res.classNames[g] = fleet.nodeClass(g).name;
        for (unsigned n = 0; n < fleet.nodeCount(); ++n)
            res.classRouted[fleet.groupOf(n)] += fleet.nodeStats(n).routed;
    }

    // fault.* StatGroup counters through the observability layer: a
    // per-scenario stat tree, dumped wherever SVBENCH_STATDUMP points
    // (only when the resilience machinery is actually engaged, so
    // fault-free runs emit exactly the legacy file set).
    if ((s.fault.any() || s.breaker.enabled) &&
        !obs::statDumpDir().empty()) {
        StatGroup fstats("fault");
        auto set = [&fstats](const char *name, const char *desc,
                             uint64_t v) {
            fstats.addScalar(name, desc) += v;
        };
        set("injected.coldFail", "injected failed cold starts",
            res.coldStartFailures);
        set("injected.crash", "injected instance crashes", res.crashes);
        set("injected.straggler", "injected straggler slowdowns",
            res.stragglers);
        set("injected.corruptRestore", "injected corrupt restores",
            res.corruptRestores);
        set("retry.retries", "retry attempts issued", res.retries);
        set("retry.timeouts", "client-side attempt timeouts",
            res.timeouts);
        set("breaker.opens", "circuit-breaker open transitions",
            res.breakerOpens);
        set("breaker.sheds", "requests shed to the degraded path",
            res.sheds);
        set("outcome.succeeded", "invocations answered successfully",
            res.succeeded);
        set("outcome.failed", "invocations exhausted without success",
            res.failedInvocations);
        engine.dumpStats("fault", fstats);
    }

    // fleet.* StatGroup counters, same discipline: only emitted when
    // the fleet machinery is engaged, so plain single-node scenarios
    // keep the legacy stat-file set byte-for-byte.
    if (s.fleet.engaged() && !obs::statDumpDir().empty()) {
        StatGroup fstats("fleet");
        auto set = [&fstats](const std::string &name,
                             const std::string &desc, uint64_t v) {
            fstats.addScalar(name, desc) += v;
        };
        set("sched.policy", "routing policy id", res.policyId);
        set("sched.throttles", "attempts rejected by the concurrency limit",
            res.throttles);
        set("sched.nodeFaults", "node fault events applied",
            res.nodeFaults);
        set("sched.maxActive", "peak concurrently active nodes",
            fleet.maxActiveNodes());
        set("sched.activations", "node scale-up activations",
            fleet.activations());
        set("sched.deactivations", "node scale-down retirements",
            fleet.deactivations());
        set("sched.evaluations", "autoscaler evaluation rounds",
            fleet.autoscaleEvaluations());
        set("sched.prefHits", "placement hints honoured",
            fleet.preferredHits());
        set("sched.prefMisses", "placement hints that fell back",
            fleet.preferredMisses());
        if (fleet.classed()) {
            for (unsigned g = 0; g < fleet.groupCount(); ++g) {
                const std::string p =
                    "class." + fleet.nodeClass(g).name + ".";
                set(p + "nodes", "provisioned nodes of the class",
                    fleet.config().spec.groups[g].count);
                set(p + "active", "active nodes of the class at the end",
                    fleet.groupActiveNodes(g));
                set(p + "routed", "attempts routed to the class",
                    res.classRouted[g]);
            }
        }
        for (unsigned n = 0; n < fleet.nodeCount(); ++n) {
            const std::string p = "node" + std::to_string(n) + ".";
            const NodeStats &nst = fleet.nodeStats(n);
            const PoolStats &ps = fleet.pool(n).stats();
            set(p + "routed", "attempts routed to the node", nst.routed);
            set(p + "busyNs", "occupied slot-time on the node",
                nst.busyNs);
            set(p + "crashEvents", "node-level crashes applied",
                nst.crashEvents);
            set(p + "coldStarts", "cold starts on the node",
                ps.coldStarts);
            set(p + "warmHits", "warm hits on the node", ps.warmHits);
            set(p + "evictions", "instance evictions on the node",
                ps.evictions);
        }
        engine.dumpStats("fleet", fstats);
    }
    return res;
}

/** The "load" rows of replaySweep(). */
struct LoadRows
{
    using Scenario = LoadScenario;
    using Result = LoadResult;
    static constexpr const char *mode = "load";

    static const std::vector<LoadMixEntry> &
    functions(const LoadScenario &s)
    {
        return s.mix;
    }

    static LoadResult
    run(ResultCache &cache, const LoadScenario &s)
    {
        return LoadRunner(cache).run(s);
    }

    static Row
    pack(const LoadResult &res)
    {
        Row row = packReplay(res);
        row["failedInv"] = res.failedInvocations;
        return row;
    }

    static LoadResult
    unpack(const std::string &scenario, const Row &row)
    {
        LoadResult res;
        unpackReplay(scenario, row, res);
        res.failedInvocations = row.at("failedInv");
        return res;
    }
};

} // namespace

void
validateScenarioName(const std::string &name)
{
    svb_assert(!name.empty(), "load scenario with an empty name");
    svb_assert(name.find_first_of(",|=") == std::string::npos,
               "load scenario name '", name,
               "' contains a cache metacharacter (',', '|' or '=')");
}

double
safeRatePerSec(uint64_t events, uint64_t span_ns)
{
    return span_ns ? double(events) * 1e9 / double(span_ns) : 0.0;
}

double
safeShare(uint64_t part_ns, uint64_t whole_ns)
{
    return whole_ns ? double(part_ns) / double(whole_ns) : 0.0;
}

ClusterConfig
classCluster(const NodeClass &klass, const ClusterConfig &base)
{
    if (!klass.ownSystem)
        return base;
    ClusterConfig c = base;
    c.system = klass.system;
    c.classTag = klass.name;
    return c;
}

std::vector<ClusterConfig>
calibrationClusters(const ClusterConfig &base, const FleetConfig &fleet)
{
    std::vector<ClusterConfig> clusters;
    if (fleet.spec.empty()) {
        clusters.push_back(base);
        return clusters;
    }
    clusters.reserve(fleet.spec.groups.size());
    for (const FleetGroup &g : fleet.spec.groups)
        clusters.push_back(classCluster(g.klass, base));
    return clusters;
}

LoadResult
LoadRunner::run(const LoadScenario &scenario)
{
    validateScenarioName(scenario.name);
    svb_assert(!scenario.mix.empty(), "load scenario with empty mix");
    svb_assert(scenario.invocations > 0, "load scenario with no traffic");
    CalibrationMatrix cals;
    if (!calibrate(cache, scenario, scenario.mix, cals)) {
        LoadResult res;
        res.scenario = scenario.name;
        return res;
    }
    return simulateStream(scenario, cals);
}

std::vector<LoadResult>
loadSweep(ResultCache &cache, const std::vector<LoadScenario> &scenarios,
          unsigned jobs_override)
{
    return replaySweep<LoadRows>(cache, scenarios, jobs_override);
}

} // namespace svb::load
