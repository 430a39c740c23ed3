#include "attempt_engine.hh"

#include <algorithm>
#include <cmath>

#include "names.hh"
#include "obs/stat_export.hh"
#include "sim/logging.hh"

namespace svb::load
{

bool
calibrate(ResultCache &cache, const ReplayScenario &s,
          const std::vector<LoadMixEntry> &fns, CalibrationMatrix &cals)
{
    // One calibration pass per fleet class (class-less scenarios have
    // exactly one, the base cluster): the [group][fn] matrix the engine
    // indexes by the class of the routed node.
    const std::vector<ClusterConfig> clusters =
        calibrationClusters(s.cluster, s.fleet);
    cals.assign(clusters.size(), {});
    for (size_t g = 0; g < clusters.size(); ++g) {
        cals[g].reserve(fns.size());
        for (const LoadMixEntry &entry : fns) {
            svb_assert(entry.impl != nullptr, "function without workload");
            cals[g].push_back(
                cache.loadCalibration(clusters[g], entry.spec, *entry.impl));
            if (!cals[g].back().ok) {
                warn(s.name, ": calibration of ", entry.spec.name,
                     " failed; scenario skipped");
                return false;
            }
        }
    }
    return true;
}

namespace
{

/** Longest service time a scaling can produce (~104 days): every
 *  integer below it is exact as a double, and event times built from
 *  it stay far inside uint64_t. */
constexpr uint64_t maxServiceNs = uint64_t(1) << 53;

/**
 * @p service_ns times @p factor, truncated as uint64_t(double(...) *
 * factor) truncates it, but saturating at maxServiceNs: a product past
 * uint64_t's range (a straggler factor of 1e30) would be undefined.
 */
uint64_t
scaledService(uint64_t service_ns, double factor)
{
    const double ns = double(service_ns) * factor;
    return ns < double(maxServiceNs) ? uint64_t(ns) : maxServiceNs;
}

/** The integer ReplayResult fields and their row names (the two
 *  fractions and the ok flag are scaled by hand). */
const std::pair<const char *, uint64_t ReplayResult::*> kReplayFields[] = {
    {"invocations", &ReplayResult::invocations},
    {"coldStarts", &ReplayResult::coldStarts},
    {"warmHits", &ReplayResult::warmHits},
    {"evictions", &ReplayResult::evictions},
    {"p50Ns", &ReplayResult::p50Ns},
    {"p90Ns", &ReplayResult::p90Ns},
    {"p99Ns", &ReplayResult::p99Ns},
    {"p999Ns", &ReplayResult::p999Ns},
    {"maxNs", &ReplayResult::maxNs},
    {"histoFp", &ReplayResult::histoFingerprint},
    {"succeeded", &ReplayResult::succeeded},
    {"sheds", &ReplayResult::sheds},
    {"retries", &ReplayResult::retries},
    {"crashes", &ReplayResult::crashes},
    {"timeouts", &ReplayResult::timeouts},
    {"coldFails", &ReplayResult::coldStartFailures},
    {"corruptRestores", &ReplayResult::corruptRestores},
    {"stragglers", &ReplayResult::stragglers},
    {"breakerOpens", &ReplayResult::breakerOpens},
    {"goodP50Ns", &ReplayResult::goodP50Ns},
    {"goodP99Ns", &ReplayResult::goodP99Ns},
    {"errP99Ns", &ReplayResult::errP99Ns},
    {"goodFp", &ReplayResult::goodFingerprint},
    {"nodes", &ReplayResult::nodes},
    {"policy", &ReplayResult::policyId},
    {"maxActive", &ReplayResult::maxActiveNodes},
    {"throttles", &ReplayResult::throttles},
    {"nodeFaults", &ReplayResult::nodeFaults},
    {"classes", &ReplayResult::classes},
    {"powerMw", &ReplayResult::fleetPowerMw},
    {"costMilli", &ReplayResult::fleetCostMilli},
};

} // namespace

Row
packReplay(const ReplayResult &res)
{
    Row row;
    for (const auto &[name, field] : kReplayFields)
        row[name] = res.*field;
    row["throughputMrps"] = uint64_t(std::llround(res.throughputRps * 1000.0));
    row["utilPermil"] = uint64_t(std::llround(res.fleetUtilisation * 1000.0));
    row["ok"] = res.ok ? 1 : 0;
    return row;
}

void
unpackReplay(const std::string &scenario, const Row &row, ReplayResult &res)
{
    res.scenario = scenario;
    for (const auto &[name, field] : kReplayFields)
        res.*field = row.at(name);
    res.throughputRps = double(row.at("throughputMrps")) / 1000.0;
    res.fleetUtilisation = double(row.at("utilPermil")) / 1000.0;
    res.ok = row.at("ok") != 0;
}

void
calibrateAll(ResultCache &cache, const std::vector<CalibrationNeed> &needs,
             unsigned jobs_override)
{
    // Class-structured fleets contribute one cluster per class.
    std::vector<RunSpec> specs;
    for (const auto &[scenario, fns] : needs) {
        for (const ClusterConfig &cluster :
             calibrationClusters(scenario->cluster, scenario->fleet)) {
            for (const LoadMixEntry &entry : *fns)
                specs.push_back({.mode = RunMode::LoadCal,
                                 .spec = entry.spec,
                                 .impl = entry.impl,
                                 .platform = cluster});
        }
    }
    parallelSweep(cache, specs, jobs_override);
}

AttemptEngine::AttemptEngine(const ReplayScenario &scenario, size_t num_fns,
                             uint32_t tasks_per_unit,
                             std::vector<uint32_t> source_tasks,
                             const CalibrationMatrix &cals_arg,
                             ReplayResult &res_arg, const char *track_kind)
    : s(scenario), cals(cals_arg), res(res_arg),
      tasksPerUnit(tasks_per_unit), kind(track_kind),
      // Substream ids come from the StreamId claim table
      // (load_runner.hh).
      warmRng(Rng(scenario.seed).split(kStreamWarm)),
      retryRng(Rng(scenario.seed).split(kStreamRetry)),
      routeRng(Rng(scenario.seed).split(kStreamRoute)),
      faults(scenario.fault, Rng(scenario.seed).split(kStreamFault)),
      fleet(scenario.fleet, scenario.pool, unsigned(num_fns)),
      breakers(num_fns, CircuitBreaker(scenario.breaker)),
      sources(std::move(source_tasks))
{
    svb_assert(cals.size() == fleet.groupCount(),
               "calibration matrix does not match the fleet's classes");
    svb_assert(s.retry.maxAttempts >= 1, "retry policy needs >= 1 attempt");
    svb_assert(!sources.empty(), "a unit needs a source task");
    res.scenario = s.name;
    res.invocations = s.invocations;
    res.policyId = uint64_t(s.fleet.routing);
    res.nodes = fleet.nodeCount();
    res.classes = fleet.groupCount();
    res.fleetPowerMw = fleet.fleetPowerMw();
    res.fleetCostMilli = fleet.fleetCostMilli();

    // Per-scenario trace track (simulated nanoseconds). All times come
    // from the replay timeline, so the track is deterministic in
    // (scenario, calibrations).
    obs::Tracer &tracer = obs::Tracer::global();
    if (tracer.enabled())
        track = tracer.track(trackName(s.cluster, s.name, kind));

    // Arrivals are drawn up front, in arrival order.
    ArrivalProcess arrival(s.arrival, Rng(s.seed).split(kStreamArrival));
    arrivals.resize(s.invocations);
    for (uint64_t &at : arrivals)
        at = arrival.nextArrivalNs();
    ended.assign(s.invocations, 0);
    if (s.retry.maxAttempts > 1)
        backoffs.assign(size_t(s.invocations) * tasksPerUnit,
                        BackoffSchedule(s.retry));
    pending.resize(fleet.nodeCount());

    // Source tasks start from the arrival cursor (next()); only the
    // node faults enter the heap before the first attempt.
    for (size_t f = 0; f < s.fleet.nodeFaults.size(); ++f)
        push({.timeNs = s.fleet.nodeFaults[f].atNs,
              .unit = uint32_t(f),
              .kind = EvKind::NodeFault});
}

void
AttemptEngine::dumpStats(const char *part, const StatGroup &stats) const
{
    obs::dumpRequestStats(trackName(s.cluster, s.name, kind) + "." + part,
                          obs::snapshot(stats));
}

void
AttemptEngine::push(const AttemptEvent &ev)
{
    AttemptEvent e = ev;
    e.seq = seq++;
    events.push(e);
}

void
AttemptEngine::pushStart(uint64_t at_ns, uint32_t unit, uint32_t task,
                         uint32_t attempt)
{
    push({.timeNs = at_ns, .unit = unit, .task = task, .attempt = attempt});
}

void
AttemptEngine::trace(const std::string &name, const char *cat,
                     uint64_t start_ns, uint64_t dur_ns, SpanArgs args) const
{
    obs::Tracer::global().record(track, name, cat, start_ns, dur_ns,
                                 std::move(args));
}

void
AttemptEngine::traceRoute(const std::string &tag, unsigned node,
                          uint64_t at_ns) const
{
    // Only engaged fleets trace routing; class-structured fleets tag the
    // span with the node's class so mixed-ISA placement is visible, and
    // class-less traces keep the legacy spans byte-for-byte.
    if (!s.fleet.engaged())
        return;
    const std::string name = "route#" + tag + "@n" + std::to_string(node);
    if (fleet.classed())
        trace(name, "route", at_ns, 0,
              {{"class", fleet.nodeClass(fleet.groupOf(node)).name}});
    else
        trace(name, "route", at_ns, 0);
}

unsigned
AttemptEngine::place(const AttemptEvent &ev, uint32_t fn,
                     unsigned preferred_node, const std::string &tag)
{
    CircuitBreaker &breaker = breakers[fn];
    if (!breaker.admit(ev.timeNs)) {
        // Shed: the open breaker answers with the degraded fast path;
        // terminal, but not a good response.
        ++res.sheds;
        if (tracing())
            trace("shed#" + tag, "breaker", ev.timeNs, s.breaker.degradedNs);
        finish(ev.timeNs + s.breaker.degradedNs, ev.unit, false);
        return Fleet::badNode;
    }

    const Fleet::Route rt =
        fleet.route(fn, ev.timeNs, routeRng, preferred_node);
    if (rt.node != Fleet::badNode) {
        if (tracing())
            traceRoute(tag, rt.node, ev.timeNs);
        return rt.node;
    }
    // The admitted attempt never reaches a server, so it hands back
    // the half-open probe slot it may hold: a deferred probe keeping it
    // would be shed by its own slot on re-entry, and with nothing in
    // flight (a fleet scaled to zero) nothing would ever clear it.
    breaker.releaseProbe();
    if (rt.throttled) {
        // Per-function concurrency limit: the platform answers with a
        // fast 429-style response — terminal, shed-like (counted in
        // both sheds and throttles).
        ++res.throttles;
        ++res.sheds;
        if (tracing())
            trace("throttle#" + tag, "throttle", ev.timeNs,
                  s.fleet.throttleNs);
        finish(ev.timeNs + s.fleet.throttleNs, ev.unit, false);
        return Fleet::badNode;
    }
    // No routable node yet (scale-up lag, or every node in a fault
    // window): the attempt re-enters the timeline once capacity can
    // exist. Progress is guaranteed — either the retry time is strictly
    // later, or a zero-lag activation just made a node routable.
    svb_assert(rt.retryAtNs >= ev.timeNs,
               "unroutable attempt scheduled into the past");
    if (tracing())
        trace("scale-wait#" + tag, "scale", ev.timeNs,
              rt.retryAtNs - ev.timeNs);
    pushStart(rt.retryAtNs, ev.unit, ev.task, ev.attempt);
    return Fleet::badNode;
}

void
AttemptEngine::serve(const AttemptEvent &ev, uint32_t fn, unsigned node,
                     uint64_t exec_start_ns, const std::string &tag,
                     SpanArgs service_args)
{
    InstancePool &pool = fleet.pool(node);
    const InstancePool::Placement pl = pool.acquire(fn, exec_start_ns);
    // The node's CLASS picks the calibrated service model: on a
    // mixed-ISA fleet the same function replays different measured
    // cold/warm times depending on where it landed.
    const LoadCalibration &cal = cals[fleet.groupOf(node)][fn];
    const FaultInjector::Draw dice = faults.draw(pl.cold);

    uint64_t service =
        pl.cold ? cal.coldNs
                : cal.warmNs[warmRng.nextBounded(loadWarmSamples)];
    if (pl.cold && dice.restoreCorrupt) {
        // The restored snapshot came up corrupt: the platform falls
        // back to booting from scratch — the start still succeeds but
        // pays the boot penalty.
        service = scaledService(service, s.fault.restoreBootFactor);
        ++res.corruptRestores;
    }
    if (dice.straggler) {
        service = scaledService(service, s.fault.stragglerFactor);
        ++res.stragglers;
    }
    // Heterogeneous fleets scale the calibrated service time by the
    // node's speed factor; exactly 1.0 (the homogeneous default) leaves
    // the value bit-untouched.
    const double speed = fleet.speedFactor(node);
    if (speed != 1.0)
        service = scaledService(service, speed);
    service = std::max<uint64_t>(1, service);
    const uint64_t end = pl.startNs + service;

    if (tracing()) {
        if (pl.startNs > exec_start_ns)
            trace("queue#" + tag, "queue", exec_start_ns,
                  pl.startNs - exec_start_ns);
        trace((pl.cold ? "cold#" : "warm#") + tag, pl.cold ? "cold" : "warm",
              pl.startNs, end - pl.startNs, std::move(service_args));
    }

    AttemptOutcome outcome = AttemptOutcome::Success;
    uint64_t clientEnd = end;
    uint64_t serverEnd = end;
    if (pl.cold && dice.coldFail) {
        // The instance never comes up; the client learns at the point
        // the cold path would have completed.
        outcome = AttemptOutcome::ColdFail;
        pool.kill(pl.slot, end);
        ++res.coldStartFailures;
    } else if (dice.crash) {
        const uint64_t crashAt =
            pl.startNs +
            std::max<uint64_t>(1, uint64_t(double(service) * dice.crashFrac));
        outcome = AttemptOutcome::Crash;
        clientEnd = crashAt;
        serverEnd = crashAt;
        pool.kill(pl.slot, crashAt);
        ++res.crashes;
    } else {
        pool.release(pl.slot, end);
    }
    // The client-side timeout (from the attempt's start) wins over any
    // later outcome; the instance still finishes (or crashes)
    // server-side — abandoned work stays on the slot's timeline.
    if (s.retry.timeoutNs > 0 && clientEnd > ev.timeNs + s.retry.timeoutNs) {
        outcome = AttemptOutcome::Timeout;
        clientEnd = ev.timeNs + s.retry.timeoutNs;
        ++res.timeouts;
        if (tracing())
            trace("timeout#" + tag, "timeout", ev.timeNs, s.retry.timeoutNs);
    }
    fleet.onAttemptStart(node, fn, pl.startNs, serverEnd);
    pending[node].list.push_back(
        {ev.unit, ev.task, ev.attempt, fn, serverEnd});
    push({.timeNs = clientEnd,
          .unit = ev.unit,
          .task = ev.task,
          .attempt = ev.attempt,
          .node = node,
          .kind = EvKind::End,
          .outcome = outcome});
}

bool
AttemptEngine::retire(const AttemptEvent &ev, uint32_t fn)
{
    // A node crash empties the node's in-flight list: an End whose
    // attempt is no longer listed was replaced by a synthetic one.
    InFlight &inflight = pending[ev.node];
    std::vector<Pending> &list = inflight.list;
    const auto first = list.begin() + std::ptrdiff_t(inflight.head);
    const auto it = std::find_if(first, list.end(), [&ev](const Pending &p) {
        return p.unit == ev.unit && p.task == ev.task &&
               p.attempt == ev.attempt;
    });
    if (it == list.end())
        return false;
    std::move_backward(first, it, it + 1);
    ++inflight.head;
    // Drop the skipped front once it is half the list, so a backlog
    // that never drains does not keep every retired entry.
    if (2 * inflight.head >= list.size()) {
        list.erase(list.begin(), list.begin() + std::ptrdiff_t(inflight.head));
        inflight.head = 0;
    }
    fleet.onAttemptEnd(ev.node, fn);
    return true;
}

void
AttemptEngine::fail(const AttemptEvent &ev, uint32_t fn,
                    const std::string &retry_tag)
{
    CircuitBreaker &breaker = breakers[fn];
    const uint64_t opensBefore = breaker.timesOpened();
    breaker.onFailure(ev.timeNs);
    if (tracing() && breaker.timesOpened() > opensBefore)
        trace("breaker-open#" + std::to_string(breaker.timesOpened()),
              "breaker", ev.timeNs, s.breaker.openCooldownNs);
    if (finished(ev.unit))
        return; // a sibling task already ended the unit: no retry
    if (ev.attempt + 1 < s.retry.maxAttempts) {
        // Retry the failed task alone: a workflow's completed
        // predecessors are not re-run.
        const uint64_t delay =
            backoffs[taskIndex(ev.unit, ev.task)].nextDelayNs(retryRng);
        ++res.retries;
        if (tracing())
            trace("retry#" + retry_tag, "retry", ev.timeNs, delay);
        pushStart(ev.timeNs + delay, ev.unit, ev.task, ev.attempt + 1);
    } else {
        ++failed;
        finish(ev.timeNs, ev.unit, false);
    }
}

void
AttemptEngine::nodeFault(const AttemptEvent &ev)
{
    const NodeFaultEvent &nf = s.fleet.nodeFaults[ev.unit];
    ++res.nodeFaults;
    fleet.applyNodeFault(nf);
    if (tracing())
        trace(std::string("node-") + nodeFaultKindName(nf.kind) + "#" +
                  std::to_string(ev.unit) + "@n" + std::to_string(nf.node),
              "node", ev.timeNs, nf.durationNs);
    if (nf.kind != NodeFaultEvent::Kind::Crash)
        return;
    // Every attempt in flight on the node dies with it: hand back the
    // busy time the node will no longer serve, and let the client learn
    // of the crash right now through a synthetic end. Clearing the list
    // below makes the original ends no-ops (retire()).
    InFlight &inflight = pending[nf.node];
    for (size_t i = inflight.head; i < inflight.list.size(); ++i) {
        const Pending &p = inflight.list[i];
        if (p.serverEndNs > ev.timeNs)
            fleet.truncateBusy(nf.node, p.serverEndNs - ev.timeNs);
        fleet.onAttemptEnd(nf.node, p.fn);
        ++res.crashes;
        push({.timeNs = ev.timeNs,
              .unit = p.unit,
              .task = p.task,
              .attempt = p.attempt,
              .node = nf.node,
              .kind = EvKind::End,
              .outcome = AttemptOutcome::Crash,
              .synthetic = true});
    }
    inflight.list.clear();
    inflight.head = 0;
}

void
AttemptEngine::finish(uint64_t end_ns, uint32_t unit, bool good)
{
    ended[unit] = 1;
    const uint64_t latency = end_ns - arrivals[unit];
    res.latency.record(latency);
    (good ? res.goodLatency : res.errorLatency).record(latency);
    lastEnd = std::max(lastEnd, end_ns);
}

void
AttemptEngine::aggregate()
{
    // Pool counters aggregate across the fleet (a single-node fleet
    // reads the one pool, exactly as the pre-fleet engine did).
    uint64_t fleetBusyNs = 0;
    for (unsigned n = 0; n < fleet.nodeCount(); ++n) {
        const PoolStats &ps = fleet.pool(n).stats();
        res.coldStarts += ps.coldStarts;
        res.warmHits += ps.warmHits;
        res.evictions += ps.evictions;
        fleetBusyNs += fleet.nodeStats(n).busyNs;
    }
    for (const CircuitBreaker &breaker : breakers)
        res.breakerOpens += breaker.timesOpened();
    res.p50Ns = res.latency.percentile(50.0);
    res.p90Ns = res.latency.percentile(90.0);
    res.p99Ns = res.latency.percentile(99.0);
    res.p999Ns = res.latency.percentile(99.9);
    res.maxNs = res.latency.maxValue();
    res.goodP50Ns = res.goodLatency.percentile(50.0);
    res.goodP99Ns = res.goodLatency.percentile(99.0);
    res.errP99Ns = res.errorLatency.percentile(99.0);
    res.throughputRps = safeRatePerSec(s.invocations, lastEnd);
    res.histoFingerprint = res.latency.fingerprint();
    res.goodFingerprint = res.goodLatency.fingerprint();
    res.maxActiveNodes = fleet.maxActiveNodes();
    // Utilisation: occupied slot-time over the run's span, normalised
    // by each node's slot count (so 1.0 = every slot busy throughout).
    res.fleetUtilisation = safeShare(
        fleetBusyNs, lastEnd * s.pool.maxInstances * fleet.nodeCount());
    res.ok = true;
}

} // namespace svb::load
