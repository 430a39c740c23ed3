/**
 * @file
 * The attempt engine: the one event-driven timeline that replays
 * calibrated service times for both the load runner (one task per
 * invocation) and the workflow engine (one DAG instance per
 * invocation).
 *
 * An attempt's lifecycle is the same in both: circuit-breaker admit,
 * fleet route (throttle, or scale-wait until a node is routable),
 * pool acquire, fault dice, calibrated cold/warm service scaled by the
 * node's speed, client timeout, node-crash cancellation, and retry
 * with backoff. AttemptEngine owns all of it — the StreamId
 * substreams, the Fleet and per-function breakers, the (time, seq)
 * event heap, the three latency histograms and the aggregation into
 * ReplayResult. A compile-time Policy supplies only what differs:
 *
 *   uint32_t fn(unit, task)                function a task runs
 *   unsigned preferredNode(unit, task)     placement hint (badNode: none)
 *   uint64_t transferNs(unit, task, node)  input transfer charged
 *                                          before the pool acquire
 *   std::string tag(unit, task, attempt)   span-name suffix
 *   SpanArgs transferArgs(task)            xfer span args
 *   SpanArgs serviceArgs(task)             cold/warm span args
 *   bool taskSucceeded(engine, event)      a task ended well; true
 *                                          when its unit completed
 *
 * A *unit* is what the client submits and the histograms count: an
 * invocation, or a workflow instance. Unit and task state lives in
 * flat arrays indexed by unit (times task), a few bytes per
 * invocation. Each unit's source tasks start from an arrival cursor,
 * not the event heap, so the heap holds only what is in flight: node
 * faults, Ends, retries, scale-waits and a workflow's consumer Starts,
 * 40 bytes each.
 */

#ifndef SVB_LOAD_ATTEMPT_ENGINE_HH
#define SVB_LOAD_ATTEMPT_ENGINE_HH

#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.hh"
#include "load_runner.hh"
#include "obs/trace.hh"
#include "sim/stats.hh"

namespace svb::load
{

/** Calibrated service models, indexed [class group][function]. */
using CalibrationMatrix = std::vector<std::vector<LoadCalibration>>;

/** Key-value args of one trace span. */
using SpanArgs = std::vector<std::pair<std::string, std::string>>;

/** One result-cache row: field name -> value. */
using Row = ResultCache::Row;

/**
 * Calibrate (through @p cache) every function of @p fns on every
 * calibration platform of @p s's fleet, into the matrix the engine
 * indexes by the class of the node an attempt lands on. @return false,
 * after a warning naming the scenario, when a calibration failed.
 */
bool calibrate(ResultCache &cache, const ReplayScenario &s,
               const std::vector<LoadMixEntry> &fns, CalibrationMatrix &cals);

/** The ReplayResult part of a "load" or "wflow" row (both schemas
 *  name these fields alike). */
Row packReplay(const ReplayResult &res);

/** Fill @p res's ReplayResult part from @p row. */
void unpackReplay(const std::string &scenario, const Row &row,
                  ReplayResult &res);

/** One scenario of a sweep and the functions it calibrates. */
using CalibrationNeed =
    std::pair<const ReplayScenario *, const std::vector<LoadMixEntry> *>;

/**
 * Phase 1 of replaySweep(): calibrate every (platform, function)
 * @p needs names, as one RunMode::LoadCal parallelSweep(), so the
 * ldcal rows match a serial sweep's at any worker count.
 */
void calibrateAll(ResultCache &cache,
                  const std::vector<CalibrationNeed> &needs,
                  unsigned jobs_override);

/**
 * The sweep behind loadSweep() and workflowSweep(): phase 1
 * calibrates, phase 2 runs the scenarios through memoisedSweep()
 * (core/parallel.hh), so cached rows are answered inline, scenarios
 * sharing a row key simulate once and the backing CSV is
 * byte-identical to a serial sweep. @p Rows names the Scenario and
 * Result types and supplies
 *   static constexpr const char *mode;            the row tag
 *   static const std::vector<LoadMixEntry> &functions(const Scenario &);
 *   static Result run(ResultCache &, const Scenario &);
 *   static Row pack(const Result &);
 *   static Result unpack(const std::string &scenario, const Row &);
 */
template <class Rows>
std::vector<typename Rows::Result>
replaySweep(ResultCache &cache,
            const std::vector<typename Rows::Scenario> &scenarios,
            unsigned jobs_override)
{
    using Scenario = typename Rows::Scenario;
    using Result = typename Rows::Result;
    std::vector<CalibrationNeed> needs;
    for (const Scenario &s : scenarios) {
        validateScenarioName(s.name);
        needs.emplace_back(&s, &Rows::functions(s));
    }
    calibrateAll(cache, needs, jobs_override);

    struct ScenarioRows
    {
        ResultCache &cache;

        std::string
        key(const Scenario &s) const
        {
            return cache.scenarioKey(s.cluster, s.name, Rows::mode);
        }
        std::string group(const Scenario &) const { return {}; }
        void announce(const Scenario &) const {}
        Result compute(const Scenario &s) const { return Rows::run(cache, s); }
        Row pack(const Result &res) const { return Rows::pack(res); }
        Result
        unpack(const Scenario &s, const Row &row) const
        {
            return Rows::unpack(s.name, row);
        }
    };
    return memoisedSweep(cache, scenarios, ScenarioRows{cache},
                         jobs_override);
}

/** Client-visible outcome of one attempt. */
enum class AttemptOutcome : uint8_t
{
    Success,
    ColdFail, ///< injected failed cold start
    Crash,    ///< instance crash (injected, or a node-level crash)
    Timeout,  ///< client abandoned the attempt (per-attempt timeout)
};

/** What a timeline event is. */
enum class EvKind : uint8_t
{
    /** Admit through the breaker, route across the fleet, place on
     *  the node's pool, roll the fault dice. */
    Start,
    /** Apply the client-visible outcome to the breaker and either
     *  finish the task or schedule its retry. */
    End,
    /** Apply a scheduled node-level crash/partition. */
    NodeFault,
};

/**
 * One timeline event. Events are processed in (time, seq) order — seq
 * is the push order, so ties resolve deterministically at any
 * SVBENCH_JOBS value; a source Start from the arrival cursor comes
 * before every heap event of the same time. NodeFault events reuse
 * `unit` as the index into the scenario's nodeFaults list.
 */
struct AttemptEvent
{
    uint64_t timeNs = 0;
    uint64_t seq = 0;
    uint32_t unit = 0;
    uint32_t task = 0;
    uint32_t attempt = 0;
    /** Node an End event's attempt ran on. */
    uint32_t node = 0;
    EvKind kind = EvKind::Start;
    AttemptOutcome outcome = AttemptOutcome::Success;
    /** An End synthesised by a node crash, replacing the original
     *  end of the same attempt. */
    bool synthetic = false;
};
static_assert(sizeof(AttemptEvent) <= 40,
              "the heap holds one event per attempt in flight");

/**
 * The replay timeline of one scenario. Deterministic in (scenario,
 * calibrations) alone: all randomness comes from seed-derived
 * substreams, never from threads or wall clocks. With every fault rate
 * zero and retries/breaker at their defaults it performs exactly the
 * pool operations and draws of the pre-fault single-pass replay.
 */
class AttemptEngine
{
  public:
    /**
     * Draw every unit's arrival and schedule the scenario's node
     * faults. The @p source_tasks of each unit start from the arrival
     * cursor at the unit's arrival, unit-major.
     *
     * @param num_fns        functions the tasks index (one breaker each)
     * @param tasks_per_unit tasks of one unit (1 for an invocation)
     * @param res            receives the ReplayResult fields
     * @param track_kind     trace track suffix ("load" / "wflow")
     */
    AttemptEngine(const ReplayScenario &scenario, size_t num_fns,
                  uint32_t tasks_per_unit,
                  std::vector<uint32_t> source_tasks,
                  const CalibrationMatrix &cals, ReplayResult &res,
                  const char *track_kind);

    /** Replay the whole timeline, then aggregate the ReplayResult. */
    template <class Policy>
    void run(Policy &policy);

    // --- for policies --------------------------------------------------
    uint64_t arrivalNs(uint32_t unit) const { return arrivals[unit]; }
    /** Has @p unit ended (completed, failed, shed or throttled)? */
    bool finished(uint32_t unit) const { return ended[unit] != 0; }
    /** Schedule an attempt of @p task of @p unit at @p at_ns. */
    void pushStart(uint64_t at_ns, uint32_t unit, uint32_t task,
                   uint32_t attempt = 0);
    bool tracing() const { return track != obs::badTrack; }
    void trace(const std::string &name, const char *cat, uint64_t start_ns,
               uint64_t dur_ns, SpanArgs args = {}) const;
    /** Write @p stats under SVBENCH_STATDUMP, named after the replay's
     *  trace track (trackName()) and @p part. */
    void dumpStats(const char *part, const StatGroup &stats) const;
    const Fleet &fleetState() const { return fleet; }
    /** Units whose failed task ran out of attempts. */
    uint64_t failures() const { return failed; }
    /** Latest client-visible completion of any unit. */
    uint64_t lastEndNs() const { return lastEnd; }

  private:
    template <class Policy>
    void start(Policy &policy, const AttemptEvent &ev);
    template <class Policy>
    void end(Policy &policy, const AttemptEvent &ev);

    /**
     * Admit @p ev's attempt of @p fn through its breaker and route it
     * (@p preferred_node is the placement hint). @return the node it
     * runs on, or Fleet::badNode when it was shed or throttled (both
     * end the unit) or deferred until a node is routable.
     */
    unsigned place(const AttemptEvent &ev, uint32_t fn,
                   unsigned preferred_node, const std::string &tag);
    /** Acquire a slot on @p node at @p exec_start_ns, roll the fault
     *  dice and service time, and schedule the attempt's End. */
    void serve(const AttemptEvent &ev, uint32_t fn, unsigned node,
               uint64_t exec_start_ns, const std::string &tag,
               SpanArgs service_args);
    /** A failed attempt's End: update the breaker, then retry the task
     *  (@p retry_tag names the retry span) or end the unit. */
    void fail(const AttemptEvent &ev, uint32_t fn,
              const std::string &retry_tag);
    void traceRoute(const std::string &tag, unsigned node,
                    uint64_t at_ns) const;
    void nodeFault(const AttemptEvent &ev);
    /** In-flight bookkeeping of a non-synthetic End; @return false
     *  when a node crash already superseded it. */
    bool retire(const AttemptEvent &ev, uint32_t fn);
    /** Record @p unit's client-visible end in the histograms. */
    void finish(uint64_t end_ns, uint32_t unit, bool good);
    void push(const AttemptEvent &ev);
    /** Take the next event in (time, seq) order into @p ev. @return
     *  false when the timeline is done. */
    bool next(AttemptEvent &ev);
    size_t taskIndex(uint32_t unit, uint32_t task) const
    {
        return size_t(unit) * tasksPerUnit + task;
    }
    void aggregate();

    struct Later
    {
        bool operator()(const AttemptEvent &a, const AttemptEvent &b) const
        {
            if (a.timeNs != b.timeNs)
                return a.timeNs > b.timeNs;
            return a.seq > b.seq;
        }
    };

    /** A client-side attempt in flight on a node: what a crash
     *  cancels. */
    struct Pending
    {
        uint32_t unit;
        uint32_t task;
        uint32_t attempt;
        uint32_t fn;
        uint64_t serverEndNs;
    };

    const ReplayScenario &s;
    const CalibrationMatrix &cals;
    ReplayResult &res;
    const uint32_t tasksPerUnit;
    const char *const kind; ///< "load" or "wflow"

    // Fault, retry and routing randomness live on substreams of their
    // own: runs with faults disabled never touch them, and enabling
    // faults never perturbs the arrival / mix / warm-sample sequences.
    // The scheduler never draws when only one node is routable.
    Rng warmRng;
    Rng retryRng;
    Rng routeRng;
    FaultInjector faults;
    Fleet fleet;
    std::vector<CircuitBreaker> breakers;
    obs::TrackId track = obs::badTrack;

    std::vector<uint64_t> arrivals;
    /** The arrival cursor: the source Start it serves next is
     *  sources[nextSource] of unit nextUnit, at that unit's arrival. */
    const std::vector<uint32_t> sources;
    uint32_t nextUnit = 0;
    uint32_t nextSource = 0;
    std::vector<uint8_t> ended;
    /** Per task; empty when no attempt can be retried. */
    std::vector<BackoffSchedule> backoffs;
    /**
     * One node's attempts in flight, in start order: list[head..].
     * Ends arrive close to that order, so retire() closes each gap
     * from the front: the few entries ahead of the retired one move up
     * a place and head skips the freed one, while the backlog behind
     * it stays put. (A std::deque would too, but its per-operation
     * cost slowed the short lists of unsaturated streams by about a
     * tenth; EXPERIMENTS.md.)
     */
    struct InFlight
    {
        std::vector<Pending> list;
        size_t head = 0;
    };
    /** Per node. */
    std::vector<InFlight> pending;
    std::priority_queue<AttemptEvent, std::vector<AttemptEvent>, Later>
        events;
    uint64_t seq = 0;
    uint64_t lastEnd = 0;
    uint64_t failed = 0;
};

template <class Policy>
void
AttemptEngine::run(Policy &policy)
{
    AttemptEvent ev;
    while (next(ev)) {
        if (ev.kind == EvKind::NodeFault)
            nodeFault(ev);
        else if (ev.kind == EvKind::Start)
            start(policy, ev);
        else
            end(policy, ev);
    }
    aggregate();
}

inline bool
AttemptEngine::next(AttemptEvent &ev)
{
    // A source Start orders as if pushed before every other event, so
    // the cursor wins ties: the (time, seq) order of one heap.
    if (nextUnit < s.invocations &&
        (events.empty() || arrivals[nextUnit] <= events.top().timeNs)) {
        ev = {.timeNs = arrivals[nextUnit],
              .unit = nextUnit,
              .task = sources[nextSource]};
        if (++nextSource == sources.size()) {
            nextSource = 0;
            ++nextUnit;
        }
        return true;
    }
    if (events.empty())
        return false;
    ev = events.top();
    events.pop();
    return true;
}

template <class Policy>
void
AttemptEngine::start(Policy &policy, const AttemptEvent &ev)
{
    if (finished(ev.unit))
        return; // a sibling task already ended the unit
    const uint32_t fn = policy.fn(ev.unit, ev.task);
    const std::string tag =
        tracing() ? policy.tag(ev.unit, ev.task, ev.attempt) : std::string();
    const unsigned node =
        place(ev, fn, policy.preferredNode(ev.unit, ev.task), tag);
    if (node == Fleet::badNode)
        return;
    // Inputs the task pulls before it can be placed (a workflow's
    // payloads) delay its acquire, so they queue like service does.
    const uint64_t xferNs = policy.transferNs(ev.unit, ev.task, node);
    if (tracing() && xferNs > 0)
        trace("xfer#" + tag, "xfer", ev.timeNs, xferNs,
              policy.transferArgs(ev.task));
    serve(ev, fn, node, ev.timeNs + xferNs, tag,
          tracing() ? policy.serviceArgs(ev.task) : SpanArgs{});
}

template <class Policy>
void
AttemptEngine::end(Policy &policy, const AttemptEvent &ev)
{
    const uint32_t fn = policy.fn(ev.unit, ev.task);
    if (!ev.synthetic && !retire(ev, fn))
        return; // superseded by a node-crash end
    if (ev.outcome != AttemptOutcome::Success) {
        fail(ev, fn,
             tracing() ? policy.tag(ev.unit, ev.task, ev.attempt + 1)
                       : std::string());
        return;
    }
    breakers[fn].onSuccess(ev.timeNs);
    if (policy.taskSucceeded(*this, ev)) {
        ++res.succeeded;
        finish(ev.timeNs, ev.unit, true);
    }
}

} // namespace svb::load

#endif // SVB_LOAD_ATTEMPT_ENGINE_HH
