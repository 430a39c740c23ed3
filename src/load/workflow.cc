#include "workflow.hh"

#include <algorithm>

#include "attempt_engine.hh"
#include "obs/stat_export.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace svb::load
{

uint64_t
TransferModel::costNs(uint64_t bytes, bool local) const
{
    if (bytes == 0)
        return 0;
    const uint64_t base = local ? localBaseNs : remoteBaseNs;
    const uint64_t rate = local ? localNsPerKib : remoteNsPerKib;
    return base + bytes * rate / 1024;
}

namespace
{

/** FNV-1a over a vector of counters: the determinism probe for the
 *  per-stage critical-path attribution. */
uint64_t
fnvOver(const std::vector<uint64_t> &values)
{
    uint64_t fp = 1469598103934665603ull;
    auto mix = [&fp](uint64_t v) {
        for (unsigned b = 0; b < 8; ++b) {
            fp ^= (v >> (8 * b)) & 0xff;
            fp *= 1099511628211ull;
        }
    };
    mix(values.size());
    for (const uint64_t v : values)
        mix(v);
    return fp;
}

/**
 * What a workflow adds to the attempt engine: the static task layout,
 * the predecessor countdown that fires consumer tasks, the
 * payload-affinity placement hint, the input transfer charged before a
 * task's acquire, and the critical-path walk of each completed
 * instance.
 *
 * Critical path: when a task's predecessor countdown reaches zero, the
 * finishing predecessor is recorded as its *determining* predecessor
 * (events resolve in time order, so that is the last-finishing one)
 * and the task's ready time is that instant. Each task's critical
 * contribution is finish - ready, which telescopes along the
 * determining chain to exactly the end-to-end latency; summing per
 * stage over all succeeded instances yields the attribution the bench
 * reports.
 */
class DagPolicy
{
  public:
    DagPolicy(const WorkflowScenario &scenario, WorkflowResult &res_arg)
        : s(scenario), res(res_arg), critNs(s.dag.stages.size(), 0),
          critXferNs(s.dag.stages.size(), 0)
    {
        // Tasks are numbered stage-major.
        for (size_t st = 0; st < s.dag.stages.size(); ++st) {
            stageOffset.push_back(uint32_t(taskStage.size()));
            taskStage.insert(taskStage.end(), s.dag.stages[st].parallelism,
                             uint32_t(st));
        }
        // All-to-all task dataflow across stage edges: every task of
        // every predecessor stage feeds every task of the consumer.
        const uint32_t T = tasks();
        const auto preds = stagePredecessors(s.dag);
        predTasks.resize(T);
        succTasks.resize(T);
        for (uint32_t t = 0; t < T; ++t) {
            for (const unsigned ps : preds[taskStage[t]]) {
                for (unsigned k = 0; k < s.dag.stages[ps].parallelism; ++k) {
                    const uint32_t p = stageOffset[ps] + k;
                    predTasks[t].push_back(p);
                    succTasks[p].push_back(t);
                }
            }
            if (predTasks[t].empty())
                sourceTasks.push_back(t);
        }
        state.resize(size_t(s.invocations) * T);
        for (size_t i = 0; i < state.size(); ++i)
            state[i].waiting = unsigned(predTasks[i % T].size());
        completed.assign(s.invocations, 0);
    }

    uint32_t tasks() const { return uint32_t(taskStage.size()); }
    const std::vector<uint32_t> &sources() const { return sourceTasks; }

    uint32_t fn(uint32_t, uint32_t task) const { return stageOf(task).fn; }

    /** PayloadAffinity: the node of the largest-payload predecessor
     *  task (ties break on the lowest predecessor index). */
    unsigned
    preferredNode(uint32_t wf, uint32_t task) const
    {
        if (stageOf(task).placement != StagePlacement::PayloadAffinity)
            return Fleet::badNode;
        unsigned preferred = Fleet::badNode;
        uint64_t bestBytes = 0;
        for (const uint32_t p : predTasks[task]) {
            const uint64_t b = stageOf(p).payloadBytes;
            if (preferred == Fleet::badNode || b > bestBytes) {
                bestBytes = b;
                preferred = at(wf, p).node;
            }
        }
        return preferred;
    }

    /** The consumer pulls every predecessor task's payload: local
     *  hand-offs at DRAM cost, cross-node hops at network cost. A
     *  retried task re-pulls its inputs (it may land elsewhere). */
    uint64_t
    transferNs(uint32_t wf, uint32_t task, unsigned node)
    {
        uint64_t xferNs = 0;
        for (const uint32_t p : predTasks[task]) {
            const uint64_t bytes = stageOf(p).payloadBytes;
            if (bytes == 0)
                continue;
            const bool local = at(wf, p).node == node;
            xferNs += s.transfer.costNs(bytes, local);
            if (local) {
                ++res.transfersLocal;
                res.bytesLocal += bytes;
            } else {
                ++res.transfersRemote;
                res.bytesRemote += bytes;
            }
        }
        res.transferNs += xferNs;
        at(wf, task).xferNs = xferNs;
        return xferNs;
    }

    std::string
    tag(uint32_t wf, uint32_t task, uint32_t attempt) const
    {
        const uint32_t st = taskStage[task];
        std::string t = "w" + std::to_string(wf) + "/" +
                        s.dag.stages[st].name + "." +
                        std::to_string(task - stageOffset[st]);
        if (attempt > 0)
            t += "~" + std::to_string(attempt);
        return t;
    }

    SpanArgs
    transferArgs(uint32_t task) const
    {
        const StageSpec &stage = stageOf(task);
        return {{"stage", stage.name},
                {"bytes", std::to_string(stage.payloadBytes)}};
    }

    SpanArgs serviceArgs(uint32_t task) const
    {
        return {{"stage", stageOf(task).name}};
    }

    /** Fire the consumers whose countdown this completion zeroes;
     *  @return true when it was the instance's last task. */
    bool
    taskSucceeded(AttemptEngine &engine, const AttemptEvent &ev)
    {
        TaskState &done = at(ev.unit, ev.task);
        done.finishNs = ev.timeNs;
        done.node = ev.node;
        if (engine.finished(ev.unit))
            return false; // a sibling already failed the instance
        for (const uint32_t u : succTasks[ev.task]) {
            TaskState &next = at(ev.unit, u);
            svb_assert(next.waiting > 0,
                       "task fired with no outstanding preds");
            if (--next.waiting == 0) {
                next.critPred = ev.task;
                next.readyNs = ev.timeNs;
                engine.pushStart(ev.timeNs, ev.unit, u);
            }
        }
        if (++completed[ev.unit] < tasks())
            return false;
        // This task finished last: walk the determining-predecessor
        // chain back to a source, which was ready at the arrival.
        for (uint32_t cur = ev.task; cur != kNoPred;) {
            const TaskState &ct = at(ev.unit, cur);
            const uint64_t ready =
                ct.critPred == kNoPred ? engine.arrivalNs(ev.unit) : ct.readyNs;
            const uint32_t cst = taskStage[cur];
            svb_assert(ct.finishNs >= ready,
                       "critical task finishes before ready");
            critNs[cst] += ct.finishNs - ready;
            critXferNs[cst] += ct.xferNs;
            if (engine.tracing())
                engine.trace("crit#" + tag(ev.unit, cur, 0), "crit", ready,
                             ct.finishNs - ready,
                             {{"stage", s.dag.stages[cst].name},
                              {"xferNs", std::to_string(ct.xferNs)}});
            cur = ct.critPred;
        }
        return true;
    }

    /** Per-stage attribution: integer permil of the total critical
     *  time (floor division, so shares sum to <= 1000). */
    void
    attribute() const
    {
        uint64_t critTotal = 0;
        for (const uint64_t v : critNs)
            critTotal += v;
        res.critPermil.assign(critNs.size(), 0);
        for (size_t st = 0; st < critNs.size(); ++st)
            res.critPermil[st] =
                critTotal ? critNs[st] * 1000 / critTotal : 0;
        res.critNsByStage = critNs;
        res.critXferNsByStage = critXferNs;
        res.critFingerprint = fnvOver(critNs);
    }

  private:
    static constexpr uint32_t kNoPred = ~0u;

    /** One task of one instance. */
    struct TaskState
    {
        /** When the last predecessor finished (non-source tasks). */
        uint64_t readyNs = 0;
        uint64_t finishNs = 0;
        /** Transfer ns charged on the latest attempt. */
        uint64_t xferNs = 0;
        /** Node of the successful attempt. */
        unsigned node = 0;
        /** Predecessor tasks still outstanding. */
        unsigned waiting = 0;
        /** The predecessor whose completion zeroed `waiting`. */
        uint32_t critPred = kNoPred;
    };

    const StageSpec &stageOf(uint32_t task) const
    {
        return s.dag.stages[taskStage[task]];
    }
    TaskState &at(uint32_t wf, uint32_t task)
    {
        return state[size_t(wf) * tasks() + task];
    }
    const TaskState &at(uint32_t wf, uint32_t task) const
    {
        return state[size_t(wf) * tasks() + task];
    }

    const WorkflowScenario &s;
    WorkflowResult &res;
    std::vector<uint32_t> stageOffset;
    std::vector<uint32_t> taskStage;
    std::vector<std::vector<uint32_t>> predTasks;
    std::vector<std::vector<uint32_t>> succTasks;
    std::vector<uint32_t> sourceTasks;
    /** [instance * tasks() + task]. */
    std::vector<TaskState> state;
    /** Tasks completed per instance; it succeeds at tasks(). */
    std::vector<uint32_t> completed;
    std::vector<uint64_t> critNs;
    std::vector<uint64_t> critXferNs;
};

/**
 * The DAG simulation: schedule every stage task of every workflow
 * instance onto the fleet. Source tasks enter the timeline
 * instance-major, so a single-stage one-task workflow drives the
 * engine exactly as a one-function load stream does (the mix substream
 * goes unused; split substreams are independent, so skipping it
 * perturbs nothing).
 */
WorkflowResult
simulateWorkflow(const WorkflowScenario &s, const CalibrationMatrix &cals)
{
    WorkflowResult res;
    res.stages = s.dag.stages.size();
    res.tasksPerWorkflow = s.dag.totalTasks();
    DagPolicy dag(s, res);
    AttemptEngine engine(s, s.functions.size(), dag.tasks(), dag.sources(),
                         cals, res, "wflow");
    engine.run(dag);
    res.failedWorkflows = engine.failures();
    res.preferredHits = engine.fleetState().preferredHits();
    res.preferredMisses = engine.fleetState().preferredMisses();
    dag.attribute();

    // wflow.* StatGroup counters through the observability layer,
    // dumped wherever SVBENCH_STATDUMP points.
    if (!obs::statDumpDir().empty()) {
        const Fleet &fleet = engine.fleetState();
        StatGroup wstats("wflow");
        auto set = [&wstats](const std::string &name,
                             const std::string &desc, uint64_t v) {
            wstats.addScalar(name, desc) += v;
        };
        set("shape.stages", "stages per workflow", res.stages);
        set("shape.tasks", "tasks per workflow instance",
            res.tasksPerWorkflow);
        set("outcome.succeeded", "workflow instances completed",
            res.succeeded);
        set("outcome.failed", "workflow instances failed",
            res.failedWorkflows);
        set("outcome.sheds", "workflow instances shed/throttled",
            res.sheds);
        set("xfer.local", "same-node payload hand-offs",
            res.transfersLocal);
        set("xfer.remote", "cross-node payload copies",
            res.transfersRemote);
        set("xfer.totalNs", "modelled transfer time charged",
            res.transferNs);
        set("sched.prefHits", "placement hints honoured",
            res.preferredHits);
        set("sched.prefMisses",
            "placement hints that fell back to the routing policy",
            res.preferredMisses);
        if (fleet.classed()) {
            for (unsigned g = 0; g < fleet.groupCount(); ++g) {
                uint64_t routed = 0;
                for (unsigned n = 0; n < fleet.nodeCount(); ++n)
                    if (fleet.groupOf(n) == g)
                        routed += fleet.nodeStats(n).routed;
                set("class." + fleet.nodeClass(g).name + ".routed",
                    "task attempts routed to the class", routed);
            }
        }
        for (size_t st = 0; st < s.dag.stages.size(); ++st)
            set("crit." + s.dag.stages[st].name,
                "critical-path ns attributed to the stage",
                res.critNsByStage[st]);
        engine.dumpStats("engine", wstats);
    }
    return res;
}

/** The "wflow" rows of replaySweep(). */
struct WorkflowRows
{
    using Scenario = WorkflowScenario;
    using Result = WorkflowResult;
    static constexpr const char *mode = "wflow";

    static const std::vector<LoadMixEntry> &
    functions(const WorkflowScenario &s)
    {
        return s.functions;
    }

    static WorkflowResult
    run(ResultCache &cache, const WorkflowScenario &s)
    {
        return WorkflowRunner(cache).run(s);
    }

    static Row
    pack(const WorkflowResult &res)
    {
        Row f = packReplay(res);
        f["failedWf"] = res.failedWorkflows;
        f["stages"] = res.stages;
        f["tasks"] = res.tasksPerWorkflow;
        f["critFp"] = res.critFingerprint;
        f["xferLocal"] = res.transfersLocal;
        f["xferRemote"] = res.transfersRemote;
        f["xferLocalBytes"] = res.bytesLocal;
        f["xferRemoteBytes"] = res.bytesRemote;
        f["xferNs"] = res.transferNs;
        f["prefHits"] = res.preferredHits;
        f["prefMisses"] = res.preferredMisses;
        for (size_t k = 0; k < kMaxCritSlots; ++k)
            f["crit" + std::to_string(k)] =
                k < res.critPermil.size() ? res.critPermil[k] : 0;
        return f;
    }

    static WorkflowResult
    unpack(const std::string &scenario, const Row &f)
    {
        WorkflowResult res;
        unpackReplay(scenario, f, res);
        res.failedWorkflows = f.at("failedWf");
        res.stages = f.at("stages");
        res.tasksPerWorkflow = f.at("tasks");
        res.critFingerprint = f.at("critFp");
        res.transfersLocal = f.at("xferLocal");
        res.transfersRemote = f.at("xferRemote");
        res.bytesLocal = f.at("xferLocalBytes");
        res.bytesRemote = f.at("xferRemoteBytes");
        res.transferNs = f.at("xferNs");
        res.preferredHits = f.at("prefHits");
        res.preferredMisses = f.at("prefMisses");
        // Attribution shares survive the round-trip for the first
        // kMaxCritSlots stages; anything beyond reads as 0 from a
        // cached row (fresh runs carry the full vector).
        res.critPermil.assign(res.stages, 0);
        for (size_t k = 0; k < std::min<size_t>(res.stages, kMaxCritSlots);
             ++k)
            res.critPermil[k] = f.at("crit" + std::to_string(k));
        return res;
    }
};

} // namespace

WorkflowResult
WorkflowRunner::run(const WorkflowScenario &scenario)
{
    validateScenarioName(scenario.name);
    svb_assert(!scenario.functions.empty(),
               "workflow scenario with no functions");
    svb_assert(scenario.invocations > 0,
               "workflow scenario with no traffic");
    scenario.dag.validate(scenario.functions.size());
    CalibrationMatrix cals;
    if (!calibrate(cache, scenario, scenario.functions, cals)) {
        WorkflowResult res;
        res.scenario = scenario.name;
        return res;
    }
    return simulateWorkflow(scenario, cals);
}

std::vector<WorkflowResult>
workflowSweep(ResultCache &cache,
              const std::vector<WorkflowScenario> &scenarios,
              unsigned jobs_override)
{
    for (const WorkflowScenario &s : scenarios)
        s.dag.validate(s.functions.size());
    return replaySweep<WorkflowRows>(cache, scenarios, jobs_override);
}

} // namespace svb::load
