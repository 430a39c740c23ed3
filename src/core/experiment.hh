/**
 * @file
 * The vSwarm-u-style experiment runner (Figure 4.1).
 *
 * Per function: restore the post-boot checkpoint, start the container
 * (Atomic CPU), switch to the detailed O3 CPU with cold
 * microarchitectural state, measure request 1 (cold), functionally
 * warm through requests 2-9 on the Atomic CPU, then measure request
 * 10 (warm). Statistics are collected from the server core, reset at
 * each measured request's workBegin and sampled at its workEnd.
 *
 * Run/Result API: every cacheable mode (detailed O3, emulation, load
 * calibration) flows through one entry point —
 * ExperimentRunner::run(RunSpec) returning a RunResult variant — so
 * callers describe *what* to measure instead of hand-wiring per-mode
 * call sequences. The per-mode methods remain as the implementations
 * behind the dispatch. The lukewarm study (runLukewarm) is called
 * directly: its identity includes an interferer that no cache row
 * key carries.
 *
 * Observability: each run records simulated-time spans (boot /
 * restore / container-start / settle / cold / warming / warm) onto an
 * obs::Tracer track named <isa>/<db><flags>/<function>/<mode>, and
 * every measured request's RequestStats is a view over an
 * obs::StatSnapshot delta of the server core's stat tree (workBegin
 * snapshot vs workEnd snapshot) rather than fields plumbed one by
 * one. SVBENCH_TRACE and SVBENCH_STATDUMP enable the exports.
 */

#ifndef SVB_CORE_EXPERIMENT_HH
#define SVB_CORE_EXPERIMENT_HH

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "cluster.hh"
#include "cpu/stall_cause.hh"
#include "obs/stat_export.hh"
#include "obs/trace.hh"

namespace svb
{

/** Server-core statistics over one measured request. */
struct RequestStats
{
    uint64_t cycles = 0;
    uint64_t insts = 0;
    uint64_t uops = 0;
    double cpi = 0.0;
    uint64_t l1iMisses = 0;
    uint64_t l1dMisses = 0;
    uint64_t l2Misses = 0;
    uint64_t branches = 0;
    uint64_t branchMispredicts = 0;
    uint64_t itlbMisses = 0;
    uint64_t dtlbMisses = 0;
    /** Per-cause cycle attribution (cpu/stall_cause.hh); the causes
     *  partition the request's cycles, so the entries sum to
     *  @ref cycles on every measured request. */
    uint64_t stalls[numStallCauses] = {};

    uint64_t
    stallTotal() const
    {
        uint64_t sum = 0;
        for (unsigned c = 0; c < numStallCauses; ++c)
            sum += stalls[c];
        return sum;
    }

    /**
     * Call @p fn(row, stat, mem, value) for every counter of @p rs, in
     * row order: its result-row field name, its stat path under the
     * server core's O3 group or, when @p mem, under its memory
     * hierarchy, and the member itself. The stall causes come last,
     * named "stall.<cause>" in both places. The result rows, their
     * schema and the stat-delta view all read this one list.
     */
    template <class Self, class Fn>
    static void
    forEachCounter(Self &rs, Fn fn)
    {
        static constexpr struct
        {
            const char *row;
            const char *stat;
            bool mem;
            uint64_t RequestStats::*member;
        } named[] = {
            {"cycles", "numCycles", false, &RequestStats::cycles},
            {"insts", "numInsts", false, &RequestStats::insts},
            {"uops", "numUops", false, &RequestStats::uops},
            {"l1i", "l1i.misses", true, &RequestStats::l1iMisses},
            {"l1d", "l1d.misses", true, &RequestStats::l1dMisses},
            {"l2", "l2.misses", true, &RequestStats::l2Misses},
            {"branches", "numBranches", false, &RequestStats::branches},
            {"mispredicts", "branchMispredicts", false,
             &RequestStats::branchMispredicts},
            {"itlb", "itlb.misses", false, &RequestStats::itlbMisses},
            {"dtlb", "dtlb.misses", false, &RequestStats::dtlbMisses},
        };
        for (const auto &c : named)
            fn(std::string(c.row), std::string(c.stat), c.mem,
               rs.*c.member);
        for (unsigned c = 0; c < numStallCauses; ++c) {
            const std::string name =
                std::string("stall.") + stallCauseName(c);
            fn(name, name, false, rs.stalls[c]);
        }
    }

    /**
     * Build a view from @p get(row, stat, mem), the value of each
     * counter named as in forEachCounter(). CPI follows from the cycle
     * and instruction counts, here only.
     */
    template <class Get>
    static RequestStats
    read(Get get)
    {
        RequestStats rs;
        forEachCounter(rs, [&](const std::string &row,
                               const std::string &stat, bool mem,
                               uint64_t &value) {
            value = get(row, stat, mem);
        });
        rs.cpi = rs.insts ? double(rs.cycles) / double(rs.insts) : 0.0;
        return rs;
    }

    /**
     * Build the view over a named-stat delta: @p cpu_prefix names the
     * server core's O3 group ("system.cpu1.o3."), @p mem_prefix its
     * memory hierarchy ("system.core1."). CPI is recomputed from the
     * cycle/instruction deltas (formula deltas are meaningless).
     */
    static RequestStats fromStatDelta(const obs::StatSnapshot &delta,
                                      const std::string &cpu_prefix,
                                      const std::string &mem_prefix);
};

/** Cold and warm measurements for one function. */
struct FunctionResult
{
    std::string name;
    RequestStats cold;
    RequestStats warm;
    bool ok = false;
};

/** Lukewarm study result (Section 2.1's interleaving phenomenon). */
struct LukewarmResult
{
    std::string name;       ///< the measured function
    std::string interferer; ///< the co-located function
    RequestStats warm;      ///< isolated warm request (baseline)
    RequestStats lukewarm;  ///< warm request with interleaving
    bool ok = false;
};

/** Emulation-mode (QEMU-equivalent) latency result. */
struct EmuResult
{
    std::string name;
    uint64_t coldNs = 0;
    uint64_t warmNs = 0;
    bool ok = false;
};

/** Warm-request samples a load calibration measures (requests 2..5). */
constexpr unsigned loadWarmSamples = 4;

/**
 * Per-function service-time calibration for the load subsystem
 * (src/load): the measured cold-path latency (request 1 on a freshly
 * restored instance) and a cycle of warm-path latencies the load
 * simulation replays per warm invocation.
 */
struct LoadCalibration
{
    std::string name;
    uint64_t coldNs = 0;
    uint64_t warmNs[loadWarmSamples] = {0, 0, 0, 0};
    bool ok = false;
};

/** The measurement protocol a RunSpec selects. */
enum class RunMode
{
    Detailed, ///< Figure-4.1 cold+warm O3 measurement -> FunctionResult
    Emu,      ///< functional-emulation latencies      -> EmuResult
    LoadCal,  ///< load-subsystem calibration          -> LoadCalibration
};

/** Stable mode tag used in trace-track names and result-cache keys. */
const char *runModeName(RunMode mode);

/**
 * The trace track of a run on @p platform, "<isa>/<db><flags>/<subject>/
 * <kind>" (subject: a function or a load scenario; kind: "o3",
 * "load", ...). Every stat dump is named after its track too, so runs
 * that share a subject on two platforms trace and dump apart.
 */
std::string trackName(const ClusterConfig &platform,
                      const std::string &subject, const char *kind);

/** Mode-specific knobs; fields are read only by the noted modes. */
struct RunOptions
{
    /** Emu: which request is reported as the warm latency. */
    unsigned warmRequest = 10;
};

/**
 * One complete experiment description: what to run, on which
 * platform, under which protocol. The unified entry points
 * (ExperimentRunner::run, ResultCache::run) consume this instead of
 * per-mode argument lists.
 */
struct RunSpec
{
    RunMode mode = RunMode::Detailed;
    FunctionSpec spec;
    const WorkloadImpl *impl = nullptr;
    /** The cluster to run on; used by cache-level entry points that
     *  own runner construction (a runner's own config wins). */
    ClusterConfig platform;
    RunOptions options = {};
};

/** The per-mode outcome, tagged by the RunSpec's mode. */
using RunResult = std::variant<FunctionResult, EmuResult, LoadCalibration>;

/** @return the variant's ok flag, whatever the mode. */
bool runResultOk(const RunResult &result);

/**
 * Drives full cold/warm experiments over a cluster.
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(const ClusterConfig &config);
    ~ExperimentRunner();

    /**
     * The unified entry point: dispatch @p rs to its mode's protocol
     * on this runner's cluster (rs.platform is informational here —
     * cache-level callers use it to pick the runner).
     */
    RunResult run(const RunSpec &rs);

    /** Run the Figure 4.1 protocol for one function. */
    FunctionResult runFunction(const FunctionSpec &spec,
                               const WorkloadImpl &impl);

    /**
     * The lukewarm study (paper Section 2.1): co-locate @p interferer
     * on the same server core and interleave its invocations with
     * @p spec's, then measure spec's first request that begins after
     * warming. Its microarchitectural state has been thrashed between
     * invocations, so it lands between cold and warm — "behaving as if
     * called for the first time".
     */
    LukewarmResult runLukewarm(const FunctionSpec &spec,
                               const WorkloadImpl &impl,
                               const FunctionSpec &interferer,
                               const WorkloadImpl &interferer_impl);

    /**
     * Functional-emulation variant (the paper's QEMU studies):
     * Atomic CPU, one cycle per instruction at 1 GHz, reporting the
     * request latency in nanoseconds.
     */
    EmuResult runFunctionEmu(const FunctionSpec &spec,
                             const WorkloadImpl &impl,
                             unsigned warm_request = 10);

    ServerlessCluster &cluster() { return *clusterPtr; }

  private:
    /**
     * RunMode::LoadCal: calibrate @p spec for the load subsystem.
     * Prepare the instance (restoring the prepared-state checkpoint
     * when the store has one — a cold start under load restores the
     * post-boot snapshot rather than re-booting), then measure request
     * 1 (the cold path) and requests 2..1+loadWarmSamples (the warm
     * path) on the Atomic CPU at the configured clock.
     */
    LoadCalibration runLoadCalibration(const FunctionSpec &spec,
                                       const WorkloadImpl &impl);

    /**
     * Prepare a platform with @p spec deployed in ring slot 0 and, for
     * the lukewarm study, @p interferer in slot 1. Restore the
     * prepared-state checkpoint of this tuple when the CheckpointStore
     * has one, else boot, start and settle from scratch and publish
     * the snapshot.
     * @return the deployments by ring slot; empty when a container
     *         failed to boot
     */
    std::vector<ServerlessCluster::Deployment>
    prepare(const FunctionSpec &spec, const WorkloadImpl &impl,
            const FunctionSpec *interferer = nullptr,
            const WorkloadImpl *interferer_impl = nullptr);

    /**
     * Arm cold-request working-set capture for fingerprint @p fp when
     * the published checkpoint does not carry one yet (@p cp nullptr
     * means "just published by this runner"): touch recording notes
     * every page the first request reaches, and noteColdRequestDone()
     * attaches the set to the store (first writer wins).
     */
    void armWorkingSetCapture(const std::string &fp, const Checkpoint *cp);

    /** Stop an armed capture and attach the recorded working set. */
    void noteColdRequestDone();

    /** Convert a cycle delta to nanoseconds at the configured clock. */
    uint64_t cyclesToNs(uint64_t cycles) const;

    /** Open the experiment's trace track and point the cluster at it. */
    void beginTrace(const FunctionSpec &spec, const char *mode);

    /** Record a completed span onto the current experiment's track. */
    void span(const std::string &name, const std::string &cat,
              uint64_t start, uint64_t end);

    /**
     * Measure the server core over the request that just ended: delta
     * the stat tree against the armed workBegin snapshot, build the
     * RequestStats view, check the stall-cycle partition, and dump
     * the per-request stat tree when SVBENCH_STATDUMP is set.
     * @param phase dump-file tag ("cold", "warm", "lukewarm")
     */
    RequestStats measureServerCore(const char *phase) const;

    ClusterConfig cfg;
    std::unique_ptr<ServerlessCluster> clusterPtr;
    obs::TrackId curTrack = obs::badTrack;
    std::string curName; ///< current experiment's name (dump stem)
    /** Fingerprint whose working set the armed touch recording will
     *  feed; empty when no capture is in flight. */
    std::string pendingWsFp;
};

} // namespace svb

#endif // SVB_CORE_EXPERIMENT_HH
