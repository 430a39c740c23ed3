/**
 * @file
 * The serverless cluster: a System plus the booted database and
 * memcached containers, the shared RPC rings, and per-experiment
 * function deployment.
 *
 * Boot follows the paper's image-preparation step: construct the
 * platform, create the store containers, run their bootstrap on the
 * Atomic CPU, then take the baseline checkpoint every experiment
 * restores from (Figure 4.1).
 */

#ifndef SVB_CORE_CLUSTER_HH
#define SVB_CORE_CLUSTER_HH

#include <memory>
#include <optional>

#include "db/store_gen.hh"
#include "obs/stat_export.hh"
#include "obs/trace.hh"
#include "stack/runtime.hh"
#include "system.hh"

namespace svb
{

/** Cluster-level configuration. */
struct ClusterConfig
{
    SystemConfig system;
    db::DbKind dbKind = db::DbKind::Cassandra;
    bool startDb = true;
    bool startMemcached = true;
    /** Upper bound for any single run phase (cycles). */
    uint64_t phaseCycleLimit = 400'000'000;
    /** Node-class tag (load::NodeClass name) when this cluster is the
     *  calibration platform of one fleet class; empty for the plain
     *  per-ISA platform. Non-empty tags namespace result-cache keys
     *  and checkpoint fingerprints as "<isa>@<tag>", so two classes
     *  sharing an ISA but differing in clock or cache budget never
     *  share calibration rows. Must be free of the result-cache
     *  metacharacters (',', '|', '='). */
    std::string classTag;
};

/**
 * One bootable serverless platform instance.
 */
class ServerlessCluster : public M5Listener
{
  public:
    explicit ServerlessCluster(const ClusterConfig &config);

    System &system() { return *machine; }
    const ClusterConfig &config() const { return cfg; }

    /**
     * Boot the platform on a fresh System: create store containers,
     * run their bootstrap to readiness (Atomic CPU), save the baseline
     * checkpoint. Idempotent.
     */
    void boot();

    /** Has boot() completed (i.e. does a baseline checkpoint exist)? */
    bool booted() const { return baseline.has_value(); }

    /**
     * Reset to the post-boot baseline: tears the System down,
     * rebuilds it identically, and restores the checkpoint. Fast
     * relative to re-running the store bootstraps.
     */
    void resetToBaseline();

    // --- prepared-state checkpointing (checkpoint-once/restore-many) -----
    /**
     * Serialise the fully prepared platform — functional AND warm
     * microarchitectural state, plus this cluster's run-control
     * counters — for the CheckpointStore. Call at the post-readiness
     * settle point, before any client gate opens.
     */
    Checkpoint savePrepared() const;

    /**
     * First half of a prepared-state restore: rebuild the System from
     * scratch. finishRestore() then restores every process, found
     * after by deployed(). A deploy() between the halves must match
     * the checkpointed process table (the kernel restore checks it).
     */
    void beginRestore();

    /** Second half: overwrite the rebuilt platform with @p cp. With a
     *  non-null @p image (the store's shared page image of @p cp) and
     *  the system's REAP gate on, guest memory restores working-set
     *  aware instead of via a full copy-in (see System). */
    void finishRestore(const Checkpoint &cp,
                       std::shared_ptr<const PageImage> image = nullptr);

    /** A deployed function-under-test. */
    struct Deployment
    {
        int serverPid = -1;
        int clientPid = -1;
    };

    /**
     * Load the function container and the load generator. The client
     * stays gated until openClientGate(). @p ring_slot selects the
     * client ring pair (slot 1 co-deploys a second function for the
     * lukewarm/interleaving studies).
     */
    Deployment deploy(const FunctionSpec &spec, const WorkloadImpl &impl,
                      unsigned ring_slot = 0);

    /** The pids deploy() gave @p spec in @p ring_slot, found by name. */
    Deployment deployed(const FunctionSpec &spec, unsigned ring_slot = 0);

    /** Release the client's start gate. */
    void openClientGate(const Deployment &deployment);

    /** Zero the client<->server ring cursors. */
    void resetFunctionRings();

    // --- run-control counters (fed by the m5 plumbing) ------------------
    uint64_t workEnds() const { return nWorkEnd; }
    uint64_t slotWorkEnds(unsigned slot) const
    {
        return nSlotWorkEnd[slot & 1];
    }

    /** Cycle at which the most recent workBegin / workEnd arrived. */
    uint64_t lastWorkBeginCycle() const { return workBeginCycle; }
    uint64_t lastWorkEndCycle() const { return workEndCycle; }

    /** Run until total workEnds reach @p target. @return success */
    bool runUntilWorkEnds(uint64_t target);

    /** Run until deployment slot @p slot has completed @p target
     *  requests (interleaving studies). @return success */
    bool runUntilSlotWorkEnds(unsigned slot, uint64_t target);

    /** Run until the store containers report ready. @return success */
    bool runUntilReady(uint64_t target_events);

    /**
     * Reset stats exactly when the next workBegin arrives, and
     * capture the post-reset stat snapshot the request's measurement
     * deltas against (see workBeginSnapshot()).
     * @param slot restrict to one deployment slot, or -1 for any
     */
    void
    armStatResetOnWorkBegin(int slot = -1)
    {
        resetOnBegin = true;
        resetOnBeginSlot = slot;
    }

    /** Is an armed stat reset still waiting for its workBegin? */
    bool statResetArmed() const { return resetOnBegin; }

    /** The stat snapshot captured at the last armed workBegin. */
    const obs::StatSnapshot &workBeginSnapshot() const { return beginSnap; }

    /**
     * Point the m5 plumbing at a trace track: every workEnd then
     * records a "request#N" span covering [workBegin, workEnd] in
     * simulated cycles. obs::badTrack (the default) disables it.
     */
    void setTraceTrack(obs::TrackId track) { traceTrack = track; }

    void m5Op(int core_id, uint64_t op, uint64_t arg) override;

  private:
    /** Zero the run-control counters and build an empty System plus
     *  the ring region: boot(), reset and restore all start here. */
    void buildSystem();
    void createStoreContainers();

    /** Load @p image as process @p name with the rings mapped. */
    int loadContainer(const LoadableImage &image, const std::string &name,
                      int core);

    /** Run in phaseCycleLimit chunks until @p count (a counter the m5
     *  plumbing advances) reaches @p target. @return false when a
     *  chunk hangs or every core halts first */
    bool runUntilCount(const uint64_t &count, uint64_t target);

    ClusterConfig cfg;
    std::unique_ptr<System> machine;
    std::optional<Checkpoint> baseline;
    Addr ringsPhys = 0;

    uint64_t nWorkBegin = 0;
    uint64_t nWorkEnd = 0;
    uint64_t nSlotWorkEnd[2] = {0, 0};
    uint64_t nReady = 0;
    uint64_t workBeginCycle = 0;
    uint64_t workEndCycle = 0;
    uint64_t stopAtWorkEnds = ~uint64_t(0);
    int stopSlot = -1; ///< -1: total count; 0/1: per-slot count
    bool resetOnBegin = false;
    int resetOnBeginSlot = -1;
    obs::StatSnapshot beginSnap;
    obs::TrackId traceTrack = obs::badTrack;
};

} // namespace svb

#endif // SVB_CORE_CLUSTER_HH
