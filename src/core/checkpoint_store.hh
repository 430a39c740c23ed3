/**
 * @file
 * Checkpoint-once / restore-many store for prepared experiments.
 *
 * Booting a cluster and settling a deployed function is by far the
 * most expensive part of a measurement, and it is identical across
 * every measurement variant (cold, warming, warm, lukewarm baseline,
 * ablation points that share the frontend configuration). This store
 * keys a full prepared-system snapshot — functional state plus warm
 * microarchitectural state — by a content fingerprint of the
 * configuration, persists it on disk, and hands it to every later
 * preparation of the same tuple.
 *
 * The invariant the whole design serves: a restored run produces
 * byte-identical statistics to an uninterrupted run
 * (tests/test_checkpoint_restore.cc enforces this).
 *
 * Environment:
 *  - SVBENCH_CKPT_DIR  directory for .ckpt files (default
 *    "build/svbench_ckpts" under the working directory — machine
 *    output never lands at the repo root; created on first publish)
 *  - SVBENCH_NO_CKPT=1 disables the store entirely (every prepare
 *    boots from scratch)
 *
 * Thread-safety: every public member may be called concurrently. A
 * pending-set plus condition variable deduplicates in-flight
 * preparations exactly like ResultCache deduplicates simulations.
 */

#ifndef SVB_CORE_CHECKPOINT_STORE_HH
#define SVB_CORE_CHECKPOINT_STORE_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "cluster.hh"
#include "mem/page_store.hh"

namespace svb
{

/**
 * Process-wide cache of prepared-system checkpoints.
 */
class CheckpointStore
{
  public:
    /** The shared instance every ExperimentRunner consults. */
    static CheckpointStore &global();

    /**
     * Content fingerprint of everything that shapes the prepared
     * state: ISA, core count, clock, memory size, seed, cache and
     * DRAM geometry, store-container selection and the deployed
     * function(s). Deliberately EXCLUDED: cache/DRAM latencies,
     * prefetcher and O3/branch-predictor parameters — none of them
     * influence functional warming, so ablation points differing only
     * in those fields share one checkpoint.
     *
     * @param interferer co-deployed function for the lukewarm study,
     *                   or nullptr for a solo deployment
     */
    static std::string fingerprint(const ClusterConfig &cfg,
                                   const FunctionSpec &spec,
                                   const FunctionSpec *interferer = nullptr);

    /** @return false when SVBENCH_NO_CKPT disabled the store. */
    bool enabled() const { return !disabled; }

    /**
     * Look up @p fp, blocking while another thread prepares it.
     *
     * @return the checkpoint (memory- or disk-cached), or nullptr with
     *         @p *claimed set: the caller must prepare the system and
     *         then publish() on success or release() on failure. A
     *         corrupt on-disk file is treated as a miss (with a
     *         warning), never a crash.
     */
    std::shared_ptr<const Checkpoint> acquire(const std::string &fp,
                                              bool *claimed);

    /** Store a freshly prepared checkpoint under @p fp (atomic file
     *  write + in-memory publication) and wake any waiters. */
    void publish(const std::string &fp, Checkpoint cp);

    /**
     * The shared page-granular image of @p cp (the checkpoint
     * acquire() returned for @p fp): built once per fingerprint,
     * cached weakly (pages live exactly as long as some restored
     * instance holds them) and interned into the global CoW
     * PageStore. Returns nullptr when @p cp predates the page-table
     * format — the caller then restores fully.
     */
    std::shared_ptr<const PageImage> imageFor(const std::string &fp,
                                              const Checkpoint &cp);

    /**
     * Record the cold-request page working set of @p fp (sorted page
     * indices from PhysMemory::stopTouchRecording()): stored into the
     * cached checkpoint as "mem.ws" and rewritten to disk atomically.
     * First writer wins — a fingerprint's working set is recorded by
     * whichever runner completes the first cold request.
     * @return true when this call attached the set
     */
    bool attachWorkingSet(const std::string &fp,
                          const std::vector<uint64_t> &pages);

    /** Drop a claim whose preparation failed; waiters re-claim. */
    void release(const std::string &fp);

    /** Test hook: forget all state and redirect the store to @p dir
     *  (re-enabling it regardless of SVBENCH_NO_CKPT). */
    void resetForTest(const std::string &dir);

    /** On-disk path for a fingerprint (hash-named .ckpt file). */
    std::string pathFor(const std::string &fp) const;

  private:
    CheckpointStore();

    std::string dir;
    bool disabled = false;

    std::mutex mtx;
    std::condition_variable pendingCv;
    std::set<std::string> pending;
    std::map<std::string, std::shared_ptr<const Checkpoint>> cache;
    /** Weak per-fingerprint PageImage cache (guarded by mtx): holds
     *  no refcount of its own, so the last restored instance going
     *  away genuinely frees the shared pages. */
    std::map<std::string, std::weak_ptr<const PageImage>> images;
};

} // namespace svb

#endif // SVB_CORE_CHECKPOINT_STORE_HH
