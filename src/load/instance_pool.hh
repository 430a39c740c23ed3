/**
 * @file
 * Keep-alive instance pool for the invocation-load subsystem.
 *
 * The pool decides, per invocation, whether the cold path (fresh
 * container start) or the warm path is exercised — the keep-alive
 * policy is what turns an arrival stream into a cold-start *rate*
 * (Ustiugov et al.: the policy decides how often the cold path is
 * paid). Capacity is bounded: when every slot is busy, a request
 * queues on the earliest-free instance, which is how queueing delay
 * enters the tail.
 *
 * Policies:
 *  - AlwaysCold: every invocation boots a fresh instance (no reuse);
 *    the serverless worst case and the Figure-4.1 cold column.
 *  - AlwaysWarm: provisioned concurrency; no invocation ever pays the
 *    cold path.
 *  - FixedTtl: an idle instance is evicted keepAliveNs after its last
 *    request completes (the fixed-keep-alive policy of commercial
 *    FaaS platforms).
 *  - Lru: instances live until capacity pressure evicts the least
 *    recently used idle one (cache-style keep-alive).
 *
 * Placement is greedy in arrival order and fully deterministic: ties
 * are broken by slot index, so identical invocation streams produce
 * identical cold/warm decisions on every host and worker count.
 */

#ifndef SVB_LOAD_INSTANCE_POOL_HH
#define SVB_LOAD_INSTANCE_POOL_HH

#include <cstdint>
#include <vector>

namespace svb::load
{

/** Keep-alive / eviction policy of a pool. */
enum class KeepAlivePolicy
{
    AlwaysCold,
    AlwaysWarm,
    FixedTtl,
    Lru,
};

/** Pool parameters. */
struct PoolConfig
{
    KeepAlivePolicy policy = KeepAlivePolicy::FixedTtl;
    /** Instance slots: the concurrency limit of the deployment. */
    unsigned maxInstances = 4;
    /** FixedTtl only: idle lifetime after the last completion. */
    uint64_t keepAliveNs = 100'000'000; // 100 ms
};

/** Aggregate pool outcomes over a run. */
struct PoolStats
{
    uint64_t coldStarts = 0;
    uint64_t warmHits = 0;
    uint64_t evictions = 0;
    /** Instances torn down by kill() (fault layer: crashes and failed
     *  cold starts). Every crash is also counted as an eviction. */
    uint64_t crashes = 0;
};

/**
 * A bounded pool of function instances with keep-alive.
 *
 * Usage per invocation (in arrival order): acquire() chooses the
 * slot and the cold/warm path and the start time; the caller computes
 * the service time and release()s the slot with the completion time.
 * acquire() *reserves* the slot (busy flag + fnId) until the matching
 * release()/kill(), so two acquires at the same timestamp — or an
 * acquire landing before the matching release event fires — can never
 * double-book one slot as a warm hit.
 */
class InstancePool
{
  public:
    explicit InstancePool(const PoolConfig &config);

    /** acquire()'s decision for one invocation. */
    struct Placement
    {
        unsigned slot = 0;
        bool cold = false;
        /** Service start: the arrival time, or the queued-behind
         *  instance's free time when every slot is busy. */
        uint64_t startNs = 0;
    };

    /** Place an invocation of function @p fn_id arriving at @p now_ns. */
    Placement acquire(uint32_t fn_id, uint64_t now_ns);

    /** Complete the invocation on @p slot at @p end_ns. */
    void release(unsigned slot, uint64_t end_ns);

    /**
     * Tear @p slot down at @p at_ns without a completion: the fault
     * layer's instance crash / failed cold start. The slot goes dead
     * immediately (a later request pays a fresh cold start) and the
     * teardown counts as both a crash and an eviction. Called instead
     * of release() for the affected invocation.
     */
    void kill(unsigned slot, uint64_t at_ns);

    /**
     * Tear every slot down at @p at_ns: the fleet layer's node crash.
     * Reserved or still-busy slots count as crashes (plus evictions,
     * matching kill()); idle live instances count as plain evictions.
     * @return the number of busy/reserved slots killed.
     */
    unsigned crashAll(uint64_t at_ns);

    /**
     * Evict every live idle instance at @p at_ns: the autoscaler's
     * scale-to-zero teardown. The caller guarantees the pool is
     * quiescent (no reserved or busy slot).
     */
    void evictAll(uint64_t at_ns);

    const PoolStats &stats() const { return poolStats; }

    /** Live (kept-alive) instances right now. */
    unsigned liveInstances() const;

    /** Slots reserved or still busy at @p now_ns. */
    unsigned busySlots(uint64_t now_ns) const;

    /** Total queued work: sum over slots of (busyUntilNs - now_ns)
     *  clamped at 0 — the fleet scheduler's load metric. */
    uint64_t backlogNs(uint64_t now_ns) const;

    /** Slot metadata, exposed for tests (recycle-reset regression). */
    uint64_t slotLastUsedNs(unsigned slot) const;
    uint64_t slotBusyUntilNs(unsigned slot) const;

  private:
    struct Instance
    {
        bool live = false;
        /** Handed out by acquire(), not yet release()d/kill()ed. */
        bool reserved = false;
        uint32_t fnId = 0;
        uint64_t busyUntilNs = 0;
        uint64_t lastUsedNs = 0;
    };

    /** Apply TTL expiry to idle instances at @p now_ns. */
    void expireIdle(uint64_t now_ns);

    PoolConfig cfg;
    std::vector<Instance> slots;
    PoolStats poolStats;
};

} // namespace svb::load

#endif // SVB_LOAD_INSTANCE_POOL_HH
