#include "instance_pool.hh"

#include "sim/logging.hh"

namespace svb::load
{

InstancePool::InstancePool(const PoolConfig &config) : cfg(config)
{
    svb_assert(cfg.maxInstances > 0, "pool needs at least one slot");
    slots.resize(cfg.maxInstances);
}

void
InstancePool::expireIdle(uint64_t now_ns)
{
    if (cfg.policy != KeepAlivePolicy::FixedTtl)
        return;
    for (Instance &inst : slots) {
        // The TTL is inclusive: an instance whose idle time has
        // *reached* keepAliveNs is gone, so a request arriving exactly
        // at the boundary pays the cold path (the platform tears the
        // container down at the deadline, not one tick later).
        if (inst.live && !inst.reserved && inst.busyUntilNs <= now_ns &&
            now_ns - inst.lastUsedNs >= cfg.keepAliveNs) {
            inst.live = false;
            ++poolStats.evictions;
        }
    }
}

InstancePool::Placement
InstancePool::acquire(uint32_t fn_id, uint64_t now_ns)
{
    expireIdle(now_ns);

    const bool reuse_allowed = cfg.policy != KeepAlivePolicy::AlwaysCold;
    const bool provisioned = cfg.policy == KeepAlivePolicy::AlwaysWarm;

    // 1. A warm idle instance of this function: reuse the most
    //    recently used one (lets the others age toward eviction).
    //    Reserved slots are invisible to every step: an acquire whose
    //    release has not happened yet holds its slot, so two arrivals
    //    at the same timestamp can never double-book one instance.
    if (reuse_allowed) {
        int best = -1;
        for (unsigned i = 0; i < slots.size(); ++i) {
            const Instance &inst = slots[i];
            if (inst.live && !inst.reserved && inst.fnId == fn_id &&
                inst.busyUntilNs <= now_ns &&
                (best < 0 ||
                 inst.lastUsedNs > slots[unsigned(best)].lastUsedNs))
                best = int(i);
        }
        if (best >= 0) {
            Instance &inst = slots[unsigned(best)];
            inst.reserved = true;
            ++poolStats.warmHits;
            return {unsigned(best), false, now_ns};
        }
    }

    // 2. A free (dead) slot: start a new instance there.
    for (unsigned i = 0; i < slots.size(); ++i) {
        if (!slots[i].live && !slots[i].reserved &&
            slots[i].busyUntilNs <= now_ns) {
            slots[i].fnId = fn_id;
            slots[i].reserved = true;
            if (provisioned)
                ++poolStats.warmHits;
            else
                ++poolStats.coldStarts;
            return {i, !provisioned, now_ns};
        }
    }

    // 3. Evict the least recently used idle instance (of any
    //    function; same-function idles were caught in step 1).
    int victim = -1;
    for (unsigned i = 0; i < slots.size(); ++i) {
        const Instance &inst = slots[i];
        if (inst.live && !inst.reserved && inst.busyUntilNs <= now_ns &&
            (victim < 0 ||
             inst.lastUsedNs < slots[unsigned(victim)].lastUsedNs))
            victim = int(i);
    }
    if (victim >= 0) {
        Instance &inst = slots[unsigned(victim)];
        inst.fnId = fn_id;
        inst.live = false;
        inst.reserved = true;
        // Recycled slot: the victim's usage history must not leak
        // into the new instance's FixedTtl age, so restart its clock
        // at the takeover time.
        inst.lastUsedNs = now_ns;
        inst.busyUntilNs = now_ns;
        ++poolStats.evictions;
        if (provisioned)
            ++poolStats.warmHits;
        else
            ++poolStats.coldStarts;
        return {unsigned(victim), !provisioned, now_ns};
    }

    // 4. Every slot is busy: queue behind the earliest-free one. If
    //    it is running this same function, the follow-up request is a
    //    warm hit (the instance stays resident); otherwise the slot
    //    is recycled for us — an eviction plus a fresh start.
    //    A reserved slot's busyUntilNs is not final until its release,
    //    so only released (busy) slots can be queued behind.
    int qi = -1;
    for (unsigned i = 0; i < slots.size(); ++i) {
        if (slots[i].reserved)
            continue;
        if (qi < 0 || slots[i].busyUntilNs < slots[unsigned(qi)].busyUntilNs)
            qi = int(i);
    }
    svb_assert(qi >= 0, "acquire with every slot reserved: the pool is "
               "oversubscribed beyond its release discipline");
    const unsigned q = unsigned(qi);
    const uint64_t start = slots[q].busyUntilNs;
    const bool same_fn =
        reuse_allowed && slots[q].live && slots[q].fnId == fn_id;
    if (same_fn) {
        slots[q].reserved = true;
        ++poolStats.warmHits;
        return {q, false, start};
    }
    if (slots[q].live)
        ++poolStats.evictions;
    slots[q].live = false;
    slots[q].fnId = fn_id;
    slots[q].reserved = true;
    // Same recycle reset as step 3: the new instance's age starts at
    // its (queued) service start, not at the victim's last use.
    slots[q].lastUsedNs = start;
    slots[q].busyUntilNs = start;
    if (provisioned)
        ++poolStats.warmHits;
    else
        ++poolStats.coldStarts;
    return {q, !provisioned, start};
}

void
InstancePool::release(unsigned slot, uint64_t end_ns)
{
    svb_assert(slot < slots.size(), "release of unknown slot");
    Instance &inst = slots[slot];
    svb_assert(inst.reserved, "release of a slot that was not acquired");
    inst.reserved = false;
    inst.busyUntilNs = end_ns;
    inst.lastUsedNs = end_ns;
    // AlwaysCold tears the instance down with the request; every
    // other policy keeps it resident (until TTL/LRU eviction).
    inst.live = cfg.policy != KeepAlivePolicy::AlwaysCold;
}

void
InstancePool::kill(unsigned slot, uint64_t at_ns)
{
    svb_assert(slot < slots.size(), "kill of unknown slot");
    Instance &inst = slots[slot];
    svb_assert(inst.reserved, "kill of a slot that was not acquired");
    inst.reserved = false;
    inst.live = false;
    inst.busyUntilNs = at_ns;
    inst.lastUsedNs = at_ns;
    ++poolStats.crashes;
    ++poolStats.evictions;
}

unsigned
InstancePool::crashAll(uint64_t at_ns)
{
    unsigned killed = 0;
    for (Instance &inst : slots) {
        const bool busy = inst.reserved || inst.busyUntilNs > at_ns;
        if (busy) {
            // In-flight work dies with the node: same accounting as a
            // per-slot kill().
            ++poolStats.crashes;
            ++poolStats.evictions;
            ++killed;
        } else if (inst.live) {
            // Idle warm instances are lost too, but nothing was
            // running on them — an eviction, not a crash.
            ++poolStats.evictions;
        }
        inst.live = false;
        inst.reserved = false;
        inst.busyUntilNs = at_ns;
        inst.lastUsedNs = at_ns;
    }
    return killed;
}

void
InstancePool::evictAll(uint64_t at_ns)
{
    for (Instance &inst : slots) {
        svb_assert(!inst.reserved && inst.busyUntilNs <= at_ns,
                   "evictAll() of a pool that is not quiescent");
        if (inst.live) {
            inst.live = false;
            ++poolStats.evictions;
        }
        inst.busyUntilNs = at_ns;
        inst.lastUsedNs = at_ns;
    }
}

uint64_t
InstancePool::slotLastUsedNs(unsigned slot) const
{
    svb_assert(slot < slots.size(), "unknown slot");
    return slots[slot].lastUsedNs;
}

uint64_t
InstancePool::slotBusyUntilNs(unsigned slot) const
{
    svb_assert(slot < slots.size(), "unknown slot");
    return slots[slot].busyUntilNs;
}

unsigned
InstancePool::liveInstances() const
{
    unsigned n = 0;
    for (const Instance &inst : slots)
        n += inst.live ? 1 : 0;
    return n;
}

unsigned
InstancePool::busySlots(uint64_t now_ns) const
{
    unsigned n = 0;
    for (const Instance &inst : slots)
        n += (inst.reserved || inst.busyUntilNs > now_ns) ? 1 : 0;
    return n;
}

uint64_t
InstancePool::backlogNs(uint64_t now_ns) const
{
    uint64_t backlog = 0;
    for (const Instance &inst : slots) {
        if (inst.busyUntilNs > now_ns)
            backlog += inst.busyUntilNs - now_ns;
    }
    return backlog;
}

} // namespace svb::load
