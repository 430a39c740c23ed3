/**
 * @file
 * Physical-address-indexed decoded-instruction cache, and the one
 * decode path every reader of guest code shares.
 *
 * Decoded code has two readers. O3 fetch and the Atomic CPU's
 * per-cycle oracle tick() decode through this cache, once per physical
 * address. The superblock former (superblock.hh) decodes each
 * instruction straight from the bytes and inserts nothing here.
 * Neither is ever invalidated: guest code is immutable, which
 * System::decodedCodeMismatches() checks after whole experiments
 * (test_experiment's fibonacci-go and hotel runs).
 */

#ifndef SVB_CPU_DECODE_CACHE_HH
#define SVB_CPU_DECODE_CACHE_HH

#include <algorithm>
#include <unordered_map>

#include "isa/cx86/decoder.hh"
#include "isa/isa_info.hh"
#include "isa/riscv/decoder.hh"
#include "isa/static_inst.hh"
#include "mem/phys_memory.hh"
#include "sim/stats.hh"

namespace svb
{

/**
 * Shared decode service for one ISA over one physical memory.
 *
 * Thread-safety: instance-scoped (one per System); no locking needed
 * because a System is only ever driven by a single thread.
 */
class DecodeCache
{
  public:
    DecodeCache(IsaId isa, PhysMemory &phys) : isa(isa), phys(phys) {}

    /**
     * Decode the instruction whose first byte is at physical @p paddr.
     * The returned reference stays valid for the cache's lifetime.
     */
    const StaticInst &
    decodeAt(Addr paddr)
    {
        // One-entry MRU fast path: fetch/issue re-decode the same
        // address many times in a row (O3 refetch, atomic stepping
        // through tight loops), so skip the hash lookup when the
        // address repeats.
        if (mru && paddr == mruPaddr) {
            ++nMruHits;
            return *mru;
        }

        auto it = cache.find(paddr);
        if (it == cache.end()) {
            ++nMisses;
            it = cache.emplace(paddr, decodeBytes(paddr)).first;
        } else {
            ++nHits;
        }
        // unordered_map is node-based: &it->second survives rehash.
        mruPaddr = paddr;
        mru = &it->second;
        return *mru;
    }

    /**
     * Decode the instruction at @p paddr from the current bytes and
     * cache nothing: the superblock former's path. It counts as one
     * miss, the host work it stands for.
     */
    StaticInst
    decodeUncached(Addr paddr)
    {
        ++nMisses;
        return decodeBytes(paddr);
    }

    /** Decode the raw bytes at @p paddr (the shared path; uncounted). */
    StaticInst
    decodeBytes(Addr paddr) const
    {
        if (isa == IsaId::Riscv)
            return riscv::decode(phys.read32(paddr));
        uint8_t window[16];
        // A wild fetch past the end of physical memory must not
        // underflow the window size; decode(nullptr-ish, 0) yields an
        // invalid instruction the CPU traps on.
        const size_t avail =
            paddr < phys.size()
                ? std::min<size_t>(sizeof(window), phys.size() - paddr)
                : 0;
        if (avail)
            phys.readBytes(paddr, window, avail);
        return cx86::decode(window, avail);
    }

    size_t size() const { return cache.size(); }

    /** @return cached entries that differ from a fresh decode of the
     *  current bytes (0 while guest code is immutable). */
    size_t
    staleEntries() const
    {
        size_t n = 0;
        for (const auto &[paddr, inst] : cache)
            n += !(inst == decodeBytes(paddr));
        return n;
    }

    /**
     * Host-side lookup counters. These measure simulator work (e.g.
     * how much fetching the superblock tier absorbs), not guest
     * events, so they are outside the fast/slow byte-identity
     * contract and a fast-path run legitimately shows fewer lookups.
     * Misses count every decode from bytes, superblock formation's
     * included.
     */
    uint64_t hits() const { return nHits; }
    uint64_t misses() const { return nMisses; }
    uint64_t mruHits() const { return nMruHits; }

    /** Register the lookup counters as derived stats under @p g. */
    void
    attachStats(StatGroup &g)
    {
        g.addFormula("hits", "decode cache hash hits (host work)",
                     [this] { return double(nHits); });
        g.addFormula("misses",
                     "instructions decoded from bytes (host work)",
                     [this] { return double(nMisses); });
        g.addFormula("mruHits", "decode cache MRU hits (host work)",
                     [this] { return double(nMruHits); });
        g.addFormula("entries", "distinct instruction addresses decoded",
                     [this] { return double(cache.size()); });
    }

  private:
    IsaId isa;
    PhysMemory &phys;
    std::unordered_map<Addr, StaticInst> cache;
    Addr mruPaddr = 0;
    const StaticInst *mru = nullptr;

    uint64_t nHits = 0;
    uint64_t nMisses = 0;
    uint64_t nMruHits = 0;
};

} // namespace svb

#endif // SVB_CPU_DECODE_CACHE_HH
