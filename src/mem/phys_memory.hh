/**
 * @file
 * Guest physical memory.
 *
 * A flat little-endian byte array. Functional data always lives here;
 * the cache models are tag-only timing structures (see cache.hh), so
 * correctness never depends on cache state.
 *
 * Checkpoints are page-granular (format v2): a table of content-hashed
 * 4 KiB pages with in-image deduplication, instead of a flat dump.
 * Two extensions ride on the page table:
 *
 *  - Working-set recording: a lightweight touch hook on the access
 *    path records the set of pages the first (cold) request actually
 *    reaches; the CheckpointStore persists it in the checkpoint as
 *    the function's working set ("mem.ws").
 *
 *  - Lazy (REAP-style) restore: restoreLazy() eagerly copies in only
 *    the recorded working set and materialises every other snapshot
 *    page on first touch, from a shared refcounted PageImage
 *    (page_store.hh). Materialisation copies into this instance's
 *    private flat backing, so sharing is copy-on-write and a guest
 *    write is never visible to a sibling instance. The restored
 *    contents are byte-identical to a full restore by construction —
 *    every guest access flows through the accessors below.
 *
 * The touch hook costs one predictable branch per access when armed
 * and nothing at all otherwise (hooksActive gates it).
 */

#ifndef SVB_MEM_PHYS_MEMORY_HH
#define SVB_MEM_PHYS_MEMORY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "page_store.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace svb
{

class StatGroup;

/**
 * The guest's physical DRAM contents.
 */
class PhysMemory : public Serializable
{
  public:
    /** @param size_bytes capacity; accesses beyond it are a bug */
    explicit PhysMemory(size_t size_bytes);

    size_t size() const { return mem.size(); }

    /** Read @p len bytes at @p addr into @p dst. */
    void
    readBytes(Addr addr, void *dst, size_t len) const
    {
        if (hooksActive)
            touch(addr, len);
        readBytesRaw(addr, dst, len);
    }

    /** Write @p len bytes from @p src at @p addr. */
    void
    writeBytes(Addr addr, const void *src, size_t len)
    {
        if (hooksActive)
            touch(addr, len);
        writeBytesRaw(addr, src, len);
    }

    /** Read a little-endian integer of @p len (1/2/4/8) bytes. */
    uint64_t
    read(Addr addr, unsigned len) const
    {
        if (hooksActive)
            touch(addr, len);
        return readRaw(addr, len);
    }

    /** Write the low @p len bytes of @p value at @p addr. */
    void
    write(Addr addr, uint64_t value, unsigned len)
    {
        if (hooksActive)
            touch(addr, len);
        writeRaw(addr, value, len);
    }

    uint8_t read8(Addr a) const { return uint8_t(read(a, 1)); }
    uint16_t read16(Addr a) const { return uint16_t(read(a, 2)); }
    uint32_t read32(Addr a) const { return uint32_t(read(a, 4)); }
    uint64_t read64(Addr a) const { return read(a, 8); }
    void write8(Addr a, uint8_t v) { write(a, v, 1); }
    void write16(Addr a, uint16_t v) { write(a, v, 2); }
    void write32(Addr a, uint32_t v) { write(a, v, 4); }
    void write64(Addr a, uint64_t v) { write(a, v, 8); }

    /** Zero-fill a range. */
    void clearRange(Addr addr, size_t len);

    /** Direct pointer for bulk loading (loader use only). Forces any
     *  pending lazy pages in, since raw-pointer accesses bypass the
     *  materialise-on-touch hook. */
    uint8_t *data();
    const uint8_t *data() const;

    // --- working-set recording ---------------------------------------------
    /** Arm the touch hook: record every page accessed from now on. */
    void startTouchRecording();

    /** Disarm and return the sorted accessed-page indices. */
    std::vector<uint64_t> stopTouchRecording();

    bool touchRecording() const { return recording; }

    // --- lazy (working-set-aware) restore ----------------------------------
    /**
     * Restore from @p image instead of a full copy-in: zero the
     * backing, eagerly materialise the image's recorded working set,
     * and leave every other snapshot page to materialise on first
     * touch. @p image->memSize must match size().
     */
    void restoreLazy(std::shared_ptr<const PageImage> image);

    /** Copy in every still-pending snapshot page (serialisation and
     *  raw-pointer paths need the flat backing complete). */
    void materializeAll() const;

    /** Snapshot pages not yet materialised. */
    uint64_t pendingLazyPages() const { return remainingLazy; }

    // --- restore/page counters (host observability, cumulative) -----------
    /** Pages in the image of the last lazy restore. */
    uint64_t imagePages() const { return nImagePages; }
    /** Pages eagerly copied in by restoreLazy() working-set prefetch. */
    uint64_t prefetchedPages() const { return nPrefetched; }
    /** Pages materialised on demand after a lazy restore. */
    uint64_t lazyFaults() const { return nFaults; }
    /** Image pages currently resident (prefetched + faulted in) since
     *  the last lazy restore. */
    uint64_t residentImagePages() const { return nResident; }
    uint64_t lazyRestores() const { return nLazyRestores; }
    uint64_t fullRestores() const { return nFullRestores; }

    /** Register the counters above on a (host-only) stat group. */
    void attachStats(StatGroup &g);

    // --- checkpointing ------------------------------------------------------
    void serializeState(const std::string &prefix,
                        Checkpoint &cp) const override;
    void unserializeState(const std::string &prefix,
                          const Checkpoint &cp) override;

    /**
     * Structural validation of a checkpoint's memory image (the
     * page-table encoding, format 2; any other format fails): page
     * count, every page index/offset and every blob length are
     * checked against the recorded memory size, so a corrupt or
     * hostile file can never index out of bounds. Returns false and
     * fills @p err (warn-and-fail; the CheckpointStore treats an
     * invalid image as a corrupt file, i.e. a miss).
     */
    static bool validateCheckpoint(const std::string &prefix,
                                   const Checkpoint &cp, std::string *err);

    /**
     * Does @p cp carry any trace of a memory image under @p prefix?
     * Synthetic checkpoints (store-level tests, pure-scalar state)
     * legitimately have none and skip validation; once any memory
     * key is present the full validateCheckpoint() contract applies.
     */
    static bool hasMemoryImage(const std::string &prefix,
                               const Checkpoint &cp);

    /** Does @p cp carry a page-table (v2) memory image under
     *  @p prefix (the only format a PageImage can be built from)? */
    static bool hasPageTable(const std::string &prefix,
                             const Checkpoint &cp);

    /**
     * Build the shared PageImage of a (validated) v2 checkpoint,
     * interning every unique page into PageStore::global() — identical
     * pages across checkpoints dedup here. Includes the working set
     * when the checkpoint carries one (@c prefix+"ws").
     */
    static std::shared_ptr<const PageImage>
    buildImage(const std::string &prefix, const Checkpoint &cp);

  private:
    // Raw accessors: bounds-checked flat-array paths, no hook.
    void readBytesRaw(Addr addr, void *dst, size_t len) const;
    void writeBytesRaw(Addr addr, const void *src, size_t len);
    uint64_t readRaw(Addr addr, unsigned len) const;
    void writeRaw(Addr addr, uint64_t value, unsigned len);

    /** Per-access slow path: materialise pending pages and/or record
     *  touches over [addr, addr+len). */
    void touch(Addr addr, size_t len) const;

    /** Copy snapshot page @p page into the flat backing.
     *  @param prefetch working-set prefetch (vs on-demand fault) */
    void materializePage(uint64_t page, bool prefetch) const;

    /** Recompute hooksActive from the recording/lazy state. */
    void updateHooks() const;

    size_t numPages() const
    {
        return (mem.size() + snapshotPageBytes - 1) / snapshotPageBytes;
    }

    /** Mutable: const readers materialise lazily-restored pages. */
    mutable std::vector<uint8_t> mem;

    // Touch-recording state.
    bool recording = false;
    mutable std::vector<bool> touched;

    // Lazy-restore state.
    mutable std::shared_ptr<const PageImage> lazyImage;
    /** Per page: false while its snapshot copy is still pending. */
    mutable std::vector<bool> pageReady;
    mutable uint64_t remainingLazy = 0;

    /** Single gate on the accessor fast path. */
    mutable bool hooksActive = false;

    // Counters (cumulative across restores; host observability).
    mutable uint64_t nImagePages = 0;
    mutable uint64_t nPrefetched = 0;
    mutable uint64_t nFaults = 0;
    mutable uint64_t nResident = 0;
    mutable uint64_t nLazyRestores = 0;
    uint64_t nFullRestores = 0;
};

} // namespace svb

#endif // SVB_MEM_PHYS_MEMORY_HH
