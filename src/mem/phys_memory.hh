/**
 * @file
 * Guest physical memory.
 *
 * A table of 4 KiB host frames, one entry per guest page. Functional
 * data always lives here; the cache models are tag-only timing
 * structures (see cache.hh), so correctness never depends on cache
 * state. Each guest page maps one of three frames:
 *
 *  - the shared zero frame: every page starts here, so building a
 *    PhysMemory allocates only the (zero-initialised) table;
 *  - a read-only page of a shared snapshot PageImage (page_store.hh),
 *    installed by a restore: sharing is copy-on-write, the first
 *    guest write copies the page into a private frame, so a write is
 *    never visible to a sibling instance;
 *  - a private frame, allocated on the first write to the page and
 *    owned by this PhysMemory.
 *
 * Every table entry also carries two fast pointers, one for reads and
 * one for writes (the latter only on a private frame). An access that
 * lies inside one page and finds its fast pointer is an inline copy;
 * anything else takes the slow path, which bounds-checks, resolves the
 * page and installs its pointers. Two features ride on that single
 * test, "no fast pointer -> slow path":
 *
 *  - Working-set recording: startTouchRecording() drops every fast
 *    pointer, so the pages with a pointer at stopTouchRecording() are
 *    exactly the pages touched in between. The CheckpointStore
 *    persists them as the function's working set ("mem.ws").
 *
 *  - Lazy (REAP-style) restore: restoreLazy() installs the recorded
 *    working set and leaves every other snapshot page pending, without
 *    a pointer, until its first touch installs it.
 *
 * The restored contents are byte-identical to a full restore by
 * construction: every guest access flows through the accessors below.
 *
 * Checkpoints are page-granular (format 2): a table of content-hashed
 * 4 KiB pages with in-image deduplication, instead of a flat dump.
 */

#ifndef SVB_MEM_PHYS_MEMORY_HH
#define SVB_MEM_PHYS_MEMORY_HH

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "page_store.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace svb
{

class StatGroup;

// The inline accessors copy little-endian guest integers directly.
static_assert(std::endian::native == std::endian::little,
              "PhysMemory assumes a little-endian host");

/**
 * The guest's physical DRAM contents.
 */
class PhysMemory
{
  public:
    /** @param size_bytes capacity, a whole number of 4 KiB pages;
     *  accesses beyond it are a bug */
    explicit PhysMemory(size_t size_bytes);

    size_t size() const { return nFrames * snapshotPageBytes; }

    /** Read @p len bytes at @p addr into @p dst. */
    void
    readBytes(Addr addr, void *dst, size_t len) const
    {
        if (const uint8_t *p = fastRead(addr, len))
            std::memcpy(dst, p, len);
        else
            readBytesSlow(addr, dst, len);
    }

    /** Write @p len bytes from @p src at @p addr. */
    void
    writeBytes(Addr addr, const void *src, size_t len)
    {
        if (uint8_t *p = fastWrite(addr, len))
            std::memcpy(p, src, len);
        else
            writeBytesSlow(addr, src, len);
    }

    /** Read a little-endian integer of @p len (1/2/4/8) bytes. */
    uint64_t
    read(Addr addr, unsigned len) const
    {
        if (const uint8_t *p = fastRead(addr, len)) {
            switch (len) {
              case 1: return p[0];
              case 2: return load<uint16_t>(p);
              case 4: return load<uint32_t>(p);
              case 8: return load<uint64_t>(p);
            }
        }
        return readSlow(addr, len);
    }

    /** Write the low @p len bytes of @p value at @p addr. */
    void
    write(Addr addr, uint64_t value, unsigned len)
    {
        if (uint8_t *p = fastWrite(addr, len)) {
            switch (len) {
              case 1: p[0] = uint8_t(value); return;
              case 2: store(p, uint16_t(value)); return;
              case 4: store(p, uint32_t(value)); return;
              case 8: store(p, value); return;
            }
        }
        writeSlow(addr, value, len);
    }

    uint8_t read8(Addr a) const { return uint8_t(read(a, 1)); }
    uint16_t read16(Addr a) const { return uint16_t(read(a, 2)); }
    uint32_t read32(Addr a) const { return uint32_t(read(a, 4)); }
    uint64_t read64(Addr a) const { return read(a, 8); }
    void write8(Addr a, uint8_t v) { write(a, v, 1); }
    void write16(Addr a, uint16_t v) { write(a, v, 2); }
    void write32(Addr a, uint32_t v) { write(a, v, 4); }
    void write64(Addr a, uint64_t v) { write(a, v, 8); }

    /** Zero-fill a range. Whole pages return to the zero frame, so
     *  clearing never-written memory allocates nothing. */
    void clearRange(Addr addr, size_t len);

    // --- working-set recording ---------------------------------------------
    /** Record every page accessed from now on. */
    void startTouchRecording();

    /** Stop recording and return the sorted accessed-page indices. */
    std::vector<uint64_t> stopTouchRecording();

    bool touchRecording() const { return recording; }

    // --- lazy (working-set-aware) restore ----------------------------------
    /**
     * Restore from @p image instead of a full copy-in: map the image's
     * recorded working set now and every other snapshot page on first
     * touch, copy-on-write. @p image->memSize must match size(); the
     * image stays alive as long as any page maps it.
     */
    void restoreLazy(std::shared_ptr<const PageImage> image);

    /** Snapshot pages not yet mapped since the last lazy restore. */
    uint64_t pendingLazyPages() const { return remainingLazy; }

    // --- restore/page counters (host observability, cumulative) -----------
    /** Pages in the image of the last lazy restore. */
    uint64_t imagePages() const { return nImagePages; }
    /** Pages mapped eagerly by restoreLazy()'s working-set prefetch. */
    uint64_t prefetchedPages() const { return nPrefetched; }
    /** Pages mapped on first touch after a lazy restore. */
    uint64_t lazyFaults() const { return nFaults; }
    /** Image pages currently resident (prefetched + faulted in) since
     *  the last lazy restore. */
    uint64_t residentImagePages() const { return nResident; }
    uint64_t lazyRestores() const { return nLazyRestores; }
    uint64_t fullRestores() const { return nFullRestores; }

    /** Register the counters above on a (host-only) stat group. */
    void attachStats(StatGroup &g);

    // --- checkpointing ------------------------------------------------------
    void serializeState(const std::string &prefix, Checkpoint &cp) const;
    void unserializeState(const std::string &prefix, const Checkpoint &cp);

    /**
     * Structural validation of a checkpoint's memory image (the
     * page-table encoding, format 2; any other format fails): memory
     * size, page count, every page index/offset and every blob length
     * are checked, so a corrupt or hostile file can never index out of
     * bounds. Returns false and fills @p err (warn-and-fail; the
     * CheckpointStore treats an invalid image as a corrupt file, i.e.
     * a miss).
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
    /** What a guest page maps. */
    enum class FrameKind : uint8_t
    {
        Zero,    ///< the shared zero frame (a zeroed table entry)
        Pending, ///< a snapshot page a lazy restore has not mapped yet
        Shared,  ///< a snapshot page, read-only (copy-on-write)
        Private, ///< this instance's own frame
    };

    /** One table entry. All-zero bytes are a valid zero-frame entry,
     *  so the table comes from calloc() untouched. */
    struct Frame
    {
        /** Fast read pointer; null sends the access to the slow path. */
        const uint8_t *rd;
        /** Fast write pointer, only ever a private frame; null sends
         *  the access to the slow path. */
        uint8_t *wr;
        /** The frame's bytes: the snapshot page (Pending, Shared), the
         *  private frame (Private), null for the zero frame. */
        const uint8_t *host;
        FrameKind kind;
    };

    struct FreeDeleter
    {
        void operator()(Frame *p) const { std::free(p); }
    };

    template <class T>
    static T
    load(const uint8_t *p)
    {
        T v;
        std::memcpy(&v, p, sizeof(T));
        return v;
    }

    template <class T>
    static void
    store(uint8_t *p, T v)
    {
        std::memcpy(p, &v, sizeof(T));
    }

    /** Host bytes of [addr, addr+len) when they are not empty and lie
     *  in one page whose fast read pointer is installed, else null (an
     *  empty access takes the slow path, which copies nothing). */
    const uint8_t *
    fastRead(Addr addr, size_t len) const
    {
        const uint64_t page = addr / snapshotPageBytes;
        const size_t off = addr % snapshotPageBytes;
        if (page < nFrames && len > 0 && len <= snapshotPageBytes - off) {
            if (const uint8_t *f = frames[page].rd)
                return f + off;
        }
        return nullptr;
    }

    /** As fastRead(), for the fast write pointer. */
    uint8_t *
    fastWrite(Addr addr, size_t len)
    {
        const uint64_t page = addr / snapshotPageBytes;
        const size_t off = addr % snapshotPageBytes;
        if (page < nFrames && len > 0 && len <= snapshotPageBytes - off) {
            if (uint8_t *f = frames[page].wr)
                return f + off;
        }
        return nullptr;
    }

    // Slow paths: bounds check, then page by page through readable()
    // and writable().
    void readBytesSlow(Addr addr, void *dst, size_t len) const;
    void writeBytesSlow(Addr addr, const void *src, size_t len);
    uint64_t readSlow(Addr addr, unsigned len) const;
    void writeSlow(Addr addr, uint64_t value, unsigned len);

    /** Panic unless [addr, addr+len) lies inside the memory. */
    void checkRange(Addr addr, size_t len, const char *what) const;

    /** Map @p page's pending snapshot page (a lazy install). */
    void install(uint64_t page, bool prefetch) const;

    /** Resolve @p page for reading and install its fast pointers. */
    const uint8_t *readable(uint64_t page) const;

    /** Resolve @p page for writing (copying it into a private frame
     *  first unless it is one) and install its fast pointers. */
    uint8_t *writable(uint64_t page);

    /** A fresh private frame (uninitialised), owned by this memory. */
    uint8_t *newFrame();

    /** Free every private frame, return every page to the zero frame
     *  and stop any touch recording (the start of a restore). */
    void reset();

    size_t nFrames;
    /** nFrames entries from calloc(); mutable through const readers,
     *  which install fast pointers and lazy pages. */
    std::unique_ptr<Frame[], FreeDeleter> frames;
    /** The private frames, released with this PhysMemory or a restore. */
    std::vector<std::unique_ptr<uint8_t[]>> owned;

    bool recording = false;

    /** Keeps the snapshot pages of the last lazy restore alive. */
    std::shared_ptr<const PageImage> lazyImage;
    mutable uint64_t remainingLazy = 0;

    // Counters (cumulative across restores; host observability).
    uint64_t nImagePages = 0;
    mutable uint64_t nPrefetched = 0;
    mutable uint64_t nFaults = 0;
    mutable uint64_t nResident = 0;
    uint64_t nLazyRestores = 0;
    uint64_t nFullRestores = 0;
};

} // namespace svb

#endif // SVB_MEM_PHYS_MEMORY_HH
