/**
 * @file
 * Guest physical frame allocation and per-process address spaces.
 */

#ifndef SVB_GUEST_ADDRESS_SPACE_HH
#define SVB_GUEST_ADDRESS_SPACE_HH

#include "cpu/paging.hh"
#include "mem/phys_memory.hh"
#include "sim/serialize.hh"

namespace svb
{

/**
 * Bump allocator handing out 4 KiB physical frames.
 */
class FrameAllocator
{
  public:
    /**
     * @param base  first allocatable physical address (page aligned)
     * @param limit end of the allocatable range
     */
    FrameAllocator(Addr base, Addr limit) : next(base), limit(limit) {}

    /** Allocate @p count contiguous frames; fatal on exhaustion. */
    Addr allocFrames(size_t count);

    void serializeState(const std::string &prefix, Checkpoint &cp) const;
    void unserializeState(const std::string &prefix, const Checkpoint &cp);

  private:
    Addr next;
    Addr limit;
};

/**
 * One process's virtual address space: a two-level page table living
 * in guest physical memory.
 */
class AddressSpace
{
  public:
    /**
     * Create an empty address space whose tables are allocated from
     * @p frames and stored in @p phys.
     */
    AddressSpace(PhysMemory &phys, FrameAllocator &frames);

    /** Adopt the page table at @p root; allocates nothing. */
    AddressSpace(PhysMemory &phys_mem, FrameAllocator &frame_alloc, Addr root)
        : phys(phys_mem), frames(frame_alloc), rootTable(root) {}

    /** @return the page-table root physical address (for ptRoot). */
    Addr root() const { return rootTable; }

    /** Map one virtual page to an existing physical frame. */
    void mapPage(Addr vaddr, Addr paddr);

    /**
     * Allocate frames and map @p bytes of virtual space at @p vaddr.
     * @return the physical address backing the first page
     */
    Addr allocRegion(Addr vaddr, Addr bytes);

    /**
     * Map an existing physical range (shared memory) at @p vaddr.
     */
    void mapShared(Addr vaddr, Addr paddr, Addr bytes);

    /** Translate functionally; fatal when unmapped. */
    Addr translate(Addr vaddr) const;

    /** @return true when @p vaddr is mapped. */
    bool isMapped(Addr vaddr) const;

    // Convenience functional accessors through the translation.
    uint64_t read(Addr vaddr, unsigned len) const;
    void write(Addr vaddr, uint64_t value, unsigned len);
    void writeBytes(Addr vaddr, const void *src, size_t len);
    void readBytes(Addr vaddr, void *dst, size_t len) const;

  private:
    PhysMemory &phys;
    FrameAllocator &frames;
    Addr rootTable;
};

} // namespace svb

#endif // SVB_GUEST_ADDRESS_SPACE_HH
