/**
 * @file
 * Content-hashed snapshot page store (REAP-style restores).
 *
 * Checkpointed guest memory is page-granular: every non-zero 4 KiB
 * page of a snapshot is content-hashed and interned here, so
 * identical pages — across concurrent instances of one function, and
 * across functions sharing a runtime image — exist once on the host.
 * A PageImage is the page table of one published checkpoint: a sparse
 * map from guest page index to a shared, refcounted SnapshotPage,
 * plus the recorded cold-request working set.
 *
 * Sharing is copy-on-write by construction: a restored PhysMemory maps
 * a snapshot page read-only, in place, and the first guest write to it
 * copies the page into a private frame of that PhysMemory, so a write
 * never reaches the shared page. Refcounts are the shared_ptr counts
 * themselves; the store only holds weak references, so dropping the
 * last image (the last restored instance going away) frees the host
 * memory.
 */

#ifndef SVB_MEM_PAGE_STORE_HH
#define SVB_MEM_PAGE_STORE_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace svb
{

/** Snapshot page granularity (bytes). */
constexpr size_t snapshotPageBytes = 4096;

/** FNV-1a 64-bit over @p len bytes, zero-padded to a full page, so a
 *  short tail page hashes equal to its padded image. */
uint64_t hashSnapshotPage(const uint8_t *data, size_t len);

/** One immutable, shared 4 KiB snapshot page. */
struct SnapshotPage
{
    uint64_t hash = 0;
    std::array<uint8_t, snapshotPageBytes> bytes{};
};

/**
 * Process-wide interning store for snapshot pages.
 *
 * Thread-safe. Holds only weak references: a page lives exactly as
 * long as some PageImage or PhysMemory holds it.
 */
class PageStore
{
  public:
    static PageStore &global();

    /**
     * Intern @p len bytes (zero-padded to a full page). Returns the
     * existing shared page when an identical one is live (hash match
     * verified by memcmp, so colliding contents never alias), else a
     * fresh one.
     */
    std::shared_ptr<const SnapshotPage> intern(const uint8_t *data,
                                               size_t len);

    /** Interns answered by an already-live identical page. */
    uint64_t internHits() const;
    /** Interns that had to create a fresh page. */
    uint64_t internMisses() const;
    /** Unique pages currently kept alive by some holder. */
    size_t liveUniquePages() const;

    /** Test hook: drop bookkeeping and counters (live pages keep
     *  their holders; only the intern index forgets them). */
    void resetForTest();

  private:
    PageStore() = default;

    mutable std::mutex mtx;
    /** hash -> live candidates (collision-safe: verified by bytes). */
    std::unordered_map<uint64_t,
                       std::vector<std::weak_ptr<const SnapshotPage>>>
        index;
    uint64_t hits = 0;
    uint64_t misses = 0;
};

/**
 * The page table of one published checkpoint: what a lazy restore
 * maps its pages from. Immutable once built; shared by every concurrent
 * instance restored from the same fingerprint.
 */
struct PageImage
{
    /** Guest memory size the image was taken of. */
    size_t memSize = 0;
    /** Sparse guest-page-index -> shared page (absent pages are
     *  all-zero). Ordered for deterministic walks. */
    std::map<uint64_t, std::shared_ptr<const SnapshotPage>> pages;
    /** Cold-request working set (sorted page indices), empty until a
     *  first execution recorded it. */
    std::vector<uint64_t> workingSet;

    size_t imagePages() const { return pages.size(); }
};

} // namespace svb

#endif // SVB_MEM_PAGE_STORE_HH
