#include "phys_memory.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <unordered_map>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace svb
{

PhysMemory::PhysMemory(size_t size_bytes) : mem(size_bytes, 0)
{
}

// --- raw flat-array accessors ----------------------------------------------

void
PhysMemory::readBytesRaw(Addr addr, void *dst, size_t len) const
{
    svb_assert(addr + len <= mem.size(), "phys read OOB: addr=", addr,
               " len=", len);
    std::memcpy(dst, mem.data() + addr, len);
}

void
PhysMemory::writeBytesRaw(Addr addr, const void *src, size_t len)
{
    svb_assert(addr + len <= mem.size(), "phys write OOB: addr=", addr,
               " len=", len);
    std::memcpy(mem.data() + addr, src, len);
}

uint64_t
PhysMemory::readRaw(Addr addr, unsigned len) const
{
    svb_assert(addr + len <= mem.size(), "phys read OOB: addr=", addr);
    uint64_t v = 0;
    for (unsigned i = 0; i < len; ++i)
        v |= uint64_t(mem[addr + i]) << (8 * i);
    return v;
}

void
PhysMemory::writeRaw(Addr addr, uint64_t value, unsigned len)
{
    svb_assert(addr + len <= mem.size(), "phys write OOB: addr=", addr);
    for (unsigned i = 0; i < len; ++i)
        mem[addr + i] = uint8_t(value >> (8 * i));
}

void
PhysMemory::clearRange(Addr addr, size_t len)
{
    if (hooksActive && len > 0)
        touch(addr, len);
    svb_assert(addr + len <= mem.size(), "phys clear OOB");
    std::memset(mem.data() + addr, 0, len);
}

uint8_t *
PhysMemory::data()
{
    materializeAll();
    return mem.data();
}

const uint8_t *
PhysMemory::data() const
{
    materializeAll();
    return mem.data();
}

// --- touch hook -------------------------------------------------------------

void
PhysMemory::updateHooks() const
{
    hooksActive = recording || remainingLazy > 0;
}

void
PhysMemory::touch(Addr addr, size_t len) const
{
    if (len == 0)
        return;
    // An OOB access still reaches the raw accessor's bounds assert;
    // the explicit clamps here only keep the bitmaps safe until then.
    const uint64_t p0 = addr / snapshotPageBytes;
    const uint64_t p1 = (addr + len - 1) / snapshotPageBytes;
    for (uint64_t p = p0; p <= p1; ++p) {
        if (remainingLazy > 0 && p < pageReady.size() && !pageReady[p])
            materializePage(p, /*prefetch=*/false);
        if (recording && p < touched.size() && !touched[p])
            touched[p] = true;
    }
}

void
PhysMemory::materializePage(uint64_t page, bool prefetch) const
{
    const auto it = lazyImage->pages.find(page);
    svb_assert(it != lazyImage->pages.end(),
               "materialise of a page absent from the image");
    const size_t off = size_t(page) * snapshotPageBytes;
    const size_t len = std::min(snapshotPageBytes, mem.size() - off);
    // Copy-on-write: the shared snapshot page is copied into this
    // instance's private backing; later guest writes land there.
    std::memcpy(mem.data() + off, it->second->bytes.data(), len);
    pageReady[page] = true;
    --remainingLazy;
    ++nResident;
    if (prefetch)
        ++nPrefetched;
    else
        ++nFaults;
    if (remainingLazy == 0)
        updateHooks();
}

void
PhysMemory::materializeAll() const
{
    if (remainingLazy == 0)
        return;
    for (const auto &[page, sp] : lazyImage->pages)
        if (!pageReady[page])
            materializePage(page, /*prefetch=*/false);
}

// --- working-set recording ---------------------------------------------------

void
PhysMemory::startTouchRecording()
{
    touched.assign(numPages(), false);
    recording = true;
    updateHooks();
}

std::vector<uint64_t>
PhysMemory::stopTouchRecording()
{
    std::vector<uint64_t> pages;
    for (uint64_t p = 0; p < touched.size(); ++p)
        if (touched[p])
            pages.push_back(p);
    recording = false;
    touched.clear();
    updateHooks();
    return pages;
}

// --- lazy restore -------------------------------------------------------------

void
PhysMemory::restoreLazy(std::shared_ptr<const PageImage> image)
{
    svb_assert(image != nullptr, "restoreLazy without an image");
    svb_assert(image->memSize == mem.size(),
               "page image memory size mismatch");
    std::fill(mem.begin(), mem.end(), 0);
    recording = false;
    touched.clear();
    lazyImage = std::move(image);
    // Pages absent from the image are all-zero, which the fill above
    // already produced: only snapshot pages stay pending.
    pageReady.assign(numPages(), true);
    remainingLazy = 0;
    for (const auto &[page, sp] : lazyImage->pages) {
        svb_assert(page < pageReady.size(), "image page index OOB");
        pageReady[page] = false;
        ++remainingLazy;
    }
    nImagePages = lazyImage->pages.size();
    nResident = 0;
    ++nLazyRestores;
    // Eager part: the recorded cold-request working set.
    for (uint64_t p : lazyImage->workingSet)
        if (p < pageReady.size() && !pageReady[p])
            materializePage(p, /*prefetch=*/true);
    updateHooks();
}

void
PhysMemory::attachStats(StatGroup &g)
{
    g.addFormula("imagePages",
                 "snapshot pages in the last restored image (host work)",
                 [this] { return double(nImagePages); });
    g.addFormula("prefetchedPages",
                 "pages eagerly restored from the working set (host work)",
                 [this] { return double(nPrefetched); });
    g.addFormula("lazyFaults",
                 "pages materialised on first touch (host work)",
                 [this] { return double(nFaults); });
    g.addFormula("residentPages",
                 "image pages resident since the last lazy restore",
                 [this] { return double(nResident); });
    g.addFormula("lazyRestores", "working-set-aware restores (host work)",
                 [this] { return double(nLazyRestores); });
    g.addFormula("fullRestores", "full-image restores (host work)",
                 [this] { return double(nFullRestores); });
}

// --- checkpointing ------------------------------------------------------------

namespace
{

/** Little-endian u64 at @p p (validation-path reads). */
uint64_t
leU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(p[i]) << (8 * i);
    return v;
}

} // namespace

void
PhysMemory::serializeState(const std::string &prefix, Checkpoint &cp) const
{
    // Page-table encoding (format v2): guest memory becomes a table
    // of content-hashed 4 KiB pages with in-image deduplication —
    // (page index, unique page id) mappings over a pool of unique
    // page payloads. Zero pages are omitted entirely (the backing
    // allocation is much larger than the touched footprint), and the
    // unique-page pool is what the CheckpointStore's shared PageImage
    // and the cross-instance CoW page store are built from.
    materializeAll();
    static const std::array<uint8_t, snapshotPageBytes> zeroPage{};
    cp.setScalar(prefix + "format", 2);
    cp.setScalar(prefix + "size", mem.size());
    cp.setScalar(prefix + "pageBytes", snapshotPageBytes);

    BlobWriter table;
    std::vector<uint8_t> pagedata;
    // In-image dedup by content hash, verified by memcmp so a hash
    // collision still yields two distinct unique pages.
    std::unordered_map<uint64_t, std::vector<uint64_t>> byHash;
    uint64_t nMappings = 0;
    uint64_t nUnique = 0;
    std::array<uint8_t, snapshotPageBytes> padded;
    for (size_t page = 0; page * snapshotPageBytes < mem.size(); ++page) {
        const size_t off = page * snapshotPageBytes;
        const size_t len = std::min(snapshotPageBytes, mem.size() - off);
        // Zero-page detection via word-wise memcmp against a static
        // zero page (not a byte-at-a-time scan): this runs over every
        // page of every checkpoint save.
        if (std::memcmp(mem.data() + off, zeroPage.data(), len) == 0)
            continue;
        const uint8_t *payload = mem.data() + off;
        if (len < snapshotPageBytes) {
            // Short tail page: compare and store zero-padded, so its
            // hash and bytes behave exactly like a full page.
            std::memcpy(padded.data(), payload, len);
            std::memset(padded.data() + len, 0, snapshotPageBytes - len);
            payload = padded.data();
        }
        const uint64_t h = hashSnapshotPage(payload, snapshotPageBytes);
        uint64_t uid = ~uint64_t(0);
        for (uint64_t cand : byHash[h]) {
            if (std::memcmp(pagedata.data() + cand * snapshotPageBytes,
                            payload, snapshotPageBytes) == 0) {
                uid = cand;
                break;
            }
        }
        if (uid == ~uint64_t(0)) {
            uid = nUnique++;
            pagedata.insert(pagedata.end(), payload,
                            payload + snapshotPageBytes);
            byHash[h].push_back(uid);
        }
        table.putU64(page);
        table.putU64(uid);
        ++nMappings;
    }
    cp.setScalar(prefix + "pages", nMappings);
    cp.setScalar(prefix + "uniquePages", nUnique);
    cp.setBlob(prefix + "table", table.take());
    cp.setBlob(prefix + "pagedata", std::move(pagedata));
}

void
PhysMemory::unserializeState(const std::string &prefix, const Checkpoint &cp)
{
    // Defence in depth: the CheckpointStore pre-validates disk images
    // and treats a bad one as a miss; reaching here with one is fatal.
    std::string err;
    if (!validateCheckpoint(prefix, cp, &err))
        svb_fatal("refusing corrupt checkpoint memory image: ", err);
    svb_assert(cp.getScalar(prefix + "size") == mem.size(),
               "checkpoint memory size mismatch");

    // A full restore replaces the contents wholesale: any pending
    // lazy pages and any in-flight touch recording die with them.
    lazyImage.reset();
    pageReady.clear();
    remainingLazy = 0;
    recording = false;
    touched.clear();
    updateHooks();

    std::fill(mem.begin(), mem.end(), 0);
    const std::vector<uint8_t> &pd = cp.getBlob(prefix + "pagedata");
    BlobReader r(cp.getBlob(prefix + "table"));
    while (!r.done()) {
        const uint64_t page = r.getU64();
        const uint64_t uid = r.getU64();
        const size_t off = size_t(page) * snapshotPageBytes;
        const size_t len = std::min(snapshotPageBytes, mem.size() - off);
        std::memcpy(mem.data() + off,
                    pd.data() + size_t(uid) * snapshotPageBytes, len);
    }
    ++nFullRestores;
}

bool
PhysMemory::validateCheckpoint(const std::string &prefix,
                               const Checkpoint &cp, std::string *err)
{
    const auto fail = [&](const std::string &msg) {
        if (err != nullptr)
            *err = prefix + ": " + msg;
        return false;
    };
    for (const char *key : {"size", "pageBytes", "pages"}) {
        if (!cp.hasScalar(prefix + key))
            return fail(std::string(key) + " scalar missing");
    }
    const uint64_t size = cp.getScalar(prefix + "size");
    if (size == 0)
        return fail("zero memory size");
    const uint64_t pageBytes = cp.getScalar(prefix + "pageBytes");
    if (pageBytes != snapshotPageBytes)
        return fail("unsupported pageBytes " + std::to_string(pageBytes));
    const uint64_t nPages = (size + pageBytes - 1) / pageBytes;
    const uint64_t pages = cp.getScalar(prefix + "pages");
    if (pages > nPages)
        return fail("page count " + std::to_string(pages) +
                    " exceeds the " + std::to_string(nPages) +
                    "-page memory");

    // Format 2, the page table over the unique-page pool, is the only
    // encoding read: any other image is a miss, prepared again.
    if (!cp.hasScalar(prefix + "format") ||
        cp.getScalar(prefix + "format") != 2)
        return fail("unknown format (want 2)");
    if (!cp.hasScalar(prefix + "uniquePages"))
        return fail("uniquePages scalar missing");
    if (!cp.hasBlob(prefix + "table") || !cp.hasBlob(prefix + "pagedata"))
        return fail("page-table blobs missing");
    const uint64_t nUnique = cp.getScalar(prefix + "uniquePages");
    const std::vector<uint8_t> &table = cp.getBlob(prefix + "table");
    const std::vector<uint8_t> &pd = cp.getBlob(prefix + "pagedata");
    if (table.size() != pages * 16)
        return fail("page-table length mismatch");
    if (nUnique > pages || pd.size() != nUnique * snapshotPageBytes)
        return fail("unique-page pool length mismatch");
    uint64_t prev = ~uint64_t(0);
    for (uint64_t i = 0; i < pages; ++i) {
        const uint64_t page = leU64(table.data() + i * 16);
        const uint64_t uid = leU64(table.data() + i * 16 + 8);
        if (page >= nPages)
            return fail("page index OOB");
        if (prev != ~uint64_t(0) && page <= prev)
            return fail("page table not strictly increasing");
        if (uid >= nUnique)
            return fail("unique page id OOB");
        prev = page;
    }

    if (cp.hasBlob(prefix + "ws")) {
        const std::vector<uint8_t> &ws = cp.getBlob(prefix + "ws");
        if (ws.size() % 8 != 0)
            return fail("working-set blob length not a multiple of 8");
        uint64_t prev = ~uint64_t(0);
        for (size_t i = 0; i < ws.size(); i += 8) {
            const uint64_t page = leU64(ws.data() + i);
            if (page >= nPages)
                return fail("working-set page index OOB");
            if (prev != ~uint64_t(0) && page <= prev)
                return fail("working set not strictly increasing");
            prev = page;
        }
    }
    return true;
}

bool
PhysMemory::hasMemoryImage(const std::string &prefix, const Checkpoint &cp)
{
    for (const char *key :
         {"size", "pageBytes", "pages", "format", "uniquePages"})
        if (cp.hasScalar(prefix + key))
            return true;
    for (const char *key : {"table", "pagedata", "ws"})
        if (cp.hasBlob(prefix + key))
            return true;
    return false;
}

bool
PhysMemory::hasPageTable(const std::string &prefix, const Checkpoint &cp)
{
    return cp.hasScalar(prefix + "format") &&
           cp.getScalar(prefix + "format") == 2 &&
           cp.hasScalar(prefix + "uniquePages") &&
           cp.hasBlob(prefix + "table") && cp.hasBlob(prefix + "pagedata");
}

std::shared_ptr<const PageImage>
PhysMemory::buildImage(const std::string &prefix, const Checkpoint &cp)
{
    svb_assert(hasPageTable(prefix, cp),
               "buildImage of a checkpoint without a page table");
    auto img = std::make_shared<PageImage>();
    img->memSize = size_t(cp.getScalar(prefix + "size"));
    const std::vector<uint8_t> &pd = cp.getBlob(prefix + "pagedata");
    const uint64_t nUnique = cp.getScalar(prefix + "uniquePages");
    // Intern every unique page once: identical pages across images
    // (and across functions) dedup into the global CoW store here.
    std::vector<std::shared_ptr<const SnapshotPage>> uniq(nUnique);
    for (uint64_t u = 0; u < nUnique; ++u)
        uniq[u] = PageStore::global().intern(
            pd.data() + size_t(u) * snapshotPageBytes, snapshotPageBytes);
    BlobReader r(cp.getBlob(prefix + "table"));
    while (!r.done()) {
        const uint64_t page = r.getU64();
        const uint64_t uid = r.getU64();
        img->pages.emplace(page, uniq[uid]);
    }
    if (cp.hasBlob(prefix + "ws")) {
        BlobReader w(cp.getBlob(prefix + "ws"));
        while (!w.done())
            img->workingSet.push_back(w.getU64());
    }
    return img;
}

} // namespace svb
