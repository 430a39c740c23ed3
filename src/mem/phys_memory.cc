#include "phys_memory.hh"

#include <algorithm>
#include <unordered_map>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace svb
{

namespace
{

/** The shared zero frame every never-written page reads from. */
alignas(64) const uint8_t zeroFrame[snapshotPageBytes] = {};

/** Call @p fn(page, offset, n) for each in-page piece of
 *  [addr, addr+len), in address order. */
template <class Fn>
void
forEachPage(Addr addr, size_t len, Fn &&fn)
{
    while (len > 0) {
        const uint64_t page = addr / snapshotPageBytes;
        const size_t off = addr % snapshotPageBytes;
        const size_t n = std::min(len, snapshotPageBytes - off);
        fn(page, off, n);
        addr += n;
        len -= n;
    }
}

} // namespace

PhysMemory::PhysMemory(size_t size_bytes)
    : nFrames(size_bytes / snapshotPageBytes),
      frames(static_cast<Frame *>(std::calloc(nFrames, sizeof(Frame))))
{
    svb_assert(size_bytes % snapshotPageBytes == 0,
               "guest memory is not a whole number of pages: ", size_bytes);
    svb_assert(nFrames == 0 || frames != nullptr,
               "cannot allocate the frame table");
}

// --- slow paths ---------------------------------------------------------------

void
PhysMemory::checkRange(Addr addr, size_t len, const char *what) const
{
    // Written so that nothing can wrap: addr near 2^64 fails here.
    if (len > size() || addr > size() - len)
        svb_panic("phys ", what, " OOB: addr=", addr, " len=", len);
}

void
PhysMemory::readBytesSlow(Addr addr, void *dst, size_t len) const
{
    checkRange(addr, len, "read");
    uint8_t *out = static_cast<uint8_t *>(dst);
    forEachPage(addr, len, [&](uint64_t page, size_t off, size_t n) {
        std::memcpy(out, readable(page) + off, n);
        out += n;
    });
}

void
PhysMemory::writeBytesSlow(Addr addr, const void *src, size_t len)
{
    checkRange(addr, len, "write");
    const uint8_t *in = static_cast<const uint8_t *>(src);
    forEachPage(addr, len, [&](uint64_t page, size_t off, size_t n) {
        std::memcpy(writable(page) + off, in, n);
        in += n;
    });
}

uint64_t
PhysMemory::readSlow(Addr addr, unsigned len) const
{
    svb_assert(len <= 8, "phys read wider than 8 bytes: len=", len);
    uint64_t v = 0; // little-endian host: the low len bytes
    readBytesSlow(addr, &v, len);
    return v;
}

void
PhysMemory::writeSlow(Addr addr, uint64_t value, unsigned len)
{
    svb_assert(len <= 8, "phys write wider than 8 bytes: len=", len);
    writeBytesSlow(addr, &value, len);
}

void
PhysMemory::install(uint64_t page, bool prefetch) const
{
    frames[page].kind = FrameKind::Shared;
    --remainingLazy;
    ++nResident;
    if (prefetch)
        ++nPrefetched;
    else
        ++nFaults;
}

const uint8_t *
PhysMemory::readable(uint64_t page) const
{
    Frame &f = frames[page];
    if (f.kind == FrameKind::Pending)
        install(page, /*prefetch=*/false);
    f.rd = f.host != nullptr ? f.host : zeroFrame;
    return f.rd;
}

uint8_t *
PhysMemory::writable(uint64_t page)
{
    Frame &f = frames[page];
    if (f.kind == FrameKind::Pending)
        install(page, /*prefetch=*/false);
    if (f.kind != FrameKind::Private) {
        // Copy-on-write: the zero frame and snapshot pages are shared,
        // so the first write gets this instance its own copy.
        uint8_t *own = newFrame();
        if (f.host != nullptr)
            std::memcpy(own, f.host, snapshotPageBytes);
        else
            std::memset(own, 0, snapshotPageBytes);
        f.host = own;
        f.kind = FrameKind::Private;
    }
    f.wr = const_cast<uint8_t *>(f.host); // ours to write
    f.rd = f.host;
    return f.wr;
}

void
PhysMemory::clearRange(Addr addr, size_t len)
{
    checkRange(addr, len, "clear");
    forEachPage(addr, len, [&](uint64_t page, size_t off, size_t n) {
        Frame &f = frames[page];
        if (f.kind == FrameKind::Pending)
            install(page, /*prefetch=*/false);
        if (f.kind == FrameKind::Zero ||
            (f.kind == FrameKind::Shared && n == snapshotPageBytes))
            f = Frame{zeroFrame, nullptr, nullptr, FrameKind::Zero};
        else
            std::memset(writable(page) + off, 0, n);
    });
}

uint8_t *
PhysMemory::newFrame()
{
    owned.push_back(std::make_unique_for_overwrite<uint8_t[]>(
        snapshotPageBytes));
    return owned.back().get();
}

void
PhysMemory::reset()
{
    std::fill_n(frames.get(), nFrames, Frame{});
    owned.clear();
    lazyImage.reset();
    remainingLazy = 0;
    recording = false;
}

// --- working-set recording ---------------------------------------------------

void
PhysMemory::startTouchRecording()
{
    // With every fast pointer gone, each page's first access takes the
    // slow path, which reinstalls its pointer: at stop, the pages with
    // a pointer are the pages touched in between.
    for (size_t p = 0; p < nFrames; ++p) {
        frames[p].rd = nullptr;
        frames[p].wr = nullptr;
    }
    recording = true;
}

std::vector<uint64_t>
PhysMemory::stopTouchRecording()
{
    std::vector<uint64_t> pages;
    if (recording)
        for (size_t p = 0; p < nFrames; ++p)
            if (frames[p].rd != nullptr)
                pages.push_back(p);
    recording = false;
    return pages;
}

// --- lazy restore -------------------------------------------------------------

void
PhysMemory::restoreLazy(std::shared_ptr<const PageImage> image)
{
    svb_assert(image != nullptr, "restoreLazy without an image");
    svb_assert(image->memSize == size(), "page image memory size mismatch");
    reset();
    lazyImage = std::move(image);
    // Pages absent from the image stay on the zero frame; snapshot
    // pages stay pending, without a fast pointer, until first touch.
    for (const auto &[page, sp] : lazyImage->pages) {
        svb_assert(page < nFrames, "image page index OOB");
        frames[page].host = sp->bytes.data();
        frames[page].kind = FrameKind::Pending;
    }
    remainingLazy = nImagePages = lazyImage->pages.size();
    nResident = 0;
    ++nLazyRestores;
    // Eager part: the recorded cold-request working set.
    for (uint64_t p : lazyImage->workingSet) {
        if (p < nFrames && frames[p].kind == FrameKind::Pending) {
            install(p, /*prefetch=*/true);
            frames[p].rd = frames[p].host;
        }
    }
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
    // page payloads. Zero pages are omitted entirely, and the
    // unique-page pool is what the CheckpointStore's shared PageImage
    // and the cross-instance CoW page store are built from. Only
    // frames off the zero frame are visited; a pending snapshot page
    // is read in place, without mapping it.
    cp.setScalar(prefix + "format", 2);
    cp.setScalar(prefix + "size", size());
    cp.setScalar(prefix + "pageBytes", snapshotPageBytes);

    BlobWriter table;
    std::vector<uint8_t> pagedata;
    // In-image dedup by content hash, verified by memcmp so a hash
    // collision still yields two distinct unique pages.
    std::unordered_map<uint64_t, std::vector<uint64_t>> byHash;
    uint64_t nMappings = 0;
    uint64_t nUnique = 0;
    for (size_t page = 0; page < nFrames; ++page) {
        const uint8_t *payload = frames[page].host;
        // A written-then-cleared private frame can be all zero again.
        if (payload == nullptr ||
            std::memcmp(payload, zeroFrame, snapshotPageBytes) == 0)
            continue;
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
    svb_assert(cp.getScalar(prefix + "size") == size(),
               "checkpoint memory size mismatch");

    // A full restore replaces the contents wholesale: pending lazy
    // pages and any in-flight touch recording die with them. Only the
    // image's pages are copied, each into a private frame.
    reset();
    const std::vector<uint8_t> &pd = cp.getBlob(prefix + "pagedata");
    BlobReader r(cp.getBlob(prefix + "table"));
    while (!r.done()) {
        const uint64_t page = r.getU64();
        const uint64_t uid = r.getU64();
        uint8_t *own = newFrame();
        std::memcpy(own, pd.data() + size_t(uid) * snapshotPageBytes,
                    snapshotPageBytes);
        frames[page] = Frame{own, own, own, FrameKind::Private};
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
    if (size % pageBytes != 0)
        return fail("memory size " + std::to_string(size) +
                    " is not a whole number of pages");
    const uint64_t nPages = size / pageBytes;
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
