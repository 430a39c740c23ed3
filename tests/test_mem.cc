/**
 * @file
 * Memory system unit tests: physical memory (including the
 * page-granular checkpoint format, working-set touch recording, lazy
 * CoW restores, bounds checks and a differential test against a flat
 * reference model), tag-only caches (LRU, writebacks,
 * invalidation), the DRAM row-buffer model, and the per-core
 * hierarchies with write-invalidate coherence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <random>
#include <set>

#include "mem/hierarchy.hh"
#include "mem/phys_memory.hh"

using namespace svb;

TEST(PhysMemory, ReadWriteAllWidths)
{
    PhysMemory mem(4096);
    mem.write(100, 0x1122334455667788ULL, 8);
    EXPECT_EQ(mem.read(100, 8), 0x1122334455667788ULL);
    EXPECT_EQ(mem.read(100, 4), 0x55667788u);
    EXPECT_EQ(mem.read(100, 2), 0x7788u);
    EXPECT_EQ(mem.read(100, 1), 0x88u);
    // Little endian: byte at +1.
    EXPECT_EQ(mem.read8(101), 0x77);
    mem.write16(200, 0xbeef);
    EXPECT_EQ(mem.read16(200), 0xbeef);
}

TEST(PhysMemory, BulkAndClear)
{
    PhysMemory mem(4096);
    const char src[] = "serverless";
    mem.writeBytes(10, src, sizeof(src));
    char dst[sizeof(src)];
    mem.readBytes(10, dst, sizeof(src));
    EXPECT_STREQ(dst, src);
    mem.clearRange(10, sizeof(src));
    EXPECT_EQ(mem.read8(10), 0);
}

TEST(PhysMemory, CheckpointRoundtrip)
{
    PhysMemory mem(4096);
    mem.write64(8, 0xdeadbeef);
    Checkpoint cp;
    mem.serializeState("m.", cp);
    PhysMemory other(4096);
    other.unserializeState("m.", cp);
    EXPECT_EQ(other.read64(8), 0xdeadbeefu);
}

TEST(PhysMemory, PageTableFormatDedupsIdenticalPages)
{
    PhysMemory mem(8 * snapshotPageBytes);
    // Three identical non-zero pages plus one distinct one; the rest
    // stay zero and must not be stored at all.
    for (uint64_t page : {0ull, 3ull, 6ull}) {
        for (size_t b = 0; b < snapshotPageBytes; b += 8)
            mem.write64(page * snapshotPageBytes + b, 0xa5a5a5a5ull);
    }
    mem.write64(5 * snapshotPageBytes + 16, 0x123456789ull);

    Checkpoint cp;
    mem.serializeState("m.", cp);
    EXPECT_EQ(cp.getScalar("m.format"), 2u);
    EXPECT_EQ(cp.getScalar("m.pages"), 4u);       // 4 non-zero pages
    EXPECT_EQ(cp.getScalar("m.uniquePages"), 2u); // 2 distinct contents
    EXPECT_EQ(cp.getBlob("m.pagedata").size(), 2 * snapshotPageBytes);

    PhysMemory other(8 * snapshotPageBytes);
    other.unserializeState("m.", cp);
    for (Addr a = 0; a < mem.size(); a += 8)
        ASSERT_EQ(other.read64(a), mem.read64(a)) << "at " << a;
}

TEST(PhysMemory, ZeroPagesAreNotStored)
{
    PhysMemory mem(16 * snapshotPageBytes);
    Checkpoint cp;
    mem.serializeState("m.", cp);
    EXPECT_EQ(cp.getScalar("m.pages"), 0u);
    EXPECT_EQ(cp.getScalar("m.uniquePages"), 0u);
    EXPECT_TRUE(cp.getBlob("m.pagedata").empty());
}

TEST(PhysMemory, TouchRecordingCapturesAccessedPages)
{
    PhysMemory mem(8 * snapshotPageBytes);
    mem.write64(0, 1); // before recording: not captured
    mem.startTouchRecording();
    EXPECT_TRUE(mem.touchRecording());
    mem.write64(2 * snapshotPageBytes + 8, 2);
    (void)mem.read64(5 * snapshotPageBytes);
    // A straddling access touches both pages.
    uint8_t buf[16] = {};
    mem.readBytes(4 * snapshotPageBytes - 8, buf, sizeof(buf));
    const std::vector<uint64_t> ws = mem.stopTouchRecording();
    EXPECT_FALSE(mem.touchRecording());
    EXPECT_EQ(ws, (std::vector<uint64_t>{2, 3, 4, 5}));
    // Disarmed: later accesses record nothing.
    mem.write64(7 * snapshotPageBytes, 3);
    mem.startTouchRecording();
    EXPECT_TRUE(mem.stopTouchRecording().empty());
}

TEST(PhysMemory, LazyRestoreMatchesFullRestoreByteForByte)
{
    PhysMemory source(8 * snapshotPageBytes);
    for (uint64_t page : {1ull, 2ull, 6ull}) {
        for (size_t b = 0; b < snapshotPageBytes; b += 8)
            source.write64(page * snapshotPageBytes + b,
                           0x1000 + page * 8 + b);
    }
    Checkpoint cp;
    source.serializeState("m.", cp);

    PhysMemory full(8 * snapshotPageBytes);
    full.unserializeState("m.", cp);
    EXPECT_EQ(full.fullRestores(), 1u);

    PhysMemory lazy(8 * snapshotPageBytes);
    lazy.write64(0, 0xdead); // pre-restore dirt must vanish
    ASSERT_TRUE(PhysMemory::hasPageTable("m.", cp));
    lazy.restoreLazy(PhysMemory::buildImage("m.", cp));
    EXPECT_EQ(lazy.lazyRestores(), 1u);
    EXPECT_EQ(lazy.imagePages(), 3u);
    // No working set recorded: nothing prefetched, all pages pending.
    EXPECT_EQ(lazy.prefetchedPages(), 0u);
    EXPECT_EQ(lazy.pendingLazyPages(), 3u);

    for (Addr a = 0; a < full.size(); a += 8)
        ASSERT_EQ(lazy.read64(a), full.read64(a)) << "at " << a;
    EXPECT_EQ(lazy.pendingLazyPages(), 0u);
    EXPECT_EQ(lazy.lazyFaults(), 3u);
    EXPECT_EQ(lazy.residentImagePages(), 3u);
}

TEST(PhysMemory, WorkingSetPrefetchesEagerly)
{
    PhysMemory source(8 * snapshotPageBytes);
    for (uint64_t page : {1ull, 2ull, 6ull})
        source.write64(page * snapshotPageBytes, 0xbeef00 + page);
    source.startTouchRecording();
    (void)source.read64(2 * snapshotPageBytes);
    Checkpoint cp;
    source.serializeState("m.", cp);
    // Attach the recorded working set the way the store does.
    BlobWriter w;
    for (uint64_t p : source.stopTouchRecording())
        w.putU64(p);
    cp.setBlob("m.ws", w.take());

    PhysMemory lazy(8 * snapshotPageBytes);
    lazy.restoreLazy(PhysMemory::buildImage("m.", cp));
    EXPECT_EQ(lazy.prefetchedPages(), 1u);
    EXPECT_EQ(lazy.pendingLazyPages(), 2u);
    EXPECT_EQ(lazy.residentImagePages(), 1u);
    // The prefetched page reads without a fault.
    EXPECT_EQ(lazy.read64(2 * snapshotPageBytes), 0xbeef02u);
    EXPECT_EQ(lazy.lazyFaults(), 0u);
}

TEST(PhysMemory, CowSharingIsolatesInstances)
{
    PhysMemory source(4 * snapshotPageBytes);
    source.write64(snapshotPageBytes, 0x1111);
    Checkpoint cp;
    source.serializeState("m.", cp);
    const std::shared_ptr<const PageImage> image =
        PhysMemory::buildImage("m.", cp);

    PhysMemory a(4 * snapshotPageBytes);
    PhysMemory b(4 * snapshotPageBytes);
    a.restoreLazy(image);
    b.restoreLazy(image);
    // A guest write in one instance never reaches its sibling.
    a.write64(snapshotPageBytes, 0x2222);
    EXPECT_EQ(a.read64(snapshotPageBytes), 0x2222u);
    EXPECT_EQ(b.read64(snapshotPageBytes), 0x1111u);
    // And the shared image itself is untouched: a third restore still
    // sees the snapshot value.
    PhysMemory c(4 * snapshotPageBytes);
    c.restoreLazy(image);
    EXPECT_EQ(c.read64(snapshotPageBytes), 0x1111u);
}

TEST(PhysMemory, SerializeOfLazyInstanceMaterializesFirst)
{
    PhysMemory source(4 * snapshotPageBytes);
    source.write64(2 * snapshotPageBytes, 0x77);
    Checkpoint cp;
    source.serializeState("m.", cp);

    PhysMemory lazy(4 * snapshotPageBytes);
    lazy.restoreLazy(PhysMemory::buildImage("m.", cp));
    // Re-serialising an only-partially-materialised instance must
    // produce the complete image, not just the resident pages.
    Checkpoint cp2;
    lazy.serializeState("m.", cp2);
    PhysMemory back(4 * snapshotPageBytes);
    back.unserializeState("m.", cp2);
    EXPECT_EQ(back.read64(2 * snapshotPageBytes), 0x77u);
}

TEST(PhysMemory, ValidateCheckpointRejectsHostileImages)
{
    PhysMemory mem(4 * snapshotPageBytes);
    mem.write64(0, 1);
    mem.write64(3 * snapshotPageBytes, 2);
    Checkpoint good;
    mem.serializeState("m.", good);
    std::string err;
    EXPECT_TRUE(PhysMemory::validateCheckpoint("m.", good, &err)) << err;

    // Page count beyond the memory.
    {
        Checkpoint cp = good;
        cp.setScalar("m.pages", 1u << 20);
        EXPECT_FALSE(PhysMemory::validateCheckpoint("m.", cp, &err));
    }
    // Unsupported page size (would scale every offset wrong).
    {
        Checkpoint cp = good;
        cp.setScalar("m.pageBytes", 1u << 30);
        EXPECT_FALSE(PhysMemory::validateCheckpoint("m.", cp, &err));
    }
    // Truncated page-table blob.
    {
        Checkpoint cp = good;
        std::vector<uint8_t> table = cp.getBlob("m.table");
        table.resize(table.size() - 8);
        cp.setBlob("m.table", std::move(table));
        EXPECT_FALSE(PhysMemory::validateCheckpoint("m.", cp, &err));
    }
    // Page index out of bounds.
    {
        Checkpoint cp = good;
        std::vector<uint8_t> table = cp.getBlob("m.table");
        table[0] = 0xff; // first mapping's page index -> huge
        table[3] = 0xff;
        cp.setBlob("m.table", std::move(table));
        EXPECT_FALSE(PhysMemory::validateCheckpoint("m.", cp, &err));
    }
    // Unique-page id out of bounds.
    {
        Checkpoint cp = good;
        std::vector<uint8_t> table = cp.getBlob("m.table");
        table[8] = 0xff;
        cp.setBlob("m.table", std::move(table));
        EXPECT_FALSE(PhysMemory::validateCheckpoint("m.", cp, &err));
    }
    // Unique-page pool length mismatch.
    {
        Checkpoint cp = good;
        std::vector<uint8_t> pd = cp.getBlob("m.pagedata");
        pd.resize(pd.size() - 1);
        cp.setBlob("m.pagedata", std::move(pd));
        EXPECT_FALSE(PhysMemory::validateCheckpoint("m.", cp, &err));
    }
    // Working set with an out-of-bounds page.
    {
        Checkpoint cp = good;
        BlobWriter w;
        w.putU64(1u << 20);
        cp.setBlob("m.ws", w.take());
        EXPECT_FALSE(PhysMemory::validateCheckpoint("m.", cp, &err));
    }
    // An image without format=2 is rejected: a missing format (the
    // retired flat v1 records) or any other format number.
    {
        Checkpoint cp = good;
        cp.erasePrefix("m.format");
        EXPECT_FALSE(PhysMemory::validateCheckpoint("m.", cp, &err));
        cp.setScalar("m.format", 1);
        EXPECT_FALSE(PhysMemory::validateCheckpoint("m.", cp, &err));
        cp.setScalar("m.format", 3);
        EXPECT_FALSE(PhysMemory::validateCheckpoint("m.", cp, &err));
    }
    // The original is still fine (doctored copies never leaked back).
    EXPECT_TRUE(PhysMemory::validateCheckpoint("m.", good, &err)) << err;
}

// An address near 2^64 must not wrap the bounds check into range: every
// accessor panics instead of reading or writing beside the memory.
constexpr Addr nearTop = ~Addr(0) - 3;

TEST(PhysMemoryDeathTest, ReadNearTopOfAddressSpacePanics)
{
    PhysMemory mem(4096);
    EXPECT_DEATH((void)mem.read(nearTop, 8), "phys read OOB");
}

TEST(PhysMemoryDeathTest, WriteNearTopOfAddressSpacePanics)
{
    PhysMemory mem(4096);
    EXPECT_DEATH(mem.write(nearTop, 1, 8), "phys write OOB");
}

TEST(PhysMemoryDeathTest, ReadBytesNearTopOfAddressSpacePanics)
{
    PhysMemory mem(4096);
    uint8_t buf[8];
    EXPECT_DEATH(mem.readBytes(nearTop, buf, sizeof(buf)), "phys read OOB");
}

TEST(PhysMemoryDeathTest, WriteBytesNearTopOfAddressSpacePanics)
{
    PhysMemory mem(4096);
    const uint8_t buf[8] = {};
    EXPECT_DEATH(mem.writeBytes(nearTop, buf, sizeof(buf)),
                 "phys write OOB");
}

TEST(PhysMemoryDeathTest, ClearRangeNearTopOfAddressSpacePanics)
{
    PhysMemory mem(4096);
    EXPECT_DEATH(mem.clearRange(nearTop, 8), "phys clear OOB");
}

TEST(PhysMemoryDeathTest, AccessStraddlingTheEndPanics)
{
    PhysMemory mem(2 * snapshotPageBytes);
    EXPECT_EQ(mem.read(2 * snapshotPageBytes - 8, 8), 0u);
    EXPECT_DEATH((void)mem.read(2 * snapshotPageBytes - 4, 8),
                 "phys read OOB");
    EXPECT_DEATH(mem.clearRange(snapshotPageBytes, snapshotPageBytes + 1),
                 "phys clear OOB");
}

namespace
{

constexpr size_t fuzzPages = 16;
constexpr size_t fuzzBytes = fuzzPages * snapshotPageBytes;

/** Indices of the pages of @p bytes holding a non-zero byte. */
std::vector<uint64_t>
nonZeroPages(const std::vector<uint8_t> &bytes)
{
    std::vector<uint64_t> pages;
    for (uint64_t p = 0; p < bytes.size() / snapshotPageBytes; ++p) {
        const auto first = bytes.begin() + long(p * snapshotPageBytes);
        if (std::any_of(first, first + long(snapshotPageBytes),
                        [](uint8_t b) { return b != 0; }))
            pages.push_back(p);
    }
    return pages;
}

/**
 * One PhysMemory under test beside its reference model: a flat byte
 * vector plus the model's view of the lazy-restore and touch-recording
 * state, kept from nothing but the sequence of operations.
 */
struct ModelledMemory
{
    std::unique_ptr<PhysMemory> mem =
        std::make_unique<PhysMemory>(fuzzBytes);
    std::vector<uint8_t> bytes = std::vector<uint8_t>(fuzzBytes, 0);
    /** Image pages the last lazy restore has not mapped yet. */
    std::set<uint64_t> pending;
    bool lazy = false;
    bool recording = false;
    std::set<uint64_t> touched;
    /** Cumulative counters just before the last lazy restore. */
    uint64_t prefetched0 = 0;
    uint64_t faults0 = 0;

    /** An access of @p len bytes at @p addr touches its pages. */
    void
    touch(Addr addr, size_t len)
    {
        if (len == 0)
            return;
        for (uint64_t p = addr / snapshotPageBytes;
             p <= (addr + len - 1) / snapshotPageBytes; ++p) {
            pending.erase(p);
            if (recording)
                touched.insert(p);
        }
    }

    /** Either restore ends a recording and replaces the contents. */
    void
    restored(const std::vector<uint8_t> &snapshot)
    {
        bytes = snapshot;
        recording = false;
        touched.clear();
        pending.clear();
    }

    void
    checkCounters() const
    {
        ASSERT_EQ(mem->pendingLazyPages(), pending.size());
        ASSERT_EQ(mem->prefetchedPages() - prefetched0 + mem->lazyFaults() -
                      faults0,
                  mem->residentImagePages());
        if (lazy) {
            ASSERT_EQ(mem->residentImagePages() + pending.size(),
                      mem->imagePages());
        }
        ASSERT_EQ(mem->touchRecording(), recording);
    }
};

class PhysMemoryDifferential : public ::testing::TestWithParam<uint64_t>
{
};

} // namespace

TEST_P(PhysMemoryDifferential, MatchesAFlatReferenceModel)
{
    std::mt19937_64 rng(GetParam());
    const auto pick = [&rng](uint64_t n) { return rng() % n; };
    // Half the accesses sit on a page boundary, straddling it when
    // longer than a byte.
    const auto addrFor = [&](size_t len) -> Addr {
        if (pick(2) == 0) {
            const Addr edge = (1 + pick(fuzzPages - 1)) * snapshotPageBytes;
            const Addr back = pick(len + 1);
            return std::min<Addr>(edge > back ? edge - back : 0,
                                  fuzzBytes - len);
        }
        return pick(fuzzBytes - len + 1);
    };
    // Mostly short, sometimes spanning up to three pages.
    const auto bulkLen = [&]() -> size_t {
        return pick(4) == 0 ? pick(2 * snapshotPageBytes + 2) : pick(65);
    };

    ModelledMemory inst[2];
    std::vector<uint64_t> lastRecorded;
    std::shared_ptr<const PageImage> image;
    std::vector<uint8_t> imageBytes;

    for (unsigned op = 0; op < 3000; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        ModelledMemory &m = inst[pick(2)];
        const uint64_t kind = pick(100);
        if (kind < 30) {
            const unsigned w = 1u << pick(4);
            const Addr a = addrFor(w);
            uint64_t want = 0;
            for (unsigned i = 0; i < w; ++i)
                want |= uint64_t(m.bytes[a + i]) << (8 * i);
            ASSERT_EQ(m.mem->read(a, w), want) << "read " << a << "/" << w;
            m.touch(a, w);
        } else if (kind < 55) {
            const unsigned w = 1u << pick(4);
            const Addr a = addrFor(w);
            const uint64_t v = rng();
            m.mem->write(a, v, w);
            for (unsigned i = 0; i < w; ++i)
                m.bytes[a + i] = uint8_t(v >> (8 * i));
            m.touch(a, w);
        } else if (kind < 63) {
            const size_t len = bulkLen();
            const Addr a = addrFor(len);
            std::vector<uint8_t> got(len);
            m.mem->readBytes(a, got.data(), len);
            ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                   m.bytes.begin() + long(a)))
                << "readBytes " << a << "/" << len;
            m.touch(a, len);
        } else if (kind < 71) {
            const size_t len = bulkLen();
            const Addr a = addrFor(len);
            std::vector<uint8_t> data(len);
            for (uint8_t &b : data)
                b = uint8_t(rng());
            m.mem->writeBytes(a, data.data(), len);
            std::copy(data.begin(), data.end(), m.bytes.begin() + long(a));
            m.touch(a, len);
        } else if (kind < 77) {
            // Whole pages (often never written) or an arbitrary range.
            size_t len;
            Addr a;
            if (pick(2) == 0) {
                len = (1 + pick(3)) * snapshotPageBytes;
                a = pick(fuzzPages - len / snapshotPageBytes + 1) *
                    snapshotPageBytes;
            } else {
                len = bulkLen();
                a = addrFor(len);
            }
            m.mem->clearRange(a, len);
            std::fill_n(m.bytes.begin() + long(a), len, 0);
            m.touch(a, len);
        } else if (kind < 81) {
            if (!m.recording) {
                m.mem->startTouchRecording();
                m.recording = true;
                m.touched.clear();
            } else {
                lastRecorded = m.mem->stopTouchRecording();
                ASSERT_EQ(lastRecorded, std::vector<uint64_t>(
                                            m.touched.begin(),
                                            m.touched.end()));
                m.recording = false;
            }
        } else if (kind < 91) {
            // Snapshot one instance, then restore it fully or lazily.
            Checkpoint cp;
            m.mem->serializeState("m.", cp);
            std::vector<uint64_t> tablePages;
            BlobReader r(cp.getBlob("m.table"));
            while (!r.done()) {
                tablePages.push_back(r.getU64());
                (void)r.getU64();
            }
            const std::vector<uint64_t> imagePages = nonZeroPages(m.bytes);
            ASSERT_EQ(tablePages, imagePages);
            const std::vector<uint8_t> snapshot = m.bytes;
            if (kind < 85) {
                ModelledMemory &dst = inst[pick(2)];
                dst.mem->unserializeState("m.", cp);
                dst.restored(snapshot);
                dst.lazy = false;
                continue;
            }
            // With the last recorded working set, a random one or none.
            std::vector<uint64_t> ws;
            if (const uint64_t choice = pick(3); choice == 1) {
                ws = lastRecorded;
            } else if (choice == 2) {
                for (uint64_t p = 0; p < fuzzPages; ++p)
                    if (pick(3) == 0)
                        ws.push_back(p);
            }
            if (!ws.empty()) {
                BlobWriter w;
                for (uint64_t p : ws)
                    w.putU64(p);
                cp.setBlob("m.ws", w.take());
            }
            std::string err;
            ASSERT_TRUE(PhysMemory::validateCheckpoint("m.", cp, &err))
                << err;
            image = PhysMemory::buildImage("m.", cp);
            imageBytes = snapshot;
            // Sometimes both instances share the image, so later writes
            // exercise copy-on-write on both sides.
            const ModelledMemory *one = &inst[pick(2)];
            const bool both = pick(3) == 0;
            for (ModelledMemory *dst : {&inst[0], &inst[1]}) {
                if (!both && dst != one)
                    continue;
                dst->prefetched0 = dst->mem->prefetchedPages();
                dst->faults0 = dst->mem->lazyFaults();
                dst->mem->restoreLazy(image);
                dst->restored(snapshot);
                dst->lazy = true;
                std::set_difference(imagePages.begin(), imagePages.end(),
                                    ws.begin(), ws.end(),
                                    std::inserter(dst->pending,
                                                  dst->pending.end()));
                ASSERT_EQ(dst->mem->prefetchedPages() - dst->prefetched0,
                          imagePages.size() - dst->pending.size());
            }
        } else if (kind < 94) {
            // The shared image itself never sees an instance's writes.
            if (image == nullptr)
                continue;
            PhysMemory fresh(fuzzBytes);
            fresh.restoreLazy(image);
            std::vector<uint8_t> all(fuzzBytes);
            fresh.readBytes(0, all.data(), fuzzBytes);
            ASSERT_EQ(all, imageBytes);
        } else {
            std::vector<uint8_t> all(fuzzBytes);
            m.mem->readBytes(0, all.data(), fuzzBytes);
            ASSERT_EQ(all, m.bytes);
            m.touch(0, fuzzBytes);
        }
        for (const ModelledMemory &mm : inst)
            ASSERT_NO_FATAL_FAILURE(mm.checkCounters());
    }
    for (ModelledMemory &mm : inst) {
        std::vector<uint8_t> all(fuzzBytes);
        mm.mem->readBytes(0, all.data(), fuzzBytes);
        EXPECT_EQ(all, mm.bytes);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhysMemoryDifferential,
                         ::testing::Range<uint64_t>(1, 9));

TEST(PageStore, InternDedupsAndFreesWithLastHolder)
{
    PageStore &store = PageStore::global();
    store.resetForTest();

    std::vector<uint8_t> page(snapshotPageBytes, 0x5a);
    auto first = store.intern(page.data(), page.size());
    auto second = store.intern(page.data(), page.size());
    EXPECT_EQ(first.get(), second.get()); // same shared page
    EXPECT_EQ(store.internHits(), 1u);
    EXPECT_EQ(store.internMisses(), 1u);
    EXPECT_EQ(store.liveUniquePages(), 1u);

    page[0] ^= 0xff;
    auto third = store.intern(page.data(), page.size());
    EXPECT_NE(first.get(), third.get());
    EXPECT_EQ(store.liveUniquePages(), 2u);

    // Dropping every holder frees the page: the next intern of the
    // same bytes is a miss again.
    first.reset();
    second.reset();
    third.reset();
    EXPECT_EQ(store.liveUniquePages(), 0u);
    std::vector<uint8_t> again(snapshotPageBytes, 0x5a);
    store.intern(again.data(), again.size());
    EXPECT_EQ(store.internMisses(), 3u);
}

TEST(PageStore, ShortTailPageHashesLikePaddedPage)
{
    std::vector<uint8_t> full(snapshotPageBytes, 0);
    full[0] = 0xab;
    EXPECT_EQ(hashSnapshotPage(full.data(), 1),
              hashSnapshotPage(full.data(), full.size()));
    PageStore &store = PageStore::global();
    store.resetForTest();
    auto tail = store.intern(full.data(), 1);
    auto padded = store.intern(full.data(), full.size());
    EXPECT_EQ(tail.get(), padded.get());
}

namespace
{

/** A terminal MemLevel with fixed latency for cache testing. */
class FakeBackend : public MemLevel
{
  public:
    Cycles access(Addr, bool is_write, Cycles) override
    {
        ++(is_write ? writes : reads);
        return 100;
    }
    void warm(Addr, bool is_write) override
    {
        ++(is_write ? writes : reads);
    }
    uint64_t reads = 0;
    uint64_t writes = 0;
};

} // namespace

TEST(Cache, HitAfterFill)
{
    StatGroup stats("t");
    FakeBackend backend;
    Cache c(CacheParams{"c", 1024, 2, 64, 2}, backend, stats);

    EXPECT_GT(c.access(0x100, false, 0), 100u); // miss: fill from below
    EXPECT_EQ(c.access(0x100, false, 1), 2u);   // hit
    EXPECT_EQ(c.access(0x13f, false, 2), 2u);   // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictsOldest)
{
    StatGroup stats("t");
    FakeBackend backend;
    // 2 ways, 8 sets: lines 0, 512, 1024 map to set 0.
    Cache c(CacheParams{"c", 1024, 2, 64, 1}, backend, stats);
    c.access(0, false, 0);
    c.access(512, false, 1);
    c.access(0, false, 2);     // touch 0: 512 becomes LRU
    c.access(1024, false, 3);  // evicts 512
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(512));
    EXPECT_TRUE(c.contains(1024));
}

TEST(Cache, DirtyEvictionWritesBack)
{
    StatGroup stats("t");
    FakeBackend backend;
    Cache c(CacheParams{"c", 128, 1, 64, 1}, backend, stats);
    c.access(0, true, 0);          // dirty line in set 0
    const uint64_t writes_before = backend.writes;
    c.access(128, false, 1);       // evicts the dirty line
    EXPECT_EQ(backend.writes, writes_before + 1);
}

TEST(Cache, CleanEvictionDoesNotWriteBack)
{
    StatGroup stats("t");
    FakeBackend backend;
    Cache c(CacheParams{"c", 128, 1, 64, 1}, backend, stats);
    c.access(0, false, 0);
    c.access(128, false, 1);
    EXPECT_EQ(backend.writes, 0u);
}

TEST(Cache, InvalidateDropsLine)
{
    StatGroup stats("t");
    FakeBackend backend;
    Cache c(CacheParams{"c", 1024, 2, 64, 1}, backend, stats);
    c.access(0x40, true, 0);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.invalidate(0x40)); // already gone
    // Invalidated dirty lines are dropped, not written back (the
    // functional data lives in PhysMemory).
    EXPECT_EQ(backend.writes, 0u);
}

TEST(Cache, WarmUpdatesTagsWithoutTiming)
{
    StatGroup stats("t");
    FakeBackend backend;
    Cache c(CacheParams{"c", 1024, 2, 64, 3}, backend, stats);
    c.warm(0x80, false);
    EXPECT_TRUE(c.contains(0x80));
    EXPECT_EQ(c.access(0x80, false, 0), 3u); // timed hit afterwards
}

TEST(Cache, FlushAllEmptiesCache)
{
    StatGroup stats("t");
    FakeBackend backend;
    Cache c(CacheParams{"c", 1024, 2, 64, 1}, backend, stats);
    c.access(0, false, 0);
    c.flushAll();
    EXPECT_FALSE(c.contains(0));
}

TEST(Dram, RowBufferHitsAreCheaper)
{
    StatGroup stats("t");
    DramParams p;
    DramCtrl dram(p, stats);
    const Cycles first = dram.access(0, false, 0);
    const Cycles second = dram.access(64, false, 10'000); // same row
    EXPECT_GT(first, second);
}

TEST(Dram, ChannelContentionQueues)
{
    StatGroup stats("t");
    DramCtrl dram(DramParams{}, stats);
    const Cycles back_to_back_first = dram.access(0, false, 0);
    // Immediately-following access must wait for the channel.
    const Cycles back_to_back_second = dram.access(1 << 20, false, 1);
    EXPECT_GT(back_to_back_second, back_to_back_first / 2);
}

TEST(Hierarchy, SnoopInvalidatesOtherCore)
{
    StatGroup stats("t");
    DramCtrl dram(DramParams{}, stats);
    CoherenceBus bus;
    CoreMemSystem core0(0, CoreMemParams{}, dram, bus, stats);
    CoreMemSystem core1(1, CoreMemParams{}, dram, bus, stats);

    core0.dataAccess(0x1000, 8, false, 0);
    core1.dataAccess(0x1000, 8, false, 0);
    EXPECT_TRUE(core0.l1d().contains(0x1000));
    EXPECT_TRUE(core1.l1d().contains(0x1000));

    // A write by core 1 invalidates core 0's copy.
    core1.dataAccess(0x1000, 8, true, 1);
    EXPECT_FALSE(core0.l1d().contains(0x1000));
    EXPECT_TRUE(core1.l1d().contains(0x1000));
}

TEST(Hierarchy, StraddlingAccessTouchesBothLines)
{
    StatGroup stats("t");
    DramCtrl dram(DramParams{}, stats);
    CoherenceBus bus;
    CoreMemSystem core(0, CoreMemParams{}, dram, bus, stats);

    core.dataAccess(0x10fc, 8, false, 0); // crosses 0x1100
    EXPECT_TRUE(core.l1d().contains(0x10c0));
    EXPECT_TRUE(core.l1d().contains(0x1100));
}

TEST(Hierarchy, FetchGoesThroughL1I)
{
    StatGroup stats("t");
    DramCtrl dram(DramParams{}, stats);
    CoherenceBus bus;
    CoreMemSystem core(0, CoreMemParams{}, dram, bus, stats);

    core.fetchAccess(0x2000, 4, 0);
    EXPECT_TRUE(core.l1i().contains(0x2000));
    EXPECT_FALSE(core.l1d().contains(0x2000));
    EXPECT_TRUE(core.l2().contains(0x2000)); // filled on the way
}

TEST(Hierarchy, MissLatencyDecomposes)
{
    StatGroup stats("t");
    DramCtrl dram(DramParams{}, stats);
    CoherenceBus bus;
    CoreMemSystem core(0, CoreMemParams{}, dram, bus, stats);

    const Cycles cold = core.dataAccess(0x3000, 8, false, 0);
    const Cycles l2_hit = [&] {
        core.l1d().invalidate(0x3000);
        return core.dataAccess(0x3000, 8, false, 100);
    }();
    const Cycles l1_hit = core.dataAccess(0x3000, 8, false, 200);
    EXPECT_GT(cold, l2_hit);
    EXPECT_GT(l2_hit, l1_hit);
    EXPECT_EQ(l1_hit, CoreMemParams{}.l1d.hitLatency);
}
