#include "page_store.hh"

#include <algorithm>
#include <cstring>

namespace svb
{

uint64_t
hashSnapshotPage(const uint8_t *data, size_t len)
{
    // FNV-1a 64-bit over the padded page: the zero-padding bytes of a
    // short tail page hash exactly like a stored full page, so hashes
    // computed from guest memory and from stored pages agree.
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < snapshotPageBytes; ++i) {
        h ^= i < len ? data[i] : 0;
        h *= 1099511628211ull;
    }
    return h;
}

PageStore &
PageStore::global()
{
    static PageStore store;
    return store;
}

std::shared_ptr<const SnapshotPage>
PageStore::intern(const uint8_t *data, size_t len)
{
    const uint64_t h = hashSnapshotPage(data, len);
    std::lock_guard<std::mutex> lk(mtx);
    std::vector<std::weak_ptr<const SnapshotPage>> &cands = index[h];
    // Scan live candidates, pruning expired ones as we go.
    for (size_t i = 0; i < cands.size();) {
        std::shared_ptr<const SnapshotPage> live = cands[i].lock();
        if (!live) {
            cands[i] = std::move(cands.back());
            cands.pop_back();
            continue;
        }
        // Same hash is not enough: verify the bytes, so a (however
        // unlikely) collision yields two distinct pages, not aliasing.
        if (std::memcmp(live->bytes.data(), data, len) == 0 &&
            (len == snapshotPageBytes ||
             std::count(live->bytes.begin() + long(len),
                        live->bytes.end(), 0) ==
                 long(snapshotPageBytes - len))) {
            ++hits;
            return live;
        }
        ++i;
    }
    auto page = std::make_shared<SnapshotPage>();
    page->hash = h;
    std::memcpy(page->bytes.data(), data, len);
    if (len < snapshotPageBytes)
        std::memset(page->bytes.data() + len, 0, snapshotPageBytes - len);
    cands.push_back(page);
    ++misses;
    return page;
}

uint64_t
PageStore::internHits() const
{
    std::lock_guard<std::mutex> lk(mtx);
    return hits;
}

uint64_t
PageStore::internMisses() const
{
    std::lock_guard<std::mutex> lk(mtx);
    return misses;
}

size_t
PageStore::liveUniquePages() const
{
    std::lock_guard<std::mutex> lk(mtx);
    size_t n = 0;
    for (const auto &[h, cands] : index)
        for (const auto &w : cands)
            n += w.expired() ? 0 : 1;
    return n;
}

void
PageStore::resetForTest()
{
    std::lock_guard<std::mutex> lk(mtx);
    index.clear();
    hits = 0;
    misses = 0;
}

} // namespace svb
