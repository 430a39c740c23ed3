#include "checkpoint_store.hh"

#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "db/store_gen.hh"
#include "mem/phys_memory.hh"
#include "sim/env.hh"
#include "sim/logging.hh"

namespace svb
{

namespace
{

/** FNV-1a 64-bit, printed as 16 hex digits: stable file names that
 *  stay valid across runs and processes. */
std::string
hashHex(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (char ch : s) {
        h ^= uint8_t(ch);
        h *= 1099511628211ull;
    }
    std::ostringstream os;
    os << std::hex;
    for (int i = 60; i >= 0; i -= 4)
        os << "0123456789abcdef"[(h >> i) & 0xf];
    return os.str();
}

void
appendSpec(std::ostringstream &os, const FunctionSpec &spec)
{
    os << spec.name << "/" << spec.workload << "/" << int(spec.tier) << "/"
       << spec.usesDb << spec.usesMemcached;
}

} // namespace

CheckpointStore::CheckpointStore()
{
    const char *d = std::getenv("SVBENCH_CKPT_DIR");
    // Default beside the result cache under build/ — machine output
    // never lands at the repo root (the pre-PR-3 "svbench_ckpts"
    // location is stale and gitignored).
    dir = (d != nullptr && d[0] != '\0') ? d : "build/svbench_ckpts";
    disabled = envFlag("SVBENCH_NO_CKPT", false);
}

CheckpointStore &
CheckpointStore::global()
{
    static CheckpointStore store;
    return store;
}

std::string
CheckpointStore::fingerprint(const ClusterConfig &cfg,
                             const FunctionSpec &spec,
                             const FunctionSpec *interferer)
{
    const SystemConfig &sys = cfg.system;
    std::ostringstream os;
    os << "prepared-v1;" << isaName(sys.isa) << ";cores=" << sys.numCores
       << ";mhz=" << sys.clockMHz << ";mem=" << sys.memBytes
       << ";seed=" << sys.seed;
    auto geom = [&os](const CacheParams &c) {
        os << ";" << c.name << "=" << c.sizeBytes << "/" << c.assoc << "/"
           << c.lineSize;
    };
    geom(sys.caches.l1i);
    geom(sys.caches.l1d);
    geom(sys.caches.l2);
    os << ";dram=" << sys.dram.numBanks << "/" << sys.dram.rowBytes;
    os << ";db=" << db::dbKindName(cfg.dbKind) << "/" << cfg.startDb
       << cfg.startMemcached;
    // Node-class calibration platforms carry their class tag, so two
    // classes sharing every geometry above still checkpoint apart;
    // untagged clusters keep the legacy fingerprint byte-for-byte.
    if (!cfg.classTag.empty())
        os << ";class=" << cfg.classTag;
    os << ";fn=";
    appendSpec(os, spec);
    if (interferer != nullptr) {
        os << ";vs=";
        appendSpec(os, *interferer);
    }
    return os.str();
}

std::string
CheckpointStore::pathFor(const std::string &fp) const
{
    return dir + "/" + hashHex(fp) + ".ckpt";
}

std::shared_ptr<const Checkpoint>
CheckpointStore::acquire(const std::string &fp, bool *claimed)
{
    *claimed = false;
    std::unique_lock<std::mutex> lk(mtx);
    for (;;) {
        auto it = cache.find(fp);
        if (it != cache.end())
            return it->second;
        if (!pending.count(fp))
            break;
        // Another thread is preparing this tuple; share its work.
        pendingCv.wait(lk);
    }
    pending.insert(fp);
    lk.unlock();

    // Disk probe outside the lock: loading a checkpoint is slow and
    // the pending entry already guards this fingerprint.
    std::string err;
    std::optional<Checkpoint> from_disk =
        Checkpoint::tryLoadFromFile(pathFor(fp), &err);
    if (from_disk.has_value()) {
        // Guard against hash collisions and stale files from another
        // configuration: the stored fingerprint must match exactly.
        if (!from_disk->hasString("meta.fingerprint") ||
            from_disk->getString("meta.fingerprint") != fp) {
            warn("checkpoint ", pathFor(fp),
                 " belongs to a different configuration; re-preparing");
            from_disk.reset();
        } else if (std::string verr;
                   PhysMemory::hasMemoryImage("mem.", *from_disk) &&
                   !PhysMemory::validateCheckpoint("mem.", *from_disk,
                                                   &verr)) {
            // A doctored/corrupt memory image is a miss, never a
            // crash: the restore path must not index out of bounds
            // from hostile page counts or offsets.
            warn("ignoring corrupt checkpoint ", pathFor(fp), ": ", verr);
            from_disk.reset();
        }
    } else if (!err.empty() && std::filesystem::exists(pathFor(fp))) {
        warn("ignoring corrupt checkpoint ", pathFor(fp), ": ", err);
    }

    lk.lock();
    if (!from_disk.has_value()) {
        *claimed = true; // caller prepares, then publish()/release()
        return nullptr;
    }
    auto cp = std::make_shared<const Checkpoint>(std::move(*from_disk));
    cache[fp] = cp;
    pending.erase(fp);
    lk.unlock();
    pendingCv.notify_all();
    return cp;
}

void
CheckpointStore::publish(const std::string &fp, Checkpoint cp)
{
    cp.setString("meta.fingerprint", fp);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        warn("cannot create checkpoint directory ", dir, ": ", ec.message());
    else
        cp.saveToFile(pathFor(fp));
    {
        std::lock_guard<std::mutex> lk(mtx);
        cache[fp] = std::make_shared<const Checkpoint>(std::move(cp));
        pending.erase(fp);
        images.erase(fp);
    }
    pendingCv.notify_all();
}

std::shared_ptr<const PageImage>
CheckpointStore::imageFor(const std::string &fp, const Checkpoint &cp)
{
    if (!PhysMemory::hasPageTable("mem.", cp))
        return nullptr; // no memory image: full restore only
    {
        std::lock_guard<std::mutex> lk(mtx);
        if (auto img = images[fp].lock())
            return img;
    }
    // Build outside the lock (interning a large image is slow). Two
    // racing builders both produce valid images whose pages dedup in
    // the global PageStore; the second insert simply wins.
    std::shared_ptr<const PageImage> img = PhysMemory::buildImage("mem.", cp);
    std::lock_guard<std::mutex> lk(mtx);
    images[fp] = img;
    return img;
}

bool
CheckpointStore::attachWorkingSet(const std::string &fp,
                                  const std::vector<uint64_t> &pages)
{
    std::lock_guard<std::mutex> lk(mtx);
    const auto it = cache.find(fp);
    if (it == cache.end() || it->second->hasBlob("mem.ws"))
        return false; // unknown tuple, or first writer already won
    Checkpoint cp = *it->second;
    BlobWriter w;
    for (uint64_t p : pages)
        w.putU64(p);
    cp.setBlob("mem.ws", w.take());
    // Atomic rewrite (unique-tmp + rename), so concurrent readers of
    // the .ckpt file still only ever see a complete checkpoint.
    if (std::filesystem::exists(dir))
        cp.saveToFile(pathFor(fp));
    it->second = std::make_shared<const Checkpoint>(std::move(cp));
    // Images built before the working set existed prefetch nothing;
    // rebuild on next use.
    images.erase(fp);
    return true;
}

void
CheckpointStore::release(const std::string &fp)
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        pending.erase(fp);
    }
    pendingCv.notify_all();
}

void
CheckpointStore::resetForTest(const std::string &test_dir)
{
    std::lock_guard<std::mutex> lk(mtx);
    cache.clear();
    pending.clear();
    images.clear();
    dir = test_dir;
    disabled = false;
}

} // namespace svb
