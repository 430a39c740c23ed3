/**
 * @file
 * Database container tests: boot each store, drive the KV protocol
 * through its rings from a guest client, and validate the seeded
 * values against the host-side replication of genValue/keyOf.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/cluster.hh"
#include "gen/guestlib.hh"
#include "stack/topology.hh"

using namespace svb;

namespace
{

/** Host-side replica of kv.keyOf (must match kvproto.cc). */
uint64_t
keyOf(uint64_t id)
{
    uint64_t k = (id + 1) * 0x9e3779b97f4a7c15ULL;
    k ^= k >> 29;
    return k | 1;
}

/** Host-side replica of db.genValue (must match store_gen.cc). */
std::vector<uint8_t>
genValue(uint64_t key, uint64_t len)
{
    std::vector<uint8_t> out(len);
    for (uint64_t j = 0; j < len; j += 8) {
        const uint64_t w = (key + j * 0x9e37) * 0xff51afd7ed558ccdULL;
        std::memcpy(out.data() + j, &w, 8);
    }
    return out;
}

/**
 * A guest driver that issues one GET and one PUT+GET through the
 * store rings and records the outcomes in its data segment.
 */
struct Driver
{
    Addr getLen = 0;     ///< observed value length of GET(keyOf(id))
    Addr getHash = 0;    ///< FNV of the fetched value
    Addr putRound = 0;   ///< re-fetched value after a PUT
    LoadedProgram prog;
};

Driver
deployDriver(System &sys, Addr rings_phys, uint64_t record_id)
{
    gen::ProgramBuilder pb;
    Driver d;
    d.getLen = pb.addZeroData(8);
    d.getHash = pb.addZeroData(8);
    d.putRound = pb.addZeroData(8);
    const gen::GuestLib lib = gen::GuestLib::addTo(pb);
    const kv::KvClient kvc = kv::emitKvClient(pb, lib);

    auto f = pb.beginFunction("main", 0);
    const int64_t buf_off = f.localBytes(240);
    const int rg = f.newVreg(), buf = f.newVreg(), out = f.newVreg();
    f.movi(rg, int64_t(topo::dbReqRingVa));
    f.leaLocal(buf, buf_off);

    // GET a seeded record.
    const int id = f.imm(int64_t(record_id));
    const int key = f.call(kvc.keyOf, {id});
    const int len = f.call(kvc.get, {rg, key, buf});
    f.lea(out, d.getLen);
    f.store(out, 0, len, 8);
    const int h = f.call(lib.fnvHash, {buf, len});
    f.lea(out, d.getHash);
    f.store(out, 0, h, 8);

    // PUT a new record under a fresh key, then read it back.
    const int nkey = f.newVreg();
    f.bini(gen::BinOp::Xor, nkey, key, 0x1234);
    const int vlen = f.imm(64);
    f.callVoid(kvc.put, {rg, nkey, buf, vlen});
    const int len2 = f.call(kvc.get, {rg, nkey, buf});
    f.lea(out, d.putRound);
    f.store(out, 0, len2, 8);
    f.ret();
    pb.setEntry("main");

    d.prog = loadProcess(sys.kernel(),
                         gen::compileProgram(pb.take(), IsaId::Riscv),
                         "driver", topo::serverCore);
    mapSharedInto(sys.kernel(), d.prog.pid, layout::sharedBase,
                  rings_phys, topo::sharedRegionBytes);
    return d;
}

class DbKindTest : public ::testing::TestWithParam<db::DbKind>
{
};

} // namespace

TEST_P(DbKindTest, BootGetPutThroughRings)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(IsaId::Riscv);
    cfg.dbKind = GetParam();
    cfg.startDb = true;
    cfg.startMemcached = false;

    ServerlessCluster cluster(cfg);
    cluster.boot();
    System &sys = cluster.system();

    // Recover the shared-region base deterministically: the memcached
    // rings page region is allocated right after construction; use the
    // db process's mapping instead.
    const int db_pid = sys.kernel().findProcess(
        db::dbKindName(GetParam()));
    ASSERT_GE(db_pid, 0);
    const Addr rings_phys =
        sys.kernel().process(db_pid).space->translate(layout::sharedBase);

    const uint64_t record_id = 37;
    Driver driver = deployDriver(sys, rings_phys, record_id);
    sys.scheduleIdleCores();
    // The store spins forever by design; run until the driver exits.
    uint64_t ran = 0;
    while (ran < 400'000'000 &&
           sys.kernel().process(driver.prog.pid).state != ProcState::Exited)
        ran += sys.run(1);
    EXPECT_LT(ran, 400'000'000u) << "driver hung";

    const AddressSpace &as = *sys.kernel().process(driver.prog.pid).space;
    const uint64_t got_len = as.read(driver.getLen, 8);
    EXPECT_EQ(got_len, calib::hotelValueBytes)
        << db::dbKindName(GetParam());

    // Validate the value bytes via the replicated generator.
    const auto expect_value =
        genValue(keyOf(record_id), calib::hotelValueBytes);
    uint64_t expect_hash = 0xcbf29ce484222325ULL;
    for (uint8_t b : expect_value) {
        expect_hash ^= b;
        expect_hash *= 0x100000001b3ULL;
    }
    EXPECT_EQ(as.read(driver.getHash, 8), expect_hash);

    // PUT followed by GET returns the new record.
    EXPECT_EQ(as.read(driver.putRound, 8), 64u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, DbKindTest,
                         ::testing::Values(db::DbKind::Cassandra,
                                           db::DbKind::Mongo,
                                           db::DbKind::Maria));

TEST(Memcached, MissThenHit)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(IsaId::Riscv);
    cfg.startDb = false;
    cfg.startMemcached = true;

    ServerlessCluster cluster(cfg);
    cluster.boot();
    System &sys = cluster.system();
    const int mc_pid = sys.kernel().findProcess("memcached");
    ASSERT_GE(mc_pid, 0);
    const Addr rings_phys =
        sys.kernel().process(mc_pid).space->translate(layout::sharedBase);

    // Guest driver: GET(miss) -> PUT -> GET(hit) on the mc rings.
    gen::ProgramBuilder pb;
    const Addr miss_len = pb.addZeroData(8);
    const Addr hit_len = pb.addZeroData(8);
    const gen::GuestLib lib = gen::GuestLib::addTo(pb);
    const kv::KvClient kvc = kv::emitKvClient(pb, lib);
    auto f = pb.beginFunction("main", 0);
    const int64_t buf_off = f.localBytes(240);
    const int rg = f.newVreg(), buf = f.newVreg(), out = f.newVreg();
    f.movi(rg, int64_t(topo::mcReqRingVa));
    f.leaLocal(buf, buf_off);
    const int key = f.imm(0x4242);
    const int l1 = f.call(kvc.get, {rg, key, buf});
    f.lea(out, miss_len);
    f.store(out, 0, l1, 8);
    const int vlen = f.imm(48);
    f.callVoid(kvc.put, {rg, key, buf, vlen});
    const int l2 = f.call(kvc.get, {rg, key, buf});
    f.lea(out, hit_len);
    f.store(out, 0, l2, 8);
    f.ret();
    pb.setEntry("main");

    LoadedProgram lp = loadProcess(
        sys.kernel(), gen::compileProgram(pb.take(), IsaId::Riscv),
        "mcdriver", topo::serverCore);
    mapSharedInto(sys.kernel(), lp.pid, layout::sharedBase, rings_phys,
                  topo::sharedRegionBytes);
    sys.scheduleIdleCores();
    uint64_t ran = 0;
    while (ran < 100'000'000 &&
           sys.kernel().process(lp.pid).state != ProcState::Exited)
        ran += sys.run(1);
    ASSERT_LT(ran, 100'000'000u);

    const AddressSpace &as = *sys.kernel().process(lp.pid).space;
    EXPECT_EQ(as.read(miss_len, 8), 0u);
    EXPECT_EQ(as.read(hit_len, 8), 48u);
}

TEST(Db, CassandraBootsSlowerThanMongo)
{
    uint64_t boot_cycles[2] = {0, 0};
    const db::DbKind kinds[2] = {db::DbKind::Cassandra,
                                 db::DbKind::Mongo};
    for (int i = 0; i < 2; ++i) {
        ClusterConfig cfg;
        cfg.system = SystemConfig::paperConfig(IsaId::Riscv);
        cfg.dbKind = kinds[i];
        cfg.startDb = true;
        cfg.startMemcached = false;
        ServerlessCluster cluster(cfg);
        cluster.boot();
        boot_cycles[i] = cluster.system().cycle();
    }
    // The paper's Cassandra boots were ~25x Mongo-class boots; ours
    // must at least be several times slower.
    EXPECT_GT(boot_cycles[0], 3 * boot_cycles[1]);
}
