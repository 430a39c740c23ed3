/**
 * @file
 * Workload-correctness tests: the compiled and bytecode forms of each
 * dual-implementation function must produce identical responses, and
 * responses must match host-side reference computations.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/cluster.hh"
#include "workloads/workloads.hh"

using namespace svb;

namespace
{

/**
 * Deploy a function and drive one request through the full stack;
 * return the response payload observed by the client.
 *
 * The client overwrites its buffer with the reply, so we read the
 * reply from the client-response ring's consumed slot instead: we
 * capture it by hooking the ring memory after the work completes.
 */
std::vector<uint8_t>
responseOf(const FunctionSpec &spec, IsaId isa)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.startDb = spec.usesDb;
    cfg.startMemcached = spec.usesMemcached;

    ServerlessCluster cluster(cfg);
    cluster.boot();
    cluster.resetToBaseline();
    auto dep =
        cluster.deploy(spec, workloads::workloadImpl(spec.workload));
    EXPECT_TRUE(cluster.runUntilReady(1));
    cluster.system().run(5'000);
    cluster.openClientGate(dep);
    EXPECT_TRUE(cluster.runUntilWorkEnds(1));

    // The reply the client read still sits in the consumed slot of the
    // client-response ring (head has advanced past it).
    System &sys = cluster.system();
    const Addr ring_phys =
        sys.kernel().process(dep.clientPid).space->translate(
            topo::clientRespRingVa);
    const uint64_t head = sys.phys().read64(ring_phys);
    EXPECT_GE(head, 1u);
    const Addr slot = ring_phys + ring::headerBytes +
                      ((head - 1) % uint64_t(gen::ringSlots)) * 256;
    const uint64_t len = sys.phys().read64(slot);
    std::vector<uint8_t> payload(len);
    sys.phys().readBytes(slot + 8, payload.data(), len);
    return payload;
}

uint64_t
u64At(const std::vector<uint8_t> &bytes, size_t off)
{
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + off, 8);
    return v;
}

FunctionSpec
specNamed(const std::string &name)
{
    for (const FunctionSpec &spec : workloads::allFunctions()) {
        if (spec.name == name)
            return spec;
    }
    ADD_FAILURE() << "no spec " << name;
    return {};
}

} // namespace

TEST(Workloads, FibonacciTiersAgreeAndAreCorrect)
{
    // Template n = 24: fib(24) with fib(0)=0 after 24 steps = 46368.
    const auto go = responseOf(specNamed("fibonacci-go"), IsaId::Riscv);
    const auto py =
        responseOf(specNamed("fibonacci-python"), IsaId::Riscv);
    const auto js =
        responseOf(specNamed("fibonacci-nodejs"), IsaId::Riscv);
    ASSERT_EQ(go.size(), 8u);
    EXPECT_EQ(u64At(go, 0), 46368u);
    EXPECT_EQ(go, py);
    EXPECT_EQ(go, js);
}

TEST(Workloads, FibonacciSameAcrossIsas)
{
    const auto rv = responseOf(specNamed("fibonacci-go"), IsaId::Riscv);
    const auto cx = responseOf(specNamed("fibonacci-go"), IsaId::Cx86);
    EXPECT_EQ(rv, cx);
}

TEST(Workloads, AesCompiledMatchesBytecode)
{
    const auto go = responseOf(specNamed("aes-go"), IsaId::Riscv);
    const auto py = responseOf(specNamed("aes-python"), IsaId::Riscv);
    ASSERT_EQ(go.size(), 64u);
    EXPECT_EQ(go, py);

    // Host reference: the same sbox cipher over the template payload.
    uint8_t sbox[256];
    for (int i = 0; i < 256; ++i)
        sbox[i] = uint8_t((i * 167 + 13) & 0xff);
    for (int j = 0; j < 64; ++j) {
        uint8_t s = uint8_t(j * 31 + 7); // the request template payload
        for (int r = 0; r < 10; ++r)
            s = sbox[(s ^ r ^ j) & 0xff];
        ASSERT_EQ(go[size_t(j)], s) << "byte " << j;
    }
}

TEST(Workloads, AuthAcceptsValidUser)
{
    const auto go = responseOf(specNamed("auth-go"), IsaId::Riscv);
    const auto py = responseOf(specNamed("auth-python"), IsaId::Riscv);
    ASSERT_GE(go.size(), 8u);
    EXPECT_EQ(u64At(go, 0), 1u); // uid 7 is in the credential table
    EXPECT_EQ(u64At(py, 0), 1u);
}

TEST(Workloads, PaymentLuhnValidCard)
{
    const auto node =
        responseOf(specNamed("payment-nodejs"), IsaId::Riscv);
    ASSERT_GE(node.size(), 16u);
    EXPECT_EQ(u64At(node, 0), 1u); // template card is Luhn-valid
}

TEST(Workloads, CurrencyTiersAgree)
{
    // nodejs interprets on request 1; compare against the compiled
    // result by reading the Go-equivalent math on the host.
    const auto node =
        responseOf(specNamed("currency-nodejs"), IsaId::Riscv);
    ASSERT_GE(node.size(), 16u);
    const uint64_t amount = 123456789, from = 12 & 31, to = (from + 7) & 31;
    uint64_t out = ((amount * (900000 + from * 3571)) >> 20);
    out = (out * (900000 + to * 3571)) >> 20;
    EXPECT_EQ(u64At(node, 0), out);
    EXPECT_EQ(u64At(node, 8), to);
}

TEST(Workloads, CatalogReturnsRequestedProduct)
{
    const auto resp =
        responseOf(specNamed("productcatalog-go"), IsaId::Riscv);
    ASSERT_EQ(resp.size(), 64u);
    EXPECT_EQ(u64At(resp, 0), 37u);            // product id
    EXPECT_EQ(u64At(resp, 8), 990 + 37 * 37u); // price formula
}

TEST(Workloads, HotelUserRespondsDeterministically)
{
    const auto a = responseOf(specNamed("user"), IsaId::Riscv);
    const auto b = responseOf(specNamed("user"), IsaId::Riscv);
    ASSERT_EQ(a.size(), 16u);
    EXPECT_EQ(a, b); // fully deterministic end to end
}

TEST(Workloads, RegistryIsComplete)
{
    for (const FunctionSpec &spec : workloads::allFunctions()) {
        ASSERT_TRUE(workloads::hasWorkload(spec.workload)) << spec.name;
        const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
        EXPECT_FALSE(impl.requestTemplate.empty()) << spec.name;
        if (spec.tier != RuntimeTier::Go) {
            EXPECT_TRUE(bool(impl.makeBytecode)) << spec.name;
        }
        if (spec.tier != RuntimeTier::Python) {
            EXPECT_TRUE(bool(impl.emitCompiled)) << spec.name;
        }
    }
    EXPECT_EQ(workloads::standaloneSuite().size(), 9u);
    EXPECT_EQ(workloads::onlineShopSuite().size(), 6u);
    EXPECT_EQ(workloads::hotelSuite().size(), 6u);
    EXPECT_EQ(workloads::goFunctions().size(), 3u + 2u + 6u);
    EXPECT_EQ(workloads::pythonFunctions().size(), 3u + 2u);
}

TEST(Workloads, ExtendedSuiteTiersAgree)
{
    for (const char *wl : {"compression", "jsonserdes"}) {
        FunctionSpec go, py;
        for (const FunctionSpec &spec : workloads::extendedSuite()) {
            if (spec.workload == wl && spec.tier == RuntimeTier::Go)
                go = spec;
            if (spec.workload == wl && spec.tier == RuntimeTier::Python)
                py = spec;
        }
        const auto a = responseOf(go, IsaId::Riscv);
        const auto b = responseOf(py, IsaId::Riscv);
        ASSERT_GT(a.size(), 8u) << wl;
        // The json hash word differs between tiers (different FNV
        // widths, like auth); compare the algorithmic fields only.
        const size_t compare =
            std::string(wl) == "jsonserdes" ? 16 : a.size();
        ASSERT_EQ(a.size(), b.size()) << wl;
        EXPECT_TRUE(std::equal(a.begin(), a.begin() + long(compare),
                               b.begin()))
            << wl;
    }
}

TEST(Workloads, CompressionRoundTripsOnHost)
{
    FunctionSpec spec;
    for (const FunctionSpec &s : workloads::extendedSuite()) {
        if (s.name == "compression-go")
            spec = s;
    }
    const auto resp = responseOf(spec, IsaId::Riscv);
    ASSERT_GT(resp.size(), 8u);
    const uint64_t encoded_len = u64At(resp, 0);
    ASSERT_EQ(encoded_len, resp.size());

    // Decode host-side and compare against the request template.
    const auto &tmpl =
        workloads::workloadImpl("compression").requestTemplate;
    std::vector<uint8_t> decoded;
    for (size_t off = 8; off + 1 < encoded_len; off += 2) {
        for (int k = 0; k < resp[off]; ++k)
            decoded.push_back(resp[off + 1]);
    }
    const std::vector<uint8_t> original(tmpl.begin() + 48, tmpl.end());
    EXPECT_EQ(decoded, original);
}

TEST(Workloads, JsonSumsFieldsCorrectly)
{
    FunctionSpec spec;
    for (const FunctionSpec &s : workloads::extendedSuite()) {
        if (s.name == "jsonserdes-go")
            spec = s;
    }
    const auto resp = responseOf(spec, IsaId::Riscv);
    ASSERT_EQ(resp.size(), 24u);

    // Host-side reference over the same template text.
    const auto &tmpl =
        workloads::workloadImpl("jsonserdes").requestTemplate;
    uint64_t sum = 0, fields = 0, val = 0;
    for (size_t i = 48; i < tmpl.size(); ++i) {
        const char c = char(tmpl[i]);
        if (c == ';') {
            sum += val;
            val = 0;
            ++fields;
        } else if (c >= '0' && c <= '9') {
            val = val * 10 + uint64_t(c - '0');
        }
    }
    EXPECT_EQ(u64At(resp, 0), fields);
    EXPECT_EQ(u64At(resp, 8), sum);
}
