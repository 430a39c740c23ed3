/**
 * @file
 * Unit tests for the simulation kernel: RNG, statistics, checkpoints,
 * on/off environment switches.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

#include "sim/env.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "sim/stats.hh"

using namespace svb;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, SplitIsIndependentOfDrawOrder)
{
    // split() must be a pure function of (seed, streamId): deriving a
    // substream after draining values from the parent gives the same
    // stream as deriving it first. This is what makes per-stream
    // sequences identical regardless of SVBENCH_JOBS scheduling.
    Rng fresh(42);
    Rng drained(42);
    for (int i = 0; i < 1000; ++i)
        drained.next();
    Rng a = fresh.split(7);
    Rng b = drained.split(7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, SplitStreamsAreDistinct)
{
    Rng master(42);
    Rng s0 = master.split(0);
    Rng s1 = master.split(1);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += s0.next() == s1.next();
    EXPECT_LT(same, 3);
    // And distinct from the parent stream itself.
    Rng parent(42);
    Rng child = parent.split(0);
    same = 0;
    for (int i = 0; i < 100; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.nextBounded(17), 17u);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = r.nextRange(-5, 9);
        ASSERT_GE(v, -5);
        ASSERT_LE(v, 9);
    }
    for (int i = 0; i < 1000; ++i) {
        const double d = r.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Stats, ScalarAndFormula)
{
    StatGroup g("top");
    Scalar &s = g.addScalar("count", "a counter");
    g.addFormula("double", "2x count",
                 [&s] { return 2.0 * double(s.value()); });
    ++s;
    s += 4;
    auto snap = g.snapshotAll();
    EXPECT_DOUBLE_EQ(snap.at("top.count"), 5.0);
    EXPECT_DOUBLE_EQ(snap.at("top.double"), 10.0);
    g.resetAll();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, ChildGroupsAndDottedNames)
{
    StatGroup g("sys");
    Scalar &inner = g.childGroup("cpu").childGroup("l1").addScalar(
        "misses", "d");
    inner += 3;
    auto snap = g.snapshotAll();
    EXPECT_DOUBLE_EQ(snap.at("sys.cpu.l1.misses"), 3.0);
    // childGroup returns the same child on repeat lookups.
    EXPECT_EQ(&g.childGroup("cpu"), &g.childGroup("cpu"));
}

TEST(Stats, PrintProducesOutput)
{
    StatGroup g("root");
    g.addScalar("x", "something") += 9;
    std::ostringstream os;
    g.printAll(os);
    EXPECT_NE(os.str().find("root.x"), std::string::npos);
    EXPECT_NE(os.str().find("9"), std::string::npos);
}

TEST(Checkpoint, ScalarStringBlobRoundtrip)
{
    Checkpoint cp;
    cp.setScalar("a.b", 123);
    cp.setString("name", "svbench");
    cp.setBlob("mem", {1, 2, 3, 255});
    EXPECT_EQ(cp.getScalar("a.b"), 123u);
    EXPECT_EQ(cp.getString("name"), "svbench");
    EXPECT_EQ(cp.getBlob("mem").size(), 4u);
    EXPECT_TRUE(cp.hasScalar("a.b"));
    EXPECT_FALSE(cp.hasScalar("missing"));
}

TEST(Checkpoint, FileRoundtrip)
{
    const std::string path = "/tmp/svbench_test_ckpt.bin";
    {
        Checkpoint cp;
        cp.setScalar("cycle", 999);
        cp.setString("isa", "riscv64");
        std::vector<uint8_t> blob(4096);
        for (size_t i = 0; i < blob.size(); ++i)
            blob[i] = uint8_t(i * 7);
        cp.setBlob("mem.contents", std::move(blob));
        cp.saveToFile(path);
    }
    Checkpoint cp = Checkpoint::loadFromFile(path);
    EXPECT_EQ(cp.getScalar("cycle"), 999u);
    EXPECT_EQ(cp.getString("isa"), "riscv64");
    const auto &blob = cp.getBlob("mem.contents");
    ASSERT_EQ(blob.size(), 4096u);
    EXPECT_EQ(blob[1000], uint8_t(1000 * 7));
    std::remove(path.c_str());
}

namespace
{

// envFlag() warns once per (name, value) per process, so a test that
// wants a warning reads a rejected value no earlier read has seen:
// @p bad with a count appended that grows on every call.
std::string
unreadValue(const char *bad)
{
    static int calls = 0;
    return std::string(bad) + "#" + std::to_string(++calls);
}

} // namespace

// Seeded mutations of on/off switch values: only exactly "0" and "1"
// switch; unset and empty read as the fallback, and anything else
// ("false", "yes", " 1", "01") warns and reads as the fallback too.
// Every switch the simulator and the benches read goes through
// envFlag(), so each name is tried with both fallbacks.
TEST(EnvFlag, SeededMutationsReadExactlyZeroOrOneOrFallBack)
{
    for (const char *name : {"SVBENCH_FASTWARM", "SVBENCH_REAP",
                             "SVBENCH_NO_CKPT", "SVBENCH_FRESH",
                             "SVBENCH_STALLS"}) {
        const char *prev = std::getenv(name);
        const std::string saved = prev != nullptr ? prev : "";
        for (const bool fallback : {false, true}) {
            unsetenv(name);
            EXPECT_EQ(envFlag(name, fallback), fallback) << name;
            const auto check = [&](const std::string &value) {
                setenv(name, value.c_str(), 1);
                const bool want = value == "0"   ? false
                                  : value == "1" ? true
                                                 : fallback;
                EXPECT_EQ(envFlag(name, fallback), want)
                    << name << "='" << value << "'";
            };
            for (const char *value :
                 {"0", "1", "", "00", "01", "10", " 1", "1 ", "0\t", "+1",
                  "-0", "true", "false", "yes", "no", "on", "off", "2"})
                check(value);

            const std::string alphabet = "01 +-tfyn\t";
            Rng rng(fallback ? 2025 : 2024);
            for (int i = 0; i < 500; ++i) {
                std::string value = rng.nextBounded(2) ? "1" : "0";
                for (uint64_t k = rng.nextBounded(3); k > 0; --k) {
                    const size_t at = rng.nextBounded(value.size() + 1);
                    const char c =
                        alphabet[rng.nextBounded(alphabet.size())];
                    switch (rng.nextBounded(3)) {
                      case 0: value.insert(at, 1, c); break;
                      case 1:
                        if (at < value.size())
                            value[at] = c;
                        break;
                      default:
                        if (at < value.size())
                            value.erase(at, 1);
                        break;
                    }
                }
                check(value);
                if (::testing::Test::HasFailure())
                    break; // the first mismatch names the value
            }
        }

        // A rejected value is reported, not dropped silently.
        const std::string bad = unreadValue("true");
        setenv(name, bad.c_str(), 1);
        ::testing::internal::CaptureStderr();
        EXPECT_FALSE(envFlag(name, false));
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("warn: ignoring " + std::string(name) + "='" +
                           bad + "'"),
                  std::string::npos)
            << err;

        if (prev != nullptr)
            setenv(name, saved.c_str(), 1);
        else
            unsetenv(name);
    }
}

TEST(EnvFlag, WarnsOncePerNameAndValue)
{
    // Systems read their switches every time one is built: repeated
    // reads of one rejected value warn once, a second value once more.
    const char *name = "SVBENCH_ENVFLAG_WARN_ONCE";
    const auto warnings = [name](const std::string &value) {
        setenv(name, value.c_str(), 1);
        ::testing::internal::CaptureStderr();
        for (int i = 0; i < 12; ++i)
            EXPECT_TRUE(envFlag(name, true));
        const std::string err = ::testing::internal::GetCapturedStderr();
        size_t n = 0;
        for (size_t at = err.find("warn: "); at != std::string::npos;
             at = err.find("warn: ", at + 1))
            ++n;
        return std::make_pair(n, err);
    };
    const std::string one = unreadValue("false");
    const std::string two = unreadValue("yes");
    const auto [first, first_err] = warnings(one);
    EXPECT_EQ(first, 1u) << first_err;
    EXPECT_NE(first_err.find("ignoring SVBENCH_ENVFLAG_WARN_ONCE='" + one +
                             "'"),
              std::string::npos)
        << first_err;
    const auto [second, second_err] = warnings(two);
    EXPECT_EQ(second, 1u) << second_err;
    EXPECT_NE(second_err.find("='" + two + "'"), std::string::npos)
        << second_err;
    const auto [again, again_err] = warnings(one);
    EXPECT_EQ(again, 0u) << again_err;
    unsetenv(name);
}
