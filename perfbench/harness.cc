#include "harness.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "core/checkpoint_store.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/workloads.hh"

namespace svbperf
{

int
Spans::open(const std::string &name, uint64_t op)
{
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack.empty() ? -1 : stack.back();
    s.startNs = nowNs();
    spans.push_back(std::move(s));
    stack.push_back(int(spans.size()) - 1);
    return stack.back();
}

void
Spans::close(int idx)
{
    spans[size_t(idx)].endNs = nowNs();
    svb_assert(!stack.empty() && stack.back() == idx,
               "span closed out of nesting order");
    stack.pop_back();
}

std::map<std::string, double>
Spans::selfSecondsByLayer() const
{
    std::vector<uint64_t> childNs(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            childNs[size_t(s.parent)] += s.endNs - s.startNs;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        out[layer] += double(s.endNs - s.startNs - childNs[i]) / 1e9;
    }
    return out;
}

bool
Spans::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const uint64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    os << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"" << s.name.substr(0, s.name.find('.'))
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << double(s.startNs - t0) / 1e3
           << ",\"dur\":" << double(s.endNs - s.startNs) / 1e3
           << ",\"args\":{\"op\":" << s.op << ",\"id\":" << i
           << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
    return bool(os);
}

double
LayerStats::median(const std::string &name) const
{
    auto it = samples.find(name);
    if (it == samples.end() || it->second.empty())
        return 0.0;
    std::vector<double> v = it->second;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
LayerStats::sum(const std::string &name) const
{
    auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
}

unsigned
roundsFor(double seconds, double nominal_round_s, unsigned min_rounds)
{
    const long n = std::lround(seconds / nominal_round_s);
    return std::max(min_rounds, unsigned(std::max(n, 0L)));
}

void
metric(const std::string &name, double value, const char *unit)
{
    std::printf("metric %s %.9g %s\n", name.c_str(), value, unit);
}

void
overheadMetric(const std::string &workload, const RoundTimes &t)
{
    metric("trace.overhead_pct." + workload,
           100.0 * (t.tracedS - t.plainS) / t.plainS, "%");
}

namespace
{

/** @return the host time of the fixed probe work (see opRecord()). */
uint64_t
speedProbeNs()
{
    // A 256 KiB table, cache-resident after the untimed warm-up pass,
    // so the timed pass does not depend on what the last op evicted.
    static std::vector<uint32_t> table(1u << 16, 1);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    uint64_t sum = 0;
    auto pass = [&](unsigned iters) {
        for (unsigned i = 0; i < iters; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            uint32_t &slot = table[(x ^ sum) & (table.size() - 1)];
            if ((slot ^ x) & 4)
                sum += slot * 3 + (x >> 33);
            else
                sum ^= slot + (x >> 29);
            slot = uint32_t(sum);
        }
    };
    pass(1u << 17);
    const uint64_t t0 = nowNs();
    pass(1u << 19);
    const uint64_t dt = nowNs() - t0;
    // Keep the loop: its result must look used to the optimiser.
    __asm__ volatile("" : : "g"(sum) : "memory");
    return dt;
}

/** Host ns opRecord() has spent since phaseStart(). */
uint64_t recordNs = 0;

/** Speed probes a SetupTimer runs before and after the set-up. */
constexpr unsigned kSetupProbes = 3;

} // namespace

void
opRecord(unsigned round, const std::string &name, uint64_t host_ns, bool ok,
         uint64_t digest, const char *cls)
{
    const uint64_t t0 = nowNs();
    std::printf("op %u %s %lu %d %016lx%s%s\n", round, name.c_str(),
                (unsigned long)host_ns, ok ? 1 : 0, (unsigned long)digest,
                cls ? " " : "", cls ? cls : "");
    std::printf("probe %lu\n", (unsigned long)speedProbeNs());
    std::fflush(stdout);
    recordNs += nowNs() - t0;
}

uint64_t
phaseStart()
{
    recordNs = 0;
    return nowNs();
}

void
phaseRecord(uint64_t t0_ns)
{
    std::printf("phase measured %.9f\n",
                double(nowNs() - t0_ns - recordNs) / 1e9);
}

SetupTimer::SetupTimer()
{
    for (unsigned i = 0; i < kSetupProbes; ++i)
        probes.push_back(speedProbeNs());
    t0 = nowNs();
}

void
SetupTimer::finish()
{
    const double secs = double(nowNs() - t0) / 1e9;
    for (unsigned i = 0; i < kSetupProbes; ++i)
        probes.push_back(speedProbeNs());
    std::sort(probes.begin(), probes.end());
    const size_t n = probes.size();
    std::printf("setup %.9f %lu\n", secs,
                (unsigned long)((probes[n / 2 - 1] + probes[n / 2]) / 2));
    std::fflush(stdout);
}

svb::ClusterConfig
chapter4Config(svb::IsaId isa, bool with_stores)
{
    svb::ClusterConfig cfg;
    cfg.system = svb::SystemConfig::paperConfig(isa);
    cfg.startDb = with_stores;
    cfg.startMemcached = with_stores;
    return cfg;
}

svb::FunctionSpec
functionNamed(const std::string &name)
{
    for (const svb::FunctionSpec &spec : svb::workloads::allFunctions()) {
        if (spec.name == name)
            return spec;
    }
    svb_fatal("svbperf: unknown function '", name, "'");
}

void
freshStore(const std::string &dir)
{
    removeTree(dir);
    svb::CheckpointStore::global().resetForTest(dir);
}

uint64_t
atomicInsts(svb::System &m)
{
    const svb::obs::StatSnapshot snap = svb::obs::snapshot(m.stats());
    uint64_t n = 0;
    for (unsigned c = 0; c < m.config().numCores; ++c)
        n += uint64_t(svb::obs::statValue(
            snap, "system.cpu" + std::to_string(c) + ".atomic.numInsts"));
    return n;
}

std::vector<size_t>
permutation(size_t n, uint64_t seed)
{
    std::vector<size_t> p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = i;
    svb::Rng rng(seed);
    for (size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng.nextBounded(i)]);
    return p;
}

uint64_t
currentRssKib()
{
    std::ifstream statm("/proc/self/statm");
    uint64_t size = 0, resident = 0;
    if (!(statm >> size >> resident))
        return 0;
    return resident * uint64_t(sysconf(_SC_PAGESIZE)) / 1024;
}

void
cpuSeconds(double &user_s, double &sys_s)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    user_s = double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) / 1e6;
    sys_s = double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) / 1e6;
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace svbperf
