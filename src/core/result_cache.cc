#include "result_cache.hh"

#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include "db/store_gen.hh"
#include "sim/env.hh"
#include "sim/logging.hh"

namespace svb
{

namespace
{

/** The per-request stat fields under one prefix ("cold." / "warm."). */
std::vector<std::string>
statFields(const std::string &prefix)
{
    std::vector<std::string> fields;
    const RequestStats none;
    RequestStats::forEachCounter(
        none, [&](const std::string &row, const std::string &, bool,
                  uint64_t) { fields.push_back(prefix + row); });
    return fields;
}

std::string
modeOfKey(const std::string &key)
{
    const size_t comma = key.rfind(',');
    return comma == std::string::npos ? "" : key.substr(comma + 1);
}

/**
 * The platform component of a row/runner key: the ISA name, plus
 * "@<classTag>" when the cluster is the calibration platform of one
 * fleet node class (cluster.hh). The tag keeps two classes that share
 * an ISA but differ in clock or cache budget from ever sharing rows,
 * runners or checkpoints; untagged clusters keep the plain per-ISA
 * keys byte-for-byte.
 */
std::string
platformTag(const ClusterConfig &cfg)
{
    std::string tag = isaName(cfg.system.isa);
    if (!cfg.classTag.empty()) {
        svb_assert(cfg.classTag.find_first_of(",|=") == std::string::npos,
                   "cluster classTag contains a CSV metacharacter");
        tag += "@";
        tag += cfg.classTag;
    }
    return tag;
}

} // namespace

/**
 * The schema descriptor table: one entry per row mode, carrying the
 * mode tag, the current schema version and the complete ordered field
 * set. Bump a mode's version whenever its field set or meaning
 * changes; old rows are then skipped (and re-measured) instead of
 * misparsed. o3 is at v2: v1 predates the stall-cause fields.
 */
const RowSchema *
RowSchema::find(const std::string &mode)
{
    static const std::vector<RowSchema> schemas = [] {
        std::vector<RowSchema> s;
        {
            RowSchema o3{"o3", 2, statFields("cold.")};
            const std::vector<std::string> warm = statFields("warm.");
            o3.fields.insert(o3.fields.end(), warm.begin(), warm.end());
            o3.fields.push_back("ok");
            s.push_back(std::move(o3));
        }
        s.push_back({"emu", 1, {"coldNs", "warmNs", "ok"}});
        {
            RowSchema ld{"ldcal", 1, {"coldNs"}};
            for (unsigned k = 0; k < loadWarmSamples; ++k)
                ld.fields.push_back("warm" + std::to_string(k) + "Ns");
            ld.fields.push_back("ok");
            s.push_back(std::move(ld));
        }
        // load v5: v1 predates the resilience fields (availability,
        // retry/fault counters, goodput/error percentiles), v2 the
        // fleet fields (node count, routing policy, autoscaler peak,
        // throttles, node faults, utilisation), v3 the node-class
        // fields (class count, provisioned fleet power/cost weights);
        // v4 rows were computed before the inclusive keep-alive TTL
        // (an instance idle exactly keepAliveNs is now evicted), which
        // shifts cold/warm splits at TTL boundaries.
        s.push_back({"load", 5,
                     {"invocations", "coldStarts", "warmHits", "evictions",
                      "p50Ns", "p90Ns", "p99Ns", "p999Ns", "maxNs",
                      "throughputMrps", "histoFp", "succeeded",
                      "failedInv", "sheds", "retries", "crashes",
                      "timeouts", "coldFails", "corruptRestores",
                      "stragglers", "breakerOpens", "goodP50Ns",
                      "goodP99Ns", "errP99Ns", "goodFp", "nodes",
                      "policy", "maxActive", "throttles", "nodeFaults",
                      "utilPermil", "classes", "powerMw", "costMilli",
                      "ok"}});
        // wflow v3: workflow-scenario summaries (workflow.hh); v1
        // predates the node-class fields (classes/powerMw/costMilli)
        // and the placement-hint hit/miss counters; v2 predates the
        // inclusive keep-alive TTL (see the load v5 note). The critN
        // slots memoise per-stage critical-path permil shares for the
        // first kMaxCritSlots stages (unused slots store 0).
        {
            RowSchema wf{"wflow", 3,
                         {"invocations", "succeeded", "failedWf", "sheds",
                          "throttles", "retries", "crashes", "timeouts",
                          "coldFails", "corruptRestores", "stragglers",
                          "breakerOpens", "nodeFaults", "coldStarts",
                          "warmHits", "evictions", "stages", "tasks",
                          "p50Ns", "p90Ns", "p99Ns", "p999Ns", "maxNs",
                          "throughputMrps", "histoFp", "goodP50Ns",
                          "goodP99Ns", "errP99Ns", "goodFp", "critFp",
                          "xferLocal", "xferRemote", "xferLocalBytes",
                          "xferRemoteBytes", "xferNs", "nodes", "policy",
                          "maxActive", "utilPermil", "classes", "powerMw",
                          "costMilli", "prefHits", "prefMisses", "ok"}};
            for (unsigned k = 0; k < 12; ++k)
                wf.fields.push_back("crit" + std::to_string(k));
            s.push_back(std::move(wf));
        }
        // coldrs v1: cold-start restore-mode sweeps
        // (bench/coldstart_restore.cc) — per (runtime tier, ISA,
        // restore mode, function) cold/warm latencies plus the page
        // accounting of the REAP/CoW restore path.
        s.push_back({"coldrs", 1,
                     {"coldNs", "warmNs", "imagePages", "uniquePages",
                      "wsPages", "prefetched", "faults", "residentEnd",
                      "ok"}});
        return s;
    }();
    for (const RowSchema &schema : schemas)
        if (mode == schema.mode)
            return &schema;
    return nullptr;
}

bool
RowSchema::complete(const std::map<std::string, uint64_t> &row) const
{
    if (row.size() != fields.size() + 1) // +1: the "v" stamp
        return false;
    for (const std::string &f : fields)
        if (!row.count(f))
            return false;
    return true;
}

namespace
{

using Row = ResultCache::Row;

/** Add @p rs's counters to @p fields under @p prefix. */
void
packStats(const RequestStats &rs, const std::string &prefix, Row &fields)
{
    RequestStats::forEachCounter(
        rs, [&](const std::string &row, const std::string &, bool,
                uint64_t value) { fields[prefix + row] = value; });
}

RequestStats
unpackStats(const Row &fields, const std::string &prefix)
{
    return RequestStats::read(
        [&](const std::string &row, const std::string &, bool) {
            const auto it = fields.find(prefix + row);
            return it == fields.end() ? uint64_t(0) : it->second;
        });
}

Row
packResult(const FunctionResult &res)
{
    Row fields;
    packStats(res.cold, "cold.", fields);
    packStats(res.warm, "warm.", fields);
    fields["ok"] = res.ok ? 1 : 0;
    return fields;
}

Row
packLoadCal(const LoadCalibration &cal)
{
    Row fields;
    fields["coldNs"] = cal.coldNs;
    for (unsigned k = 0; k < loadWarmSamples; ++k)
        fields["warm" + std::to_string(k) + "Ns"] = cal.warmNs[k];
    fields["ok"] = cal.ok ? 1 : 0;
    return fields;
}

LoadCalibration
unpackLoadCal(const std::string &name, const Row &fields)
{
    LoadCalibration cal;
    cal.name = name;
    cal.ok = fields.at("ok") != 0;
    cal.coldNs = fields.at("coldNs");
    for (unsigned k = 0; k < loadWarmSamples; ++k)
        cal.warmNs[k] = fields.at("warm" + std::to_string(k) + "Ns");
    return cal;
}

FunctionResult
unpackResult(const std::string &name, const Row &fields)
{
    FunctionResult res;
    res.name = name;
    res.ok = fields.at("ok") != 0;
    res.cold = unpackStats(fields, "cold.");
    res.warm = unpackStats(fields, "warm.");
    return res;
}

Row
packEmu(const EmuResult &res)
{
    return {{"coldNs", res.coldNs},
            {"warmNs", res.warmNs},
            {"ok", res.ok ? 1u : 0u}};
}

EmuResult
unpackEmu(const std::string &name, const Row &fields)
{
    EmuResult res;
    res.name = name;
    res.ok = fields.at("ok") != 0;
    res.coldNs = fields.at("coldNs");
    res.warmNs = fields.at("warmNs");
    return res;
}

} // namespace

Row
packRunResult(const RunResult &res)
{
    if (const auto *fr = std::get_if<FunctionResult>(&res))
        return packResult(*fr);
    if (const auto *er = std::get_if<EmuResult>(&res))
        return packEmu(*er);
    return packLoadCal(std::get<LoadCalibration>(res));
}

RunResult
unpackRunResult(RunMode mode, const std::string &name, const Row &fields)
{
    switch (mode) {
      case RunMode::Detailed:
        return unpackResult(name, fields);
      case RunMode::Emu:
        return unpackEmu(name, fields);
      case RunMode::LoadCal:
        return unpackLoadCal(name, fields);
    }
    svb_fatal("unreachable RunMode");
}

namespace
{

/**
 * Parse a whole field value: @return false when @p s is empty, holds
 * anything but decimal digits, or exceeds 2^64 - 1 (strtoull would
 * clamp such a value to UINT64_MAX and serve it).
 */
bool
parseValue(std::string_view s, uint64_t &out)
{
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc() && ptr == end;
}

/** Validation outcome of a loaded CSV row. */
enum class RowCheck { Ok, Malformed, UnknownMode, VersionMismatch };

/**
 * Every field a valid row of @p key's mode must carry, plus the
 * mode's schema version. The CSV is append-only and a crash can
 * truncate the final line anywhere; because fields serialise in
 * alphabetical order, "ok" lands BEFORE the "warm.*" block, so a
 * truncated detailed row can look complete ("ok=1") while silently
 * missing its warm measurements. Validating the full field set closes
 * that hole; the version check stops rows written by an older or
 * newer tool generation from being misparsed field-by-field.
 */
RowCheck
rowComplete(const std::string &key, const Row &row)
{
    const RowSchema *schema = RowSchema::find(modeOfKey(key));
    if (schema == nullptr)
        return RowCheck::UnknownMode;
    auto vit = row.find("v");
    if (vit == row.end() || vit->second != schema->version)
        return RowCheck::VersionMismatch;
    return schema->complete(row) ? RowCheck::Ok : RowCheck::Malformed;
}

/**
 * Default backing path: SVBENCH_RESULTS when set, otherwise
 * build/svbench_results.csv so machine output stays out of the
 * repository root (the directory is created on demand).
 */
std::string
defaultResultPath()
{
    if (const char *env = std::getenv("SVBENCH_RESULTS")) {
        if (env[0] != '\0')
            return env;
    }
    std::error_code ec;
    std::filesystem::create_directories("build", ec);
    if (ec)
        warn("cannot create build/ for the result cache: ",
             ec.message(), "; falling back to the working directory");
    return ec ? "svbench_results.csv" : "build/svbench_results.csv";
}

} // namespace

ResultCache::ResultCache(std::string path_arg)
    : path(path_arg.empty() ? defaultResultPath() : std::move(path_arg))
{
    fresh = envFlag("SVBENCH_FRESH", false);
    if (!fresh)
        load();
}

void
ResultCache::load()
{
    std::ifstream is(path);
    if (!is)
        return;
    std::string line;
    size_t lineno = 0;
    size_t skipped = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (is.eof()) {
            // No newline: an append cut short, whose last value may
            // have lost digits. The next append starts a fresh line.
            warn(path, ":", lineno, ": skipping unterminated final line");
            tornTail = true;
            ++skipped;
            continue;
        }
        // Format: key|field=value|field=value|...
        std::istringstream ls(line);
        std::string key;
        if (!std::getline(ls, key, '|') || key.empty()) {
            ++skipped;
            continue;
        }
        Row row;
        bool malformed = false;
        std::string kv;
        while (std::getline(ls, kv, '|')) {
            const size_t eq = kv.find('=');
            uint64_t value = 0;
            if (eq == std::string::npos || eq == 0 ||
                !parseValue(std::string_view(kv).substr(eq + 1), value)) {
                malformed = true;
                break;
            }
            row[kv.substr(0, eq)] = value;
        }
        const RowCheck check =
            malformed ? RowCheck::Malformed : rowComplete(key, row);
        if (check != RowCheck::Ok) {
            if (check == RowCheck::UnknownMode) {
                warn(path, ":", lineno, ": skipping row of unknown mode '",
                     modeOfKey(key),
                     "' (written by a different tool generation?)");
            } else if (check == RowCheck::VersionMismatch) {
                warn(path, ":", lineno, ": skipping '", modeOfKey(key),
                     "' row with stale schema version; it will be "
                     "re-measured");
            } else {
                warn(path, ":", lineno,
                     ": skipping malformed result row (key '", key, "')");
            }
            ++skipped;
            continue;
        }
        rows[key] = std::move(row);
    }
    if (skipped > 0)
        warn(path, ": ignored ", skipped,
             " unusable line(s); those results will be re-measured");
}

void
ResultCache::recordLocked(const std::string &key, const Row &fields)
{
    const RowSchema *schema = RowSchema::find(modeOfKey(key));
    svb_assert(schema != nullptr, "row key '", key, "' has no known mode");
    Row row = fields;
    row["v"] = schema->version;
    svb_assert(schema->complete(row), "row does not match its mode's schema");
    std::ofstream os(path, std::ios::app);
    if (tornTail)
        os << "\n";
    tornTail = false;
    os << key;
    for (const auto &[name, value] : row)
        os << "|" << name << "=" << value;
    os << "\n";
    rows[key] = std::move(row);
}

std::string
ResultCache::keyOf(const ClusterConfig &cfg, const std::string &name,
                   const std::string &mode) const
{
    std::ostringstream os;
    os << platformTag(cfg) << "," << db::dbKindName(cfg.dbKind) << ","
       << (cfg.startDb ? 1 : 0) << (cfg.startMemcached ? 1 : 0) << ","
       << name << "," << mode;
    return os.str();
}

ExperimentRunner &
ResultCache::runnerFor(const ClusterConfig &cfg)
{
    // Keyed by (configuration, calling thread): a runner owns a whole
    // ServerlessCluster with no internal locking, so it must never be
    // driven from two threads. Within one thread it is reused across
    // functions, preserving the serial path's boot-once behaviour.
    std::ostringstream os;
    os << platformTag(cfg) << "/" << db::dbKindName(cfg.dbKind) << "/"
       << cfg.startDb << cfg.startMemcached << "/tid"
       << std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::string key = os.str();

    {
        std::lock_guard<std::mutex> lk(runnersMtx);
        auto it = runners.find(key);
        if (it != runners.end())
            return *it->second;
    }
    // Construct outside the lock: booting a cluster is expensive and
    // concurrent boots are the whole point. No other thread inserts
    // this key (it embeds our thread id), so the slot stays ours.
    auto runner = std::make_unique<ExperimentRunner>(cfg);
    std::lock_guard<std::mutex> lk(runnersMtx);
    auto &slot = runners[key];
    slot = std::move(runner);
    return *slot;
}

std::string
ResultCache::rowKey(const ClusterConfig &cfg, const FunctionSpec &spec,
                    RunMode mode) const
{
    return keyOf(cfg, spec.name, runModeName(mode));
}

void
ResultCache::announce(const RunSpec &rs) const
{
    switch (rs.mode) {
      case RunMode::Detailed:
        inform("measuring ", rs.spec.name, " on ",
               isaName(rs.platform.system.isa),
               " (detailed O3, cold+warm)...");
        break;
      case RunMode::Emu:
        inform("measuring ", rs.spec.name, " on ",
               isaName(rs.platform.system.isa), " (emulation)...");
        break;
      case RunMode::LoadCal:
        inform("calibrating ", rs.spec.name, " on ",
               isaName(rs.platform.system.isa), " for load (cold + ",
               loadWarmSamples, " warm samples)...");
        break;
    }
}

RunResult
ResultCache::measure(const RunSpec &rs)
{
    svb_assert(rs.impl != nullptr, "RunSpec without a workload impl");
    return runnerFor(rs.platform).run(rs);
}

RunResult
ResultCache::run(const RunSpec &rs)
{
    svb_assert(rs.impl != nullptr, "RunSpec without a workload impl");
    const std::string key = rowKey(rs.platform, rs.spec, rs.mode);
    {
        std::unique_lock<std::mutex> lk(mtx);
        for (;;) {
            auto it = rows.find(key);
            if (it != rows.end())
                return unpackRunResult(rs.mode, rs.spec.name, it->second);
            if (!pending.count(key))
                break;
            // Another thread is simulating this key; wait for its row
            // rather than duplicating the run.
            pendingCv.wait(lk);
        }
        pending.insert(key);
    }

    announce(rs);
    const RunResult res = measure(rs);
    {
        std::lock_guard<std::mutex> lk(mtx);
        recordLocked(key, packRunResult(res));
        pending.erase(key);
    }
    pendingCv.notify_all();
    return res;
}

FunctionResult
ResultCache::detailed(const ClusterConfig &cfg, const FunctionSpec &spec,
                      const WorkloadImpl &impl)
{
    return std::get<FunctionResult>(run(
        {.mode = RunMode::Detailed, .spec = spec, .impl = &impl,
         .platform = cfg}));
}

EmuResult
ResultCache::emulated(const ClusterConfig &cfg, const FunctionSpec &spec,
                      const WorkloadImpl &impl)
{
    return std::get<EmuResult>(run(
        {.mode = RunMode::Emu, .spec = spec, .impl = &impl,
         .platform = cfg}));
}

LoadCalibration
ResultCache::loadCalibration(const ClusterConfig &cfg,
                             const FunctionSpec &spec,
                             const WorkloadImpl &impl)
{
    return std::get<LoadCalibration>(run(
        {.mode = RunMode::LoadCal, .spec = spec, .impl = &impl,
         .platform = cfg}));
}

std::string
ResultCache::scenarioKey(const ClusterConfig &cfg,
                         const std::string &scenario,
                         const std::string &mode) const
{
    svb_assert(scenario.find_first_of(",|=") == std::string::npos,
               "scenario name contains a CSV metacharacter");
    return keyOf(cfg, scenario, mode);
}

bool
ResultCache::lookupRow(const std::string &key, Row &out)
{
    std::lock_guard<std::mutex> lk(mtx);
    auto it = rows.find(key);
    if (it == rows.end())
        return false;
    out = it->second;
    return true;
}

void
ResultCache::recordRow(const std::string &key, const Row &fields)
{
    std::lock_guard<std::mutex> lk(mtx);
    recordLocked(key, fields);
}

} // namespace svb
