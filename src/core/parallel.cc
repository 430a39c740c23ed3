#include "parallel.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <type_traits>

#include "checkpoint_store.hh"
#include "sim/logging.hh"

namespace svb
{

// Results are merged across threads by copying into a pre-sized
// vector slot per submission index.
static_assert(std::is_copy_assignable_v<RunResult>,
              "parallel merge requires copyable results");

// The shared-state audit for this scheduler rests on stat trees being
// impossible to alias across clusters: keep StatGroup non-copyable.
static_assert(!std::is_copy_constructible_v<StatGroup> &&
                  !std::is_copy_assignable_v<StatGroup>,
              "StatGroup must stay instance-scoped per System");

ThreadPool::ThreadPool(unsigned jobs)
{
    if (jobs == 0)
        jobs = defaultJobs();
    workers.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        stopping = true;
    }
    taskReady.notify_all();
    for (std::thread &t : workers)
        t.join();
}

unsigned
ThreadPool::defaultJobs()
{
    if (const char *env = std::getenv("SVBENCH_JOBS")) {
        // The whole value must be one unsigned: no sign, space, suffix
        // or wrap-around past 2^32.
        const char *end = env + std::strlen(env);
        unsigned v = 0;
        const auto [stop, ec] = std::from_chars(env, end, v);
        if (ec == std::errc() && stop == end && v > 0)
            return v;
        warn("ignoring SVBENCH_JOBS='", env, "' (want a positive integer)");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1u;
}

void
ThreadPool::submit(Task task)
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        svb_assert(!stopping, "submit() on a stopping ThreadPool");
        tasks.push_back(std::move(task));
        ++inFlight;
    }
    taskReady.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(mtx);
    allDone.wait(lk, [this] { return inFlight == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lk(mtx);
            taskReady.wait(lk,
                           [this] { return stopping || !tasks.empty(); });
            if (tasks.empty())
                return; // stopping and drained
            task = std::move(tasks.front());
            tasks.pop_front();
        }
        task();
        {
            std::lock_guard<std::mutex> lk(mtx);
            --inFlight;
            if (inFlight == 0)
                allDone.notify_all();
        }
    }
}

std::vector<std::vector<size_t>>
groupIndices(const std::vector<size_t> &indices,
             const std::function<std::string(size_t)> &groupOf)
{
    std::vector<std::vector<size_t>> groups;
    std::map<std::string, size_t> groupFor;
    for (size_t i : indices) {
        const std::string key = groupOf(i);
        if (key.empty()) {
            groups.push_back({i});
            continue;
        }
        auto [it, fresh] = groupFor.emplace(key, groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    return groups;
}

void
runGroups(const std::vector<std::vector<size_t>> &groups,
          const std::function<void(size_t)> &compute, unsigned jobs_override)
{
    if (groups.empty())
        return;
    // Each group is one task, so more workers than groups only idle.
    const unsigned jobs =
        jobs_override ? jobs_override : ThreadPool::defaultJobs();
    ThreadPool pool(unsigned(std::min<size_t>(jobs, groups.size())));
    for (const std::vector<size_t> &members : groups) {
        pool.submit([&compute, &members] {
            for (size_t i : members)
                compute(i);
        });
    }
    pool.wait();
}

namespace
{

/**
 * The groupIndices() key of an experiment: its checkpoint fingerprint.
 * Ablation points usually differ only in backend parameters
 * (latencies, O3 geometry, predictors), which the fingerprint
 * deliberately ignores, so whole series share one checkpoint.
 */
std::string
runGroup(const RunSpec &rs)
{
    return CheckpointStore::fingerprint(rs.platform, rs.spec);
}

/** memoisedSweep() rows of the experiments a RunSpec names. */
struct RunRows
{
    ResultCache &cache;

    std::string
    key(const RunSpec &rs) const
    {
        return cache.rowKey(rs.platform, rs.spec, rs.mode);
    }
    std::string group(const RunSpec &rs) const { return runGroup(rs); }
    void announce(const RunSpec &rs) const { cache.announce(rs); }
    RunResult compute(const RunSpec &rs) const { return cache.measure(rs); }
    ResultCache::Row
    pack(const RunResult &res) const
    {
        return packRunResult(res);
    }
    RunResult
    unpack(const RunSpec &rs, const ResultCache::Row &row) const
    {
        return unpackRunResult(rs.mode, rs.spec.name, row);
    }
};

} // namespace

std::vector<RunResult>
parallelSweep(ResultCache &cache, const std::vector<RunSpec> &specs,
              unsigned jobs_override)
{
    for (const RunSpec &rs : specs)
        svb_assert(rs.impl != nullptr, "RunSpec without a workload impl");
    return memoisedSweep(cache, specs, RunRows{cache}, jobs_override);
}

std::vector<RunResult>
parallelRun(const std::vector<RunSpec> &specs, unsigned jobs_override)
{
    std::vector<RunResult> results(specs.size());
    std::vector<size_t> all(specs.size());
    std::iota(all.begin(), all.end(), size_t(0));
    runGroups(
        groupIndices(all, [&](size_t i) { return runGroup(specs[i]); }),
        [&](size_t i) {
            results[i] = ExperimentRunner(specs[i].platform).run(specs[i]);
        },
        jobs_override);
    return results;
}

} // namespace svb
