/**
 * @file
 * Deterministic parallel experiment scheduler.
 *
 * Chapter 4's figure sweeps are grids of fully independent
 * simulations — (function x ISA x cold/warm x DB) — and every
 * simulation is bit-deterministic and instance-scoped (per-cluster
 * System, object-scoped Rng, no global tick state). This module fans
 * those simulations out across host cores with a fixed-size thread
 * pool and merges the results back in submission order, so figure
 * tables and the CSV result cache are byte-identical to a serial run
 * regardless of completion order. One memoised sweep serves every
 * cached row: the experiments of parallelSweep() here, and the load
 * calibrations and scenario rows of load/attempt_engine.hh.
 *
 * Worker count comes from the SVBENCH_JOBS environment variable
 * (default: hardware_concurrency). SVBENCH_JOBS=1 degrades to the
 * serial behaviour.
 */

#ifndef SVB_CORE_PARALLEL_HH
#define SVB_CORE_PARALLEL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "result_cache.hh"

namespace svb
{

/**
 * A fixed-size pool of worker threads servicing a FIFO task queue.
 *
 * Deliberately work-stealing-free: tasks are picked up in submission
 * order from a single queue, which keeps scheduling easy to reason
 * about. Determinism of *results* does not depend on the pool at all —
 * callers merge by submission index, never by completion order.
 */
class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** @param jobs worker count; 0 selects defaultJobs() */
    explicit ThreadPool(unsigned jobs = 0);

    /** Drains nothing: joins after finishing already-queued tasks. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Worker count implied by the environment: SVBENCH_JOBS if its
     * whole value is a positive integer that fits an unsigned,
     * otherwise (with a warning for a set but malformed value)
     * std::thread::hardware_concurrency, or 1 when that reports 0.
     */
    static unsigned defaultJobs();

    /** Enqueue @p task for execution on some worker. */
    void submit(Task task);

    /** Block until every submitted task has finished running. */
    void wait();

    unsigned size() const { return unsigned(workers.size()); }

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::deque<Task> tasks;
    std::mutex mtx;
    std::condition_variable taskReady; ///< signals workers
    std::condition_variable allDone;   ///< signals wait()
    size_t inFlight = 0;               ///< queued + currently running
    bool stopping = false;
};

/**
 * Partition @p indices into pool tasks: indices that share a non-empty
 * @p groupOf(i) form one group in list order, every other index is a
 * group of its own, and groups are ordered by their first index.
 *
 * Experiments group by their prepared-state checkpoint fingerprint: a
 * group's first job prepares the tuple and publishes the snapshot, its
 * groupmates restore from it, instead of blocking in the store's
 * claim/wait on other threads.
 */
std::vector<std::vector<size_t>>
groupIndices(const std::vector<size_t> &indices,
             const std::function<std::string(size_t)> &groupOf);

/**
 * Run @p compute(i) for every index of @p groups across the pool, one
 * task per group, its indices in order on one worker; tasks are
 * submitted in group order. With one worker that is exactly the order
 * of @p groups flattened. No pool is constructed when @p groups is
 * empty.
 */
void runGroups(const std::vector<std::vector<size_t>> &groups,
               const std::function<void(size_t)> &compute,
               unsigned jobs_override = 0);

/**
 * The memoised sweep every cached row goes through. Each job's row is
 * looked up first and a hit is answered inline. The misses are
 * deduplicated by row key, the distinct ones computed across the pool
 * (runGroups()), recorded from the calling thread in submission
 * order, and copied to the later jobs that share their key, just as a
 * serial sweep hits the row its first job recorded. The backing CSV is
 * therefore byte-identical to a serial sweep's at any worker count.
 * So is stdout: each miss's progress line is printed from the calling
 * thread before dispatch, in the order one worker would run them.
 *
 * @p rows describes a Job and its Result:
 *   std::string key(const Job &)               the row key
 *   std::string group(const Job &)             groupIndices() key
 *   void announce(const Job &)                 progress line of a miss
 *   Result compute(const Job &)                measure (on a worker)
 *   ResultCache::Row pack(const Result &)      the row to record
 *   Result unpack(const Job &, const ResultCache::Row &)
 * @return one Result per job, in submission order
 */
template <class Job, class Rows>
auto
memoisedSweep(ResultCache &cache, const std::vector<Job> &jobs,
              const Rows &rows, unsigned jobs_override = 0)
    -> std::vector<decltype(rows.compute(jobs.front()))>
{
    std::vector<decltype(rows.compute(jobs.front()))> results(jobs.size());
    std::vector<std::string> keys(jobs.size());
    std::vector<size_t> source(jobs.size()); // whose result job i takes
    std::map<std::string, size_t> firstMiss;
    std::vector<size_t> misses;
    for (size_t i = 0; i < jobs.size(); ++i) {
        keys[i] = rows.key(jobs[i]);
        source[i] = i;
        ResultCache::Row row;
        if (cache.lookupRow(keys[i], row)) {
            results[i] = rows.unpack(jobs[i], row);
        } else if (auto [it, first] = firstMiss.emplace(keys[i], i);
                   first) {
            misses.push_back(i);
        } else {
            source[i] = it->second;
        }
    }
    const std::vector<std::vector<size_t>> groups = groupIndices(
        misses, [&](size_t i) { return rows.group(jobs[i]); });
    for (const std::vector<size_t> &members : groups)
        for (size_t i : members)
            rows.announce(jobs[i]);
    runGroups(
        groups, [&](size_t i) { results[i] = rows.compute(jobs[i]); },
        jobs_override);
    for (size_t i : misses)
        cache.recordRow(keys[i], rows.pack(results[i]));
    for (size_t i = 0; i < jobs.size(); ++i)
        if (source[i] != i)
            results[i] = results[source[i]];
    return results;
}

/**
 * Run (or fetch) every experiment of @p specs through @p cache: the
 * memoised sweep over RunSpecs of any cacheable mode (Detailed, Emu,
 * LoadCal), measured on the cache's per-thread runners.
 *
 * @param jobs_override worker count; 0 selects ThreadPool::defaultJobs()
 * @return one RunResult per spec, in submission order
 */
std::vector<RunResult>
parallelSweep(ResultCache &cache, const std::vector<RunSpec> &specs,
              unsigned jobs_override = 0);

/**
 * Cache-free variant for design-space ablations, whose configurations
 * differ in fields the cache key does not cover. Each spec gets a
 * fresh ExperimentRunner on a worker thread, submitted through
 * runGroups(); results are merged in submission order.
 */
std::vector<RunResult>
parallelRun(const std::vector<RunSpec> &specs, unsigned jobs_override = 0);

} // namespace svb

#endif // SVB_CORE_PARALLEL_HH
