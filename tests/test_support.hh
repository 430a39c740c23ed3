/**
 * @file
 * Helpers the test binaries share: function lookup by name, scoped
 * scratch result caches and checkpoint stores, and hand-written load
 * calibrations.
 */

#ifndef SVB_TESTS_TEST_SUPPORT_HH
#define SVB_TESTS_TEST_SUPPORT_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/checkpoint_store.hh"
#include "core/result_cache.hh"
#include "workloads/workloads.hh"

/** The registered function named @p name (a test failure if none). */
inline svb::FunctionSpec
specFor(const std::string &name)
{
    for (const svb::FunctionSpec &spec : svb::workloads::allFunctions()) {
        if (spec.name == name)
            return spec;
    }
    ADD_FAILURE() << "unknown function " << name;
    return {};
}

/** A result-cache path removed when the scope opens and closes. */
struct TempCacheFile
{
    explicit TempCacheFile(std::string p) : path(std::move(p))
    {
        std::remove(path.c_str());
    }
    ~TempCacheFile() { std::remove(path.c_str()); }
    std::string path;
};

/** Redirect the global CheckpointStore to a private directory for the
 *  duration of one test, deleting it (and any snapshots) afterwards. */
struct TempCheckpointDir
{
    explicit TempCheckpointDir(std::string d) : dir(std::move(d))
    {
        std::filesystem::remove_all(dir);
        svb::CheckpointStore::global().resetForTest(dir);
    }
    ~TempCheckpointDir()
    {
        std::filesystem::remove_all(dir);
        // Leave the store pointing at a dead directory with empty
        // caches so later tests must opt in with their own dir.
        svb::CheckpointStore::global().resetForTest(dir);
    }
    std::string dir;
};

/** Record a hand-written ldcal row for @p spec on @p cluster, so a
 *  replay of it simulates no CPU. */
inline void
recordCalibration(svb::ResultCache &cache, const svb::ClusterConfig &cluster,
                  const svb::FunctionSpec &spec, uint64_t cold_ns,
                  const uint64_t (&warm_ns)[svb::loadWarmSamples])
{
    svb::LoadCalibration cal;
    cal.name = spec.name;
    cal.coldNs = cold_ns;
    for (unsigned k = 0; k < svb::loadWarmSamples; ++k)
        cal.warmNs[k] = warm_ns[k];
    cal.ok = true;
    cache.recordRow(cache.rowKey(cluster, spec, svb::RunMode::LoadCal),
                    svb::packRunResult(cal));
}

#endif // SVB_TESTS_TEST_SUPPORT_HH
