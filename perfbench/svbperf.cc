/**
 * @file
 * svbperf: the host-time benchmark binary.
 *
 *   svbperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *           --workdir <dir> [--setup-reps <k>]
 *
 * Workloads: detailed-fresh, coldstart-churn, invocation-replay (see
 * their source files). Runs on one thread; prints the records listed
 * in harness.hh. perfbench/run.py builds and drives it.
 */

#include <sys/resource.h>

#include <cstring>
#include <filesystem>

#include "harness.hh"

using namespace svbperf;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: svbperf --workload <detailed-fresh|coldstart-churn|"
                 "invocation-replay> --seed <n> --seconds <s> --trace <0|1> "
                 "--workdir <dir> [--setup-reps <k>]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *key = argv[i];
        const char *val = argv[i + 1];
        if (!std::strcmp(key, "--workload"))
            args.workload = val;
        else if (!std::strcmp(key, "--seed"))
            args.seed = std::strtoull(val, nullptr, 10);
        else if (!std::strcmp(key, "--seconds"))
            args.seconds = std::strtod(val, nullptr);
        else if (!std::strcmp(key, "--trace"))
            args.trace = std::strcmp(val, "0") != 0;
        else if (!std::strcmp(key, "--workdir"))
            args.workdir = val;
        else if (!std::strcmp(key, "--setup-reps"))
            args.setupReps = unsigned(std::strtoul(val, nullptr, 10));
        else
            return usage();
    }
    if (argc % 2 != 1 || args.workdir.empty() || args.setupReps == 0)
        return usage();

    void (*run)(const RunArgs &, Spans &) = nullptr;
    if (args.workload == "detailed-fresh")
        run = runDetailedFresh;
    else if (args.workload == "coldstart-churn")
        run = runColdstartChurn;
    else if (args.workload == "invocation-replay")
        run = runInvocationReplay;
    else
        return usage();

    std::error_code ec;
    std::filesystem::create_directories(args.workdir, ec);
    if (ec) {
        std::fprintf(stderr, "svbperf: cannot create %s: %s\n",
                     args.workdir.c_str(), ec.message().c_str());
        return 1;
    }

    Spans spans(args.trace);
    double user0 = 0, sys0 = 0;
    cpuSeconds(user0, sys0);
    run(args, spans);
    double user1 = 0, sys1 = 0;
    cpuSeconds(user1, sys1);

    if (args.trace) {
        metric("proc.user_s." + args.workload, user1 - user0, "s");
        metric("proc.sys_s." + args.workload, sys1 - sys0, "s");
        for (const auto &[layer, secs] : spans.selfSecondsByLayer())
            metric("self_s." + args.workload + "." + layer, secs, "s");
        const std::string path =
            args.workdir + "/../spans-" + args.workload + ".json";
        if (!spans.writeChromeTrace(path))
            std::fprintf(stderr, "svbperf: cannot write %s\n", path.c_str());
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("proc %ld %.6f %.6f\n", long(ru.ru_maxrss), user1, sys1);
    return 0;
}
