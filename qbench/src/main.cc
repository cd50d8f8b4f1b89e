/**
 * @file
 * The benchmark driver.
 *
 *   qbench --workload figures-congested|deep-serial|serve-mix
 *          --seed N --seconds S --trace 0|1
 *          [--server PATH] [--out-dir DIR]
 *
 * Runs one workload and prints, as the last line of standard output,
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics untraced, the per-layer metrics traced.  qbench/run.py
 * builds this program and is the documented entry point.
 */

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/logging.h"
#include "stats.h"
#include "workloads.h"

namespace {

int
usage()
{
    std::cerr << "usage: qbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--server PATH] [--out-dir DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    qbench::RunOptions opts;
    opts.start = qbench::Clock::now();
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i], val = argv[i + 1];
        if (key == "--workload")
            opts.workload = val;
        else if (key == "--seed")
            opts.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            opts.seconds = std::atof(val.c_str());
        else if (key == "--trace")
            opts.trace = val == "1";
        else if (key == "--server")
            opts.server = val;
        else if (key == "--out-dir")
            opts.out_dir = val;
        else
            return usage();
    }
    if (argc % 2 == 0 || opts.seconds <= 0)
        return usage();

    qsurf::setQuiet(true);
    try {
        std::filesystem::create_directories(opts.out_dir);
        qbench::RunResult result;
        if (opts.workload == "figures-congested")
            result = qbench::runFiguresCongested(opts);
        else if (opts.workload == "deep-serial")
            result = qbench::runDeepSerial(opts);
        else if (opts.workload == "serve-mix")
            result = qbench::runServeMix(opts);
        else
            return usage();
        for (const std::string &p : result.problems)
            std::cerr << "qbench: check failed: " << p << "\n";
        std::cout << qbench::resultJson(result) << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "qbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
