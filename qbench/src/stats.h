/**
 * @file
 * Shared plumbing of the benchmark driver: clocks, order statistics,
 * process memory, and the one-line JSON result every run ends with.
 */

#ifndef QBENCH_STATS_H
#define QBENCH_STATS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace qbench {

using Clock = std::chrono::steady_clock;

/** @return milliseconds from @p a to now. */
double msSince(Clock::time_point a);

/** @return the median of @p v (mean of the middle pair when even);
 *  0 for an empty vector. */
double median(std::vector<double> v);

/** @return the nearest-rank @p pct-th percentile of @p v
 *  (the smallest sample with at least pct% of samples at or below
 *  it); 0 for an empty vector. */
double percentile(std::vector<double> v, double pct);

/** @return how many samples of @p n lie strictly beyond the
 *  nearest-rank @p pct-th percentile. */
size_t samplesBeyond(size_t n, double pct);

/** @return the process's peak resident set so far, in MB. */
double peakRssMb();

/** One named measurement of the result line. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** Everything one run reports. */
struct RunResult
{
    /** Outputs checked and found right (failed ops excepted). */
    bool correct = true;

    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** In output order. */
    std::vector<Metric> metrics;

    /** Human-readable reasons correct is false (stderr only). */
    std::vector<std::string> problems;

    void add(std::string name, std::string unit, double value);

    /** Record a failed check: clears correct, keeps the reason. */
    void fail(std::string why);
};

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;

    /** The compile_server executable (serve-mix). */
    std::string server;

    /** Directory for sockets, logs and traces. */
    std::string out_dir = ".bench_out";

    /** Process start: set-up is timed from here. */
    Clock::time_point start;
};

/** Write @p r as the single-line result object. */
std::string resultJson(const RunResult &r);

/** The shared end-to-end metrics every workload reports. */
struct OpTimings
{
    /** Milliseconds of every timed op, round after round. */
    std::vector<double> op_ms;

    /**
     * When every round runs the same ops in the same order: how many.
     * An op's latency is then its median over the run's rounds, and
     * op_p50_ms and op_tail_ms are taken over those medians, so a
     * host's jitter from round to round widens no percentile.  0:
     * over every sample.
     */
    size_t ops_per_round = 0;

    /** Seconds of every whole round of ops. */
    std::vector<double> round_s;

    /** Factor that takes this run's times to the reference host
     *  speed (HostSpeed::scale()). */
    double host_scale = 1;
};

/** @return each op's median over the whole rounds of @p op_ms, which
 *  holds @p per_round ops per round in the same order. */
std::vector<double> perOpMedians(const std::vector<double> &op_ms,
                                 size_t per_round);

/**
 * Append setup_s, wall_s, op_p50_ms, op_tail_ms and peak_rss_mb to
 * @p r, every time at the reference host speed (times
 * t.host_scale): setup_s as timed by the caller, wall_s the median
 * round, op_p50_ms the median op and op_tail_ms the @p tail_pct-th
 * percentile of the ops (per op over rounds when t.ops_per_round is
 * set), whose count the caller fixed so at least ten lie beyond it
 * (a shorter run warns on stderr).
 */
void addEndToEnd(RunResult &r, double setup_s, const OpTimings &t,
                 double tail_pct, double peak_rss_mb);

} // namespace qbench

#endif // QBENCH_STATS_H
