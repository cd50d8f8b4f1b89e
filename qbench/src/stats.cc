#include "stats.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>

#include <sys/resource.h>

#include "common/json.h"

namespace qbench {

double
msSince(Clock::time_point a)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - a)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double hi = v[mid];
    if (v.size() % 2)
        return hi;
    double lo = *std::max_element(v.begin(), v.begin() + mid);
    return (lo + hi) / 2;
}

namespace {

size_t
nearestRank(size_t n, double pct)
{
    auto rank = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    return std::clamp<size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0;
    size_t k = nearestRank(v.size(), pct) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k),
                     v.end());
    return v[k];
}

size_t
samplesBeyond(size_t n, double pct)
{
    return n ? n - nearestRank(n, pct) : 0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
RunResult::add(std::string name, std::string unit, double value)
{
    metrics.push_back({std::move(name), std::move(unit), value});
}

void
RunResult::fail(std::string why)
{
    correct = false;
    problems.push_back(std::move(why));
}

std::string
resultJson(const RunResult &r)
{
    std::ostringstream os;
    qsurf::JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.field("correct", r.correct);
    j.field("attempted", r.attempted);
    j.field("failed", r.failed);
    j.key("metrics");
    j.beginObject();
    for (const Metric &m : r.metrics) {
        j.key(m.name);
        j.beginObject();
        j.field("value", m.value);
        j.field("unit", m.unit);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    return os.str();
}

std::vector<double>
perOpMedians(const std::vector<double> &op_ms, size_t per_round)
{
    const size_t rounds = per_round ? op_ms.size() / per_round : 0;
    std::vector<double> medians, samples(rounds);
    for (size_t i = 0; rounds && i < per_round; ++i) {
        for (size_t k = 0; k < rounds; ++k)
            samples[k] = op_ms[k * per_round + i];
        medians.push_back(median(samples));
    }
    return medians;
}

void
addEndToEnd(RunResult &r, double setup_s, const OpTimings &t,
            double tail_pct, double peak_rss_mb)
{
    const std::vector<double> ops =
        t.ops_per_round ? perOpMedians(t.op_ms, t.ops_per_round)
                        : t.op_ms;
    // Too short a run to resolve the tail is the run length's fault,
    // not the program's: warn, and report the percentile anyway.
    if (samplesBeyond(ops.size(), tail_pct) < 10)
        std::cerr << "qbench: op_tail_ms: fewer than ten of "
                  << ops.size() << " ops beyond p" << tail_pct
                  << "; run longer\n";
    r.add("setup_s", "s", setup_s * t.host_scale);
    r.add("wall_s", "s", median(t.round_s) * t.host_scale);
    r.add("op_p50_ms", "ms", median(ops) * t.host_scale);
    r.add("op_tail_ms", "ms", percentile(ops, tail_pct) * t.host_scale);
    r.add("peak_rss_mb", "MB", peak_rss_mb);
}

} // namespace qbench
