/**
 * @file
 * The benchmark's workloads and the per-layer metric set the traced
 * run reports.  Each workload makes its inputs from the seed, runs
 * whole rounds of the same ops until the requested time is spent,
 * checks every output, and fills one RunResult.
 */

#ifndef QBENCH_WORKLOADS_H
#define QBENCH_WORKLOADS_H

#include <map>
#include <string>
#include <vector>

#include "engine/sweep.h"
#include "service/cache.h"
#include "stats.h"

namespace qbench {

/** Cold paper-figure sweeps in the congested regime. */
RunResult runFiguresCongested(const RunOptions &opts);

/** Long serial QASM programs at large distance, warm machines. */
RunResult runDeepSerial(const RunOptions &opts);

/** compile_server over a local socket, closed-loop request mix. */
RunResult runServeMix(const RunOptions &opts);

/**
 * The per-layer metrics of a traced run.  Every traced run reports
 * every one of them, in a fixed order; a layer a workload does not
 * reach reads 0 (the README lists which workload moves which).
 */
class LayerMetrics
{
  public:
    LayerMetrics();

    void set(const std::string &name, double value);
    void add(const std::string &name, double value);
    double get(const std::string &name) const;

    /** Append every metric to @p r. */
    void emit(RunResult &r) const;

  private:
    std::map<std::string, double> values_;
};

/** Sums the backend counters of sweep points, per layer. */
struct SweepCounters
{
    double bfs_detours = 0;
    double transpose_fallbacks = 0;
    double placement_failures = 0;
    double drops = 0;
    double ff_skipped = 0;
    double ff_cycles = 0;     ///< Cycles of runs that report ff.
    double sim_cycles = 0;    ///< All simulated schedule cycles.
    double heap_allocs = 0;
    double arena_allocs = 0;
    double points = 0;
    std::map<std::string, double> layer_cycles;
    std::map<std::string, double> layer_ms;

    void add(const qsurf::engine::SweepPoint &p);

    /** Store the counter-derived layer metrics, per round of
     *  @p rounds. */
    void store(LayerMetrics &layers, double rounds) const;
};

class SpanLog;

/**
 * Traced runs only: time the frontend and layout calls a program's
 * preparation makes, on @p logical — circuit::peephole, then
 * partition::layoutOnGrid and refineForCorridors on its interaction
 * graph — as "circuit.peephole", "partition.layout" and
 * "partition.refine" spans.  The results are discarded.
 */
void probeFrontendLayers(SpanLog &log,
                         const qsurf::circuit::Circuit &logical);

/**
 * Store the span-timed layer metrics of @p log: "<layer>.run_ms"
 * (divided by @p runs_per), "<layer>.build_ms" (divided by
 * @p builds_per) and the frontend and layout "<name>_ms" totals.
 */
void storeSpanLayers(LayerMetrics &layers, const SpanLog &log,
                     double runs_per, double builds_per);

/** Options of the benchmark's sweeps: one thread, no row stream,
 *  heap allocations counted; a null @p cache runs inline. */
qsurf::engine::SweepOptions sweepOptions(qsurf::service::PrepareCache *cache);

/**
 * Re-run the @p sample points of @p grid stepped (fast_forward off,
 * artifacts through @p cache) and inline (no prepared artifact), and
 * record in @p result every difference from @p first, the grid's
 * results, under @p label.
 */
void checkSample(const qsurf::engine::SweepGrid &grid,
                 const std::vector<qsurf::engine::SweepPoint> &first,
                 const std::vector<size_t> &sample,
                 qsurf::service::PrepareCache &cache,
                 const std::string &label, RunResult &result);

/** Deterministic pick of @p k distinct indices below @p n. */
std::vector<size_t> samplePoints(size_t n, size_t k, uint64_t seed);

} // namespace qbench

#endif // QBENCH_WORKLOADS_H
