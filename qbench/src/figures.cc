/**
 * @file
 * figures-congested: the simulated paper-figure grids, run cold on
 * one thread through engine::SweepDriver, as the figure benches run
 * them.  One op is one grid point (its artifact prepare plus its
 * run); one round is every grid once, each round with a fresh
 * prepare cache, and with each point's result row serialized the
 * way the benches write their JSON.  Each round lays the machines
 * out with its own seeds, drawn from the run seed, so a run averages
 * over as many layouts as it has rounds.
 */

#include <algorithm>
#include <malloc.h>
#include <memory>
#include <sstream>

#include "apps/apps.h"
#include "checks.h"
#include "circuit/decompose.h"
#include "common/json.h"
#include "engine/registry.h"
#include "engine/sweep.h"
#include "hostspeed.h"
#include "qec/technology.h"
#include "service/cache.h"
#include "spans.h"
#include "workloads.h"

namespace qbench {

namespace {

using namespace qsurf;
namespace backends = engine::backends;

using apps::AppKind;

/**
 * The figure grids: Fig. 6 braid policies, Section 8.2 surgery
 * (simulated and analytic), the hybrid crossover, the layout
 * objectives and the yield sweep, at the benches' own sizes.  The
 * run seed replaces the benches' fixed layout and defect-map seeds.
 */
std::vector<engine::SweepGrid>
figureGrids(uint64_t seed)
{
    std::vector<engine::SweepGrid> grids;
    const qec::Technology future = qec::tech_points::futureOptimistic();

    engine::SweepGrid fig6;
    fig6.apps = {{AppKind::GSE, {12, 3}, ""},
                 {AppKind::SQ, {8, 4}, ""},
                 {AppKind::SHA1, {16, 3}, ""},
                 {AppKind::IsingSemi, {42, 3}, ""}};
    fig6.backends = {backends::double_defect};
    fig6.policies = {0, 1, 2, 3, 4, 5, 6};
    fig6.distances = {5};
    grids.push_back(fig6);

    engine::SweepGrid sec82;
    sec82.apps = {{AppKind::SQ, {8, 2}, ""},
                  {AppKind::IsingSemi, {24, 2}, ""}};
    sec82.backends = {backends::planar, backends::double_defect,
                      backends::surgery_sim};
    sec82.distances = {3, 5, 7};
    grids.push_back(sec82);

    engine::SweepGrid models;
    models.apps = {{AppKind::SQ, {}, ""}, {AppKind::IsingFull, {}, ""}};
    models.backends = {backends::planar_model,
                       backends::double_defect_model,
                       backends::surgery_model};
    models.sizes.clear();
    for (double kq = 1e2; kq <= 1e20; kq *= 1000)
        models.sizes.push_back(kq);
    models.base.tech = future;
    grids.push_back(models);

    engine::SweepGrid hybrid;
    hybrid.apps = {{AppKind::SQ, {8, 2}, ""},
                   {AppKind::IsingFull, {12, 2}, ""}};
    hybrid.distances = {3, 5, 7, 9};
    hybrid.base.tech = future;
    engine::SweepGrid pure = hybrid;
    hybrid.backends = {backends::hybrid_mixed};
    hybrid.arbiters = {0, 1, 2, 3, 4};
    pure.backends = {backends::double_defect, backends::surgery_sim};
    grids.push_back(hybrid);
    grids.push_back(pure);

    engine::SweepGrid layout;
    layout.apps = {{AppKind::SQ, {8, 2}, ""},
                   {AppKind::IsingFull, {12, 2}, ""}};
    layout.backends = {backends::surgery_sim, backends::hybrid_mixed};
    layout.layout_objectives = {0, 1, 2};
    layout.distances = {3, 5, 7, 9};
    layout.base.lane_spacing = 3;
    layout.base.tech = future;
    grids.push_back(layout);

    engine::SweepGrid yield;
    yield.apps = {{AppKind::SQ, {8, 2}, ""},
                  {AppKind::IsingFull, {12, 2}, ""}};
    yield.backends = {backends::double_defect, backends::surgery_sim,
                      backends::hybrid_mixed};
    yield.distances = {5};
    yield.defects = {0, 0.03, 0.06, 0.1};
    yield.base.defect_seed = engine::mixSeed(seed, 0xde);
    yield.base.tech = future;
    grids.push_back(yield);

    for (size_t g = 0; g < grids.size(); ++g)
        grids[g].base.seed = engine::mixSeed(seed, g);
    return grids;
}

/** Index of the yield grid in figureGrids(). */
constexpr size_t kYieldGrid = 6;

/**
 * The op_tail_ms percentile: about 22 points of each 216-point round
 * lie beyond it.  Higher up, the round's points thin out into single
 * heavy ones (p95 sits on a step between clusters), and the value
 * jumps with the layouts a run happens to draw.  Op latencies are
 * pooled over rounds: each round draws new layouts, and pooling
 * averages over them.
 */
constexpr double kTailPct = 90;

} // namespace

RunResult
runFiguresCongested(const RunOptions &opts)
{
    RunResult result;
    SpanLog log(opts.trace);
    std::unique_ptr<engine::Registry> traced =
        opts.trace ? tracedRegistry(log) : nullptr;
    const engine::Registry &registry =
        traced ? *traced : engine::Registry::global();
    engine::SweepDriver driver(registry);
    LayerMetrics layers;

    // Set-up: the grids, and the frontend of every app point, whose
    // decomposed gate lists give the dependence depths checked below
    // (the apps are the same in every round; only seeds change).
    std::vector<engine::SweepGrid> grids = figureGrids(opts.seed);
    std::vector<std::vector<uint64_t>> depth(grids.size());
    for (size_t g = 0; g < grids.size(); ++g) {
        bool simulated = false;
        for (const std::string &b : grids[g].backends)
            simulated = simulated || isSimulated(b);
        for (const engine::AppPoint &app : grids[g].apps) {
            if (!simulated)
                break; // Analytic models size from KQ, not circuits.
            circuit::Circuit logical;
            {
                ScopedSpan span(&log, "apps.generate");
                logical = apps::generate(app.kind, app.gen);
            }
            circuit::Circuit decomposed;
            {
                ScopedSpan span(&log, "circuit.decompose");
                decomposed = circuit::decompose(logical);
            }
            depth[g].push_back(dependenceDepth(decomposed));
            layers.add("circuit.gates", decomposed.size());
        }
    }
    // Then one untimed warm-up round of round 0's grids, through the
    // untraced registry, with its own cold cache.  Start-up alone is
    // about 1 ms and mostly process-start jitter (0.9-1.7 ms over 20
    // runs), too little to hold setup_s to a bound; and round 0 then
    // times a cold round of a warm process, as every later round does.
    {
        service::PrepareCache cache;
        engine::SweepDriver warm;
        for (const engine::SweepGrid &grid : grids)
            warm.run(grid, sweepOptions(&cache));
    }
    malloc_trim(0);
    const double setup_s = msSince(opts.start) / 1e3;

    // Timed rounds, with the host's speed sampled between them.
    OpTimings timings;
    SweepCounters counters;
    HostSpeed host;
    std::vector<std::vector<engine::SweepPoint>> first(grids.size());
    Clock::time_point timed_start = Clock::now();
    size_t rounds = 0;
    while (rounds == 0 || msSince(timed_start) < opts.seconds * 1e3) {
        if (rounds > 0) {
            grids = figureGrids(engine::mixSeed(opts.seed, rounds));
            // Each round stands for one cold figure run: hand the
            // previous round's freed heap back first, so peak RSS is
            // a round's peak and not the allocator's fragmentation
            // history across rounds.
            malloc_trim(0);
        }
        // Between rounds, on the small heap, so the sample's own
        // memory stays below a round's peak.
        host.sampleEvery(kHostSampleEveryS);
        Clock::time_point round_start = Clock::now();
        service::PrepareCache cache;
        for (size_t g = 0; g < grids.size(); ++g) {
            std::vector<engine::SweepPoint> points =
                driver.run(grids[g], sweepOptions(&cache));
            std::ostringstream os;
            JsonWriter j(os, /*compact=*/true);
            j.beginArray();
            for (const engine::SweepPoint &p : points) {
                timings.op_ms.push_back(p.prepare_ms + p.wall_ms);
                ScopedSpan span(&log, "engine.row_json");
                engine::writeSweepRow(j, p, /*timing=*/false);
            }
            j.endArray();
            // Every simulated point: schedule >= critical path >=
            // dependence depth.
            for (const engine::SweepPoint &p : points) {
                counters.add(p);
                if (!isSimulated(p.backend))
                    continue;
                std::string why =
                    checkCycleBounds(p.metrics, depth[g][p.app_index]);
                if (!why.empty())
                    result.fail(p.app_name + "/" + p.backend + " point "
                                + std::to_string(p.index) + ": " + why);
            }
            if (rounds == 0)
                first[g] = std::move(points);
        }
        timings.round_s.push_back(msSince(round_start) / 1e3);
        result.attempted = static_cast<uint64_t>(counters.points);
        ++rounds;
    }
    timings.host_scale = host.scale();
    const double peak_rss = peakRssMb();
    grids = figureGrids(opts.seed); // Round 0's, for the re-runs.

    // A seeded sample of round 0's points, again stepped
    // (fast_forward off) and again inline (no prepared artifact):
    // identical metrics.
    for (size_t g = 0; g < grids.size(); ++g) {
        service::PrepareCache cache;
        checkSample(grids[g], first[g],
                    samplePoints(first[g].size(), 2,
                                 engine::mixSeed(opts.seed, 100 + g)),
                    cache, "grid " + std::to_string(g) + ": ", result);
    }

    if (!opts.trace) {
        addEndToEnd(result, setup_s, timings, kTailPct, peak_rss);
        return result;
    }

    // Damaged-fabric points: no defective link carries traffic.
    {
        obs::TraceSession session;
        engine::SweepOptions so = sweepOptions(nullptr);
        so.trace = &session;
        engine::SweepDriver().run(grids[kYieldGrid], so);
        std::ostringstream heatmap;
        session.writeHeatmap(heatmap);
        std::string why = checkHeatmapDefects(heatmap.str());
        if (!why.empty())
            result.fail(why);
    }

    for (const engine::SweepGrid &grid : grids)
        for (const engine::AppPoint &app : grid.apps)
            if (app.gen.max_iterations > 0) // The simulated apps.
                probeFrontendLayers(log,
                                    apps::generate(app.kind, app.gen));
    const double r = static_cast<double>(rounds);
    counters.store(layers, r);
    storeSpanLayers(layers, log, r, r);
    size_t rows = log.count("engine.row_json");
    layers.set("engine.row_json_us",
               rows ? log.totalMs("engine.row_json") * 1e3
                       / static_cast<double>(rows)
                    : 0);
    layers.set("trace.wall_s", median(timings.round_s) * host.scale());
    layers.set("host.kernel_ms", median(host.samplesMs()));
    layers.emit(result);
    log.write(opts.out_dir + "/trace-figures-congested-s"
              + std::to_string(opts.seed) + ".json");
    return result;
}

} // namespace qbench
