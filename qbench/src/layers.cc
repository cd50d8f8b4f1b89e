#include <algorithm>
#include <numeric>

#include "alloc_hook.h"
#include "checks.h"
#include "circuit/interaction.h"
#include "circuit/peephole.h"
#include "common/logging.h"
#include "partition/layout.h"
#include "common/rng.h"
#include "spans.h"
#include "workloads.h"

namespace qbench {

namespace {

struct LayerDef
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in output order (BENCHMARK.json lists
 *  the same names). */
constexpr LayerDef kLayers[] = {
    {"braid.run_ms", "ms"},
    {"surgery.run_ms", "ms"},
    {"hybrid.run_ms", "ms"},
    {"planar.run_ms", "ms"},
    {"estimate.run_ms", "ms"},
    {"network.bfs_detours", "count"},
    {"network.transpose_fallbacks", "count"},
    {"surgery.placement_failures", "count"},
    {"engine.drops", "count"},
    {"engine.ff_skip_ratio", "ratio"},
    {"braid.mcyc_per_s", "Mcyc/s"},
    {"surgery.mcyc_per_s", "Mcyc/s"},
    {"hybrid.mcyc_per_s", "Mcyc/s"},
    {"planar.mcyc_per_s", "Mcyc/s"},
    {"qasm.parse_ms", "ms"},
    {"qasm.flatten_ms", "ms"},
    {"apps.generate_ms", "ms"},
    {"circuit.decompose_ms", "ms"},
    {"circuit.peephole_ms", "ms"},
    {"circuit.gates", "count"},
    {"partition.layout_ms", "ms"},
    {"partition.refine_ms", "ms"},
    {"braid.build_ms", "ms"},
    {"surgery.build_ms", "ms"},
    {"planar.build_ms", "ms"},
    {"service.overhead_ms", "ms"},
    {"service.prepare_ms", "ms"},
    {"service.run_ms", "ms"},
    {"service.client_compile_ms", "ms"},
    {"service.wire_encode_us", "us"},
    {"service.wire_decode_us", "us"},
    {"service.batch_size", "count"},
    {"service.cache_hit_ratio", "ratio"},
    {"engine.row_json_us", "us"},
    {"common.heap_allocs_per_op", "count"},
    {"common.arena_allocs_per_op", "count"},
    {"engine.sim_cycles", "cycles"},
    {"trace.wall_s", "s"},
    {"host.kernel_ms", "ms"},
};

} // namespace

LayerMetrics::LayerMetrics()
{
    for (const LayerDef &d : kLayers)
        values_[d.name] = 0;
}

void
LayerMetrics::set(const std::string &name, double value)
{
    auto it = values_.find(name);
    qsurf::panicIf(it == values_.end(), "unknown layer metric ", name);
    it->second = value;
}

void
LayerMetrics::add(const std::string &name, double value)
{
    set(name, get(name) + value);
}

double
LayerMetrics::get(const std::string &name) const
{
    auto it = values_.find(name);
    qsurf::panicIf(it == values_.end(), "unknown layer metric ", name);
    return it->second;
}

void
LayerMetrics::emit(RunResult &r) const
{
    for (const LayerDef &d : kLayers)
        r.add(d.name, d.unit, values_.at(d.name));
}

void
SweepCounters::add(const qsurf::engine::SweepPoint &p)
{
    const qsurf::engine::Metrics &m = p.metrics;
    bfs_detours += m.extra("bfs_detours");
    transpose_fallbacks +=
        m.extra("transpose_fallbacks") + m.extra("yx_fallbacks");
    placement_failures += m.extra("placement_failures");
    drops += m.extra("drops");
    if (m.has("ff_skipped_cycles")) {
        ff_skipped += m.extra("ff_skipped_cycles");
        ff_cycles += static_cast<double>(m.schedule_cycles);
    }
    heap_allocs += static_cast<double>(p.heap_allocs);
    arena_allocs += static_cast<double>(p.arena_allocs);
    points += 1;
    if (isSimulated(p.backend)) {
        sim_cycles += static_cast<double>(m.schedule_cycles);
        layer_cycles[layerOf(p.backend)] +=
            static_cast<double>(m.schedule_cycles);
    }
    layer_ms[layerOf(p.backend)] += p.wall_ms;
}

void
SweepCounters::store(LayerMetrics &layers, double rounds) const
{
    layers.set("network.bfs_detours", bfs_detours / rounds);
    layers.set("network.transpose_fallbacks",
               transpose_fallbacks / rounds);
    layers.set("surgery.placement_failures",
               placement_failures / rounds);
    layers.set("engine.drops", drops / rounds);
    layers.set("engine.ff_skip_ratio",
               ff_cycles > 0 ? ff_skipped / ff_cycles : 0);
    layers.set("engine.sim_cycles", sim_cycles / rounds);
    layers.set("common.heap_allocs_per_op",
               points > 0 ? heap_allocs / points : 0);
    layers.set("common.arena_allocs_per_op",
               points > 0 ? arena_allocs / points : 0);
    for (const auto &[layer, cycles] : layer_cycles) {
        double ms = layer_ms.count(layer) ? layer_ms.at(layer) : 0;
        if (ms > 0)
            layers.set(layer + ".mcyc_per_s", cycles / (ms * 1e3));
    }
}

void
probeFrontendLayers(SpanLog &log, const qsurf::circuit::Circuit &logical)
{
    using namespace qsurf;
    {
        ScopedSpan span(&log, "circuit.peephole");
        circuit::peephole(logical);
    }
    circuit::InteractionGraph ig = circuit::interactionGraph(logical);
    partition::Graph g(ig.num_qubits);
    for (const auto &[pair, w] : ig.edges)
        g.addEdge(pair.first, pair.second, static_cast<int64_t>(w));
    auto [width, height] = partition::gridShape(ig.num_qubits);
    partition::GridLayout layout;
    {
        ScopedSpan span(&log, "partition.layout");
        layout = partition::layoutOnGrid(g, width, height);
    }
    ScopedSpan span(&log, "partition.refine");
    partition::refineForCorridors(g, layout);
}

void
storeSpanLayers(LayerMetrics &layers, const SpanLog &log, double runs_per,
                double builds_per)
{
    for (std::string layer :
         {"braid", "surgery", "hybrid", "planar", "estimate"})
        layers.set(layer + ".run_ms", log.totalMs(layer + ".run") / runs_per);
    // hybrid/mixed-sim shares surgery's machine and artifact key, and
    // the analytic models build nothing.
    for (std::string layer : {"braid", "surgery", "planar"})
        layers.set(layer + ".build_ms",
                   log.totalMs(layer + ".build") / builds_per);
    for (std::string name :
         {"apps.generate", "qasm.parse", "qasm.flatten",
          "circuit.decompose", "circuit.peephole", "partition.layout",
          "partition.refine"})
        layers.set(name + "_ms", log.totalMs(name));
}

qsurf::engine::SweepOptions
sweepOptions(qsurf::service::PrepareCache *cache)
{
    qsurf::engine::SweepOptions so;
    so.num_threads = 1;
    so.cache = cache;
    so.use_cache = cache != nullptr;
    so.stream_rows = false;
    so.heap_alloc_counter = heapAllocs;
    return so;
}

void
checkSample(const qsurf::engine::SweepGrid &grid,
            const std::vector<qsurf::engine::SweepPoint> &first,
            const std::vector<size_t> &sample,
            qsurf::service::PrepareCache &cache, const std::string &label,
            RunResult &result)
{
    using namespace qsurf;
    auto picked = [&](size_t i) {
        return std::binary_search(sample.begin(), sample.end(), i);
    };
    engine::SweepGrid stepped = grid;
    stepped.base.fast_forward = false;
    engine::SweepOptions step_opts = sweepOptions(&cache);
    step_opts.point_filter = picked;
    std::vector<engine::SweepPoint> step_pts =
        engine::SweepDriver().run(stepped, step_opts);
    engine::SweepOptions inline_opts = sweepOptions(nullptr);
    inline_opts.point_filter = picked;
    std::vector<engine::SweepPoint> inline_pts =
        engine::SweepDriver().run(grid, inline_opts);
    for (size_t i : sample) {
        const engine::SweepPoint &p = first[i];
        std::string where = label + p.app_name + "/" + p.backend
            + " d=" + std::to_string(p.distance) + " point "
            + std::to_string(i);
        std::string why =
            compareMetrics(p.metrics, step_pts[i].metrics, true);
        if (!why.empty())
            result.fail(where + " stepped: " + why);
        why = compareMetrics(p.metrics, inline_pts[i].metrics, false);
        if (!why.empty())
            result.fail(where + " inline: " + why);
    }
}

std::vector<size_t>
samplePoints(size_t n, size_t k, uint64_t seed)
{
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), size_t{0});
    qsurf::Rng rng(seed);
    k = std::min(k, n);
    for (size_t i = 0; i < k; ++i) {
        size_t j = i + static_cast<size_t>(rng.below(n - i));
        std::swap(all[i], all[j]);
    }
    all.resize(k);
    std::sort(all.begin(), all.end());
    return all;
}

} // namespace qbench
