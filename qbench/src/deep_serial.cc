/**
 * @file
 * deep-serial: long serial programs (GSE and SQ with many Trotter
 * and Grover rounds) handed to the program as QASM text, run at
 * large code distances on the four simulated backends.
 *
 * Set-up parses, flattens and decomposes every program and builds
 * every machine artifact into a prepare cache: each program on each
 * backend and distance, laid out under its own number of seeds drawn
 * from the run seed (one app point per layout, so a run averages over
 * them).  A timed round then runs the whole grid through
 * engine::SweepDriver against that warm cache, as a design-space
 * sweep reusing its machines does.  One op is one grid point.
 */

#include <algorithm>
#include <memory>
#include <sstream>

#include "apps/apps.h"
#include "checks.h"
#include "engine/registry.h"
#include "engine/sweep.h"
#include "hostspeed.h"
#include "qasm/flatten.h"
#include "qasm/parser.h"
#include "service/artifact.h"
#include "service/cache.h"
#include "spans.h"
#include "workloads.h"

namespace qbench {

namespace {

using namespace qsurf;
namespace backends = engine::backends;

/** One deep program: generator, knobs, layout seeds (app points of
 *  the grid). */
struct DeepProgram
{
    apps::AppKind kind;
    apps::GenOptions gen;
    int layouts;
};

/**
 * GSE gets twice SQ's layouts.  A point's time clusters by program
 * and backend: planar runs take ~0.2 ms, SQ on double-defect and
 * hybrid 3-4 ms, GSE on the three claim-path backends 8-10 ms.  With
 * equal layout counts the median point falls exactly between the SQ
 * and GSE clusters, where its value jumps with the seed's layouts;
 * 12:6 puts it inside the GSE cluster, and the tail percentile below
 * inside GSE on hybrid, away from SQ on planar/surgery-sim, whose
 * time varies most from layout to layout.
 */
const DeepProgram kPrograms[] = {
    {apps::AppKind::GSE, {8, 100}, 12},
    {apps::AppKind::SQ, {8, 200}, 6},
};

/**
 * Passes of the host-speed kernel's memory part per sample, about
 * half the kernel's time.  These ops walk machines of several MB out
 * of a ~320 MB set, and in host slowdowns they slowed about 1.6 times
 * as much, in log terms, as the kernel with one pass did.
 */
constexpr int kMemoryPasses = 4;

/** The op_tail_ms percentile of the 216 points (each at its median
 *  over the run's rounds): 21 of them lie beyond it. */
constexpr double kTailPct = 90;

/**
 * @return @p circ as QASM text with every Rz angle written to full
 * double precision, so the text holds exactly the generated program.
 * (qasm::write prints angles at the stream's default six digits,
 * which is not a lossless round trip.)
 */
std::string
exactQasm(const circuit::Circuit &circ)
{
    std::ostringstream os;
    os.precision(17);
    os << "qbit q[" << circ.numQubits() << "];\n";
    for (const circuit::Gate &g : circ) {
        os << circuit::gateName(g.kind);
        if (g.kind == circuit::GateKind::Rz)
            os << "(" << g.angle << ")";
        const char *sep = " ";
        for (int32_t q : g.operands()) {
            os << sep << "q[" << q << "]";
            sep = ", ";
        }
        os << ";\n";
    }
    return os.str();
}

} // namespace

RunResult
runDeepSerial(const RunOptions &opts)
{
    RunResult result;
    SpanLog log(opts.trace);
    std::unique_ptr<engine::Registry> traced =
        opts.trace ? tracedRegistry(log) : nullptr;
    const engine::Registry &registry =
        traced ? *traced : engine::Registry::global();
    LayerMetrics layers;

    // Set-up: QASM in, decomposed programs and machines out.
    service::PrepareCache cache;
    engine::SweepGrid grid;
    grid.backends = {backends::double_defect, backends::planar,
                     backends::surgery_sim, backends::hybrid_mixed};
    grid.distances = {33, 66, 99};
    grid.base.seed = engine::mixSeed(opts.seed, 1);
    std::vector<uint64_t> depth;
    std::vector<size_t> program_apps; // Each program's first app point.
    for (const DeepProgram &dp : kPrograms) {
        circuit::Circuit logical;
        {
            ScopedSpan span(&log, "apps.generate");
            logical = apps::generate(dp.kind, dp.gen);
        }
        std::string text = exactQasm(logical);
        qasm::Program program;
        {
            ScopedSpan span(&log, "qasm.parse");
            program = qasm::parse(text);
        }
        auto flat = std::make_shared<circuit::Circuit>();
        {
            ScopedSpan span(&log, "qasm.flatten");
            *flat = qasm::flatten(program);
        }
        // QASM text carries no circuit name: compare content only.
        circuit::Circuit unnamed = logical;
        unnamed.setName("");
        std::string why = checkFingerprint(circuit::fingerprint(unnamed),
                                           circuit::fingerprint(*flat));
        if (!why.empty())
            result.fail(apps::appSpec(dp.kind).name + ": " + why);
        std::shared_ptr<const service::CachedProgram> prepared;
        {
            ScopedSpan span(&log, "circuit.decompose");
            prepared = service::cachedProgram(cache, *flat);
        }
        layers.add("circuit.gates", prepared->circ.size());
        // The driver seeds each app point apart: one layout each.
        const uint64_t program_depth = dependenceDepth(prepared->circ);
        program_apps.push_back(grid.apps.size());
        for (int l = 0; l < dp.layouts; ++l) {
            depth.push_back(program_depth);
            grid.apps.emplace_back(
                std::shared_ptr<const circuit::Circuit>(flat),
                apps::appSpec(dp.kind).name);
        }
    }
    // Every machine artifact, keyed exactly as the driver keys the
    // grid's work items.
    for (const engine::SweepPoint &p :
         engine::expandSweepPoints(grid, registry)) {
        std::shared_ptr<const service::CachedProgram> prepared =
            service::cachedProgram(cache, *grid.apps[p.app_index].circuit);
        engine::WorkItem item;
        item.app_name = p.app_name;
        item.circuit = &prepared->circ;
        item.circuit_fingerprint = prepared->fingerprint;
        item.config = grid.base;
        item.config.policy = p.policy;
        item.config.hybrid_arbiter = p.arbiter;
        item.config.layout_objective = p.layout_objective;
        item.config.code_distance = p.distance;
        item.config.seed = engine::mixSeed(grid.base.seed, p.app_index);
        service::fetchArtifact(cache, registry.get(p.backend), item);
    }
    const double setup_s = msSince(opts.start) / 1e3;
    const uint64_t setup_misses = cache.stats().misses;

    // Timed rounds against the warm cache.
    engine::SweepDriver driver(registry);
    OpTimings timings;
    SweepCounters counters;
    HostSpeed host(kMemoryPasses);
    std::vector<engine::SweepPoint> first;
    std::string first_rows;
    Clock::time_point timed_start = Clock::now();
    size_t rounds = 0;
    while (rounds == 0 || msSince(timed_start) < opts.seconds * 1e3) {
        Clock::time_point round_start = Clock::now();
        std::vector<engine::SweepPoint> points =
            driver.run(grid, sweepOptions(&cache));
        timings.round_s.push_back(msSince(round_start) / 1e3);
        for (const engine::SweepPoint &p : points) {
            timings.op_ms.push_back(p.prepare_ms + p.wall_ms);
            counters.add(p);
        }
        std::string rows = engine::canonicalSweepRows(points);
        if (rounds == 0) {
            first = std::move(points);
            first_rows = std::move(rows);
        } else if (rows != first_rows) {
            result.fail("round " + std::to_string(rounds)
                        + " differs from round 0");
        }
        ++rounds;
        host.sampleEvery(kHostSampleEveryS);
    }
    timings.host_scale = host.scale();
    // Every round runs the same points on the same machines: a
    // point's latency is its median over rounds.
    timings.ops_per_round = first.size();
    result.attempted = static_cast<uint64_t>(counters.points);
    const double peak_rss = peakRssMb();
    if (cache.stats().misses != setup_misses)
        result.fail("timed rounds missed the warm prepare cache "
                    + std::to_string(cache.stats().misses - setup_misses)
                    + " times");

    // Every point: schedule >= critical path >= dependence depth.
    for (const engine::SweepPoint &p : first) {
        std::string why = checkCycleBounds(p.metrics, depth[p.app_index]);
        if (!why.empty())
            result.fail(p.app_name + "/" + p.backend + " d="
                        + std::to_string(p.distance) + ": " + why);
    }

    // A seeded sample, stepped against the warm artifacts and inline.
    checkSample(grid, first,
                samplePoints(first.size(), 2, engine::mixSeed(opts.seed, 2)),
                cache, "", result);

    if (!opts.trace) {
        addEndToEnd(result, setup_s, timings, kTailPct, peak_rss);
        return result;
    }

    for (size_t a : program_apps)
        probeFrontendLayers(log, *grid.apps[a].circuit);
    const double r = static_cast<double>(rounds);
    counters.store(layers, r);
    storeSpanLayers(layers, log, r, 1);
    layers.set("trace.wall_s", median(timings.round_s) * host.scale());
    layers.set("host.kernel_ms", median(host.samplesMs()));
    layers.emit(result);
    log.write(opts.out_dir + "/trace-deep-serial-s"
              + std::to_string(opts.seed) + ".json");
    return result;
}

} // namespace qbench
