/**
 * @file
 * The benchmark's own test: every correctness check passes a right
 * output and reports failure on a deliberately perturbed one.
 *
 *   .bench_build/qbench_selftest      (python3 qbench/run.py --selftest)
 *
 * Exits 0 when every case behaves, 1 otherwise.
 */

#include <iostream>
#include <sstream>
#include <string>

#include "apps/apps.h"
#include "checks.h"
#include "circuit/decompose.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "engine/sweep.h"
#include "hostspeed.h"
#include "obs/trace.h"
#include "qasm/flatten.h"
#include "qasm/parser.h"
#include "stats.h"

namespace {

using namespace qsurf;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    failures += !ok;
}

void
passes(const std::string &verdict, const std::string &what)
{
    expect(verdict.empty(), what + " passes" + (verdict.empty() ? "" : ": " + verdict));
}

void
rejects(const std::string &verdict, const std::string &what)
{
    expect(!verdict.empty(), what + " is rejected");
}

engine::Metrics
smallRun(double defect_density)
{
    static const circuit::Circuit prog = circuit::decompose(
        apps::generate(apps::AppKind::SQ, {6, 1}));
    engine::WorkItem item;
    item.circuit = &prog;
    item.config.code_distance = 3;
    item.config.defect_density = defect_density;
    item.config.defect_seed = 7;
    return engine::Registry::global()
        .get(engine::backends::double_defect)
        .run(item);
}

void
depthAndBounds()
{
    circuit::Circuit c(3);
    c.addGate(circuit::GateKind::H, 0);
    c.addGate(circuit::GateKind::CNOT, 0, 1);
    c.addGate(circuit::GateKind::H, 1);
    c.addGate(circuit::GateKind::H, 2);
    expect(qbench::dependenceDepth(c) == 3, "dependence depth of a "
                                            "three-generation circuit is 3");

    engine::Metrics m;
    m.schedule_cycles = 10;
    m.critical_path_cycles = 8;
    passes(qbench::checkCycleBounds(m, 5), "cycle bounds 10 >= 8 >= 5");
    engine::Metrics short_schedule = m;
    short_schedule.schedule_cycles = 7;
    rejects(qbench::checkCycleBounds(short_schedule, 5),
            "schedule shorter than its critical path");
    rejects(qbench::checkCycleBounds(m, 9),
            "critical path shorter than the dependence depth");

    engine::Metrics real = smallRun(0);
    circuit::Circuit prog = circuit::decompose(
        apps::generate(apps::AppKind::SQ, {6, 1}));
    passes(qbench::checkCycleBounds(real, qbench::dependenceDepth(prog)),
           "cycle bounds of a real double-defect run");
}

void
metricsIdentity()
{
    engine::Metrics want = smallRun(0);
    passes(qbench::compareMetrics(want, smallRun(0), false),
           "a rerun's metrics");
    engine::Metrics got = want;
    got.schedule_cycles += 1;
    rejects(qbench::compareMetrics(want, got, false),
            "schedule_cycles off by one");
    got = want;
    got.physical_qubits *= 1.0000001;
    rejects(qbench::compareMetrics(want, got, false),
            "physical_qubits perturbed");
    got = want;
    got.extras.back().second += 1;
    rejects(qbench::compareMetrics(want, got, false),
            "last extra counter perturbed");
    got = want;
    got.extras.pop_back();
    rejects(qbench::compareMetrics(want, got, false),
            "an extra counter missing");
    got = want;
    for (auto &[name, v] : got.extras)
        if (name.rfind("ff_", 0) == 0)
            v += 1;
    passes(qbench::compareMetrics(want, got, true),
           "ff_* bookkeeping ignored in stepped comparison");
    rejects(qbench::compareMetrics(want, got, false),
            "ff_* bookkeeping perturbed in exact comparison");
    rejects(qbench::compareMetrics(want, smallRun(0.1), false),
            "a damaged-fabric result for a perfect-fabric request");
}

void
fingerprints()
{
    const std::string text =
        "qbit q[2];\nH q[0];\nCNOT q[0], q[1];\nRz(0.1234567890123) q[1];\n";
    circuit::Circuit a = qasm::flatten(qasm::parse(text));
    circuit::Circuit want(2);
    want.addGate(circuit::GateKind::H, 0);
    want.addGate(circuit::GateKind::CNOT, 0, 1);
    want.addRz(0.1234567890123, 1);
    passes(qbench::checkFingerprint(circuit::fingerprint(want),
                                    circuit::fingerprint(a)),
           "exact QASM round trip");
    circuit::Circuit b = qasm::flatten(qasm::parse(
        "qbit q[2];\nH q[0];\nCNOT q[0], q[1];\nRz(0.123457) q[1];\n"));
    rejects(qbench::checkFingerprint(circuit::fingerprint(want),
                                     circuit::fingerprint(b)),
            "an Rz angle rounded to six digits");
}

void
heatmaps()
{
    engine::SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""}};
    grid.backends = {engine::backends::double_defect,
                     engine::backends::surgery_sim};
    grid.distances = {3};
    grid.defects = {0.1};
    grid.base.defect_seed = 7;
    obs::TraceSession session;
    engine::SweepOptions so;
    so.num_threads = 1;
    so.use_cache = false;
    so.stream_rows = false;
    so.trace = &session;
    engine::SweepDriver().run(grid, so);
    std::ostringstream os;
    session.writeHeatmap(os);
    passes(qbench::checkHeatmapDefects(os.str()),
           "heatmap of real damaged-fabric runs");

    auto doc = [](const std::string &nodes, const std::string &links,
                  const std::string &busy) {
        return "{\"runs\":[{\"run\":0,\"defective_nodes\":[" + nodes
            + "],\"defective_links\":[" + links + "],\"links\":[" + busy
            + "]}]}";
    };
    const std::string link = "{\"x\":1,\"y\":1,\"dir\":0}";
    passes(qbench::checkHeatmapDefects(doc(
               "", link, "{\"x\":1,\"y\":1,\"dir\":1,\"busy\":[4]}")),
           "traffic beside a defective link");
    rejects(qbench::checkHeatmapDefects(doc(
                "", link, "{\"x\":1,\"y\":1,\"dir\":0,\"busy\":[0,4]}")),
            "busy cycles on a defective link");
    rejects(qbench::checkHeatmapDefects(
                doc("{\"x\":2,\"y\":2}", "",
                    "{\"x\":1,\"y\":2,\"dir\":0,\"busy\":[1]}")),
            "busy cycles on a link into a defective router");
    rejects(qbench::checkHeatmapDefects(
                doc("", "", "{\"x\":1,\"y\":2,\"dir\":0,\"busy\":[1]}")),
            "a heatmap with no defect at all");
}

void
requestCounts()
{
    passes(qbench::checkRequestCount("{\"requests\":42}", 42),
           "request count 42 of 42");
    rejects(qbench::checkRequestCount("{\"requests\":41}", 42),
            "request count 41 of 42");
    rejects(qbench::checkRequestCount("{\"batches\":42}", 42),
            "telemetry without a request count");
}

void
orderStatistics()
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    expect(qbench::median(v) == 500.5, "median of 1..1000 is 500.5");
    expect(qbench::percentile(v, 99) == 990,
           "nearest-rank p99 of 1..1000 is 990");
    expect(qbench::samplesBeyond(v.size(), 99) == 10,
           "ten samples lie beyond p99 of 1000");
}

void
hostSpeedScaling()
{
    qbench::HostSpeed host;
    expect(host.scale() == 1, "no host-speed sample scales by 1");
    for (int i = 0; i < 3; ++i)
        host.sample();
    const std::vector<double> &ms = host.samplesMs();
    expect(ms.size() == 3 && ms[0] > 0 && ms[1] > 0 && ms[2] > 0,
           "three host-speed samples take time");
    expect(host.scale()
               == host.nominalMs() / qbench::median(ms),
           "the host scale is nominal over median kernel time");

    // Times scale with the host; memory does not.
    qbench::OpTimings t;
    t.round_s = {2, 4, 6};
    t.op_ms = {1, 3, 5};
    t.host_scale = 0.5;
    qbench::RunResult r;
    qbench::addEndToEnd(r, 7, t, 50, 9);
    auto value = [&](const std::string &name) {
        for (const qbench::Metric &m : r.metrics)
            if (m.name == name)
                return m.value;
        return -1.0;
    };
    expect(value("setup_s") == 3.5 && value("wall_s") == 2
               && value("op_p50_ms") == 1.5 && value("op_tail_ms") == 1.5,
           "every time is scaled to the reference host");
    expect(value("peak_rss_mb") == 9, "peak_rss_mb is reported as measured");
}

void
perOpLatencies()
{
    // Two ops over three rounds; one jittery round of op 1.
    const std::vector<double> op_ms = {1, 10, 2, 90, 3, 11};
    const std::vector<double> per_op = qbench::perOpMedians(op_ms, 2);
    expect(per_op == std::vector<double>({2, 11}),
           "an op's latency is its median over rounds");
    qbench::OpTimings t;
    t.op_ms = op_ms;
    t.round_s = {1};
    t.ops_per_round = 2;
    qbench::RunResult r;
    qbench::addEndToEnd(r, 1, t, 100, 1);
    expect(r.metrics[3].name == "op_tail_ms" && r.metrics[3].value == 11,
           "one jittery round does not move the tail of per-op medians");
    expect(qbench::perOpMedians({1, 2, 3}, 2).size() == 2,
           "a partial round is left out of per-op medians");
}

} // namespace

int
main()
{
    setQuiet(true);
    depthAndBounds();
    metricsIdentity();
    fingerprints();
    heatmaps();
    requestCounts();
    orderStatistics();
    hostSpeedScaling();
    perOpLatencies();
    std::cout << (failures ? "selftest FAILED: " : "selftest passed: ")
              << failures << " failing case(s)\n";
    return failures ? 1 : 0;
}
