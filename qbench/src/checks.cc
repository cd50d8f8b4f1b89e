#include "checks.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/json.h"

namespace qbench {

using qsurf::JsonValue;

uint64_t
dependenceDepth(const qsurf::circuit::Circuit &circ)
{
    std::vector<uint64_t> level(static_cast<size_t>(circ.numQubits()),
                                0);
    uint64_t depth = 0;
    for (const qsurf::circuit::Gate &g : circ) {
        uint64_t gen = 0;
        for (int32_t q : g.operands())
            gen = std::max(gen, level[static_cast<size_t>(q)]);
        ++gen;
        for (int32_t q : g.operands())
            level[static_cast<size_t>(q)] = gen;
        depth = std::max(depth, gen);
    }
    return depth;
}

std::string
checkCycleBounds(const qsurf::engine::Metrics &m, uint64_t depth)
{
    std::ostringstream os;
    if (m.schedule_cycles < m.critical_path_cycles)
        os << "schedule_cycles " << m.schedule_cycles
           << " < critical_path_cycles " << m.critical_path_cycles;
    else if (m.critical_path_cycles < depth)
        os << "critical_path_cycles " << m.critical_path_cycles
           << " < dependence depth " << depth;
    return os.str();
}

namespace {

template <typename T>
void
field(std::ostringstream &os, const char *name, const T &want,
      const T &got)
{
    if (os.tellp() == 0 && !(want == got))
        os << name << ": want " << want << ", got " << got;
}

bool
isFf(const std::string &name)
{
    return name.rfind("ff_", 0) == 0;
}

} // namespace

std::string
compareMetrics(const qsurf::engine::Metrics &want,
               const qsurf::engine::Metrics &got, bool ignore_ff)
{
    std::ostringstream os;
    os.precision(17);
    field(os, "backend", want.backend, got.backend);
    field(os, "code", static_cast<int>(want.code),
          static_cast<int>(got.code));
    field(os, "code_distance", want.code_distance, got.code_distance);
    field(os, "schedule_cycles", want.schedule_cycles,
          got.schedule_cycles);
    field(os, "critical_path_cycles", want.critical_path_cycles,
          got.critical_path_cycles);
    field(os, "physical_qubits", want.physical_qubits,
          got.physical_qubits);
    field(os, "seconds", want.seconds, got.seconds);
    if (os.tellp() != 0)
        return os.str();
    auto kept = [&](const qsurf::engine::Metrics &m) {
        std::vector<std::pair<std::string, double>> v;
        for (const auto &e : m.extras)
            if (!(ignore_ff && isFf(e.first)))
                v.push_back(e);
        return v;
    };
    auto a = kept(want);
    auto b = kept(got);
    if (a.size() != b.size())
        return "extras: want " + std::to_string(a.size())
            + " counters, got " + std::to_string(b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        field(os, "extra name", a[i].first, b[i].first);
        field(os, a[i].first.c_str(), a[i].second, b[i].second);
        if (os.tellp() != 0)
            return os.str();
    }
    return {};
}

std::string
checkFingerprint(uint64_t generated, uint64_t flattened)
{
    if (generated == flattened)
        return {};
    std::ostringstream os;
    os << "QASM round trip changed the program: fingerprint "
       << std::hex << generated << " became " << flattened;
    return os.str();
}

namespace {

int64_t
intField(const JsonValue &v, const char *key)
{
    const JsonValue *f = v.find(key);
    return f && f->isNumber() ? static_cast<int64_t>(f->num) : -1;
}

} // namespace

std::string
checkHeatmapDefects(const std::string &heatmap_json)
{
    JsonValue doc = qsurf::parseJson(heatmap_json);
    const JsonValue *runs = doc.find("runs");
    if (!runs || !runs->isArray())
        return "heatmap: no runs array";
    size_t damaged_runs = 0;
    for (const JsonValue &run : runs->items) {
        // (x, y, dir) of every link that must stay idle.
        std::set<std::tuple<int64_t, int64_t, int64_t>> dead;
        if (const JsonValue *links = run.find("defective_links"))
            for (const JsonValue &l : links->items)
                dead.insert({intField(l, "x"), intField(l, "y"),
                             intField(l, "dir")});
        if (const JsonValue *nodes = run.find("defective_nodes"))
            for (const JsonValue &n : nodes->items) {
                int64_t x = intField(n, "x"), y = intField(n, "y");
                dead.insert({x, y, 0});
                dead.insert({x, y, 1});
                dead.insert({x - 1, y, 0});
                dead.insert({x, y - 1, 1});
            }
        if (dead.empty())
            continue;
        ++damaged_runs;
        const JsonValue *busy = run.find("links");
        if (!busy)
            continue;
        for (const JsonValue &l : busy->items) {
            std::tuple<int64_t, int64_t, int64_t> id{
                intField(l, "x"), intField(l, "y"), intField(l, "dir")};
            if (!dead.count(id))
                continue;
            double total = 0;
            if (const JsonValue *b = l.find("busy"))
                for (const JsonValue &c : b->items)
                    total += c.num;
            if (total > 0) {
                std::ostringstream os;
                os << "heatmap run " << intField(run, "run")
                   << ": defective link (" << std::get<0>(id) << ","
                   << std::get<1>(id) << "," << std::get<2>(id)
                   << ") busy for " << total << " cycles";
                return os.str();
            }
        }
    }
    if (damaged_runs == 0)
        return "heatmap: no run shows a defective fabric";
    return {};
}

std::string
checkRequestCount(const std::string &telemetry_json, uint64_t sent)
{
    JsonValue doc = qsurf::parseJson(telemetry_json);
    const JsonValue *requests = doc.find("requests");
    if (!requests || !requests->isNumber())
        return "telemetry: no request count";
    auto counted = static_cast<uint64_t>(requests->num);
    if (counted == sent)
        return {};
    return "telemetry: server counted " + std::to_string(counted)
        + " requests, client sent " + std::to_string(sent);
}

} // namespace qbench
