#include "spans.h"

#include <fstream>

#include "common/json.h"
#include "common/logging.h"

namespace qbench {

namespace {

thread_local std::vector<int32_t> t_stack;
thread_local int64_t t_op = -1;

} // namespace

int32_t
SpanLog::begin(const std::string &name)
{
    Span s;
    s.name = name;
    s.parent = t_stack.empty() ? -1 : t_stack.back();
    s.op = t_op;
    int32_t id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = static_cast<int32_t>(spans_.size());
        s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - epoch_)
                         .count();
        spans_.push_back(std::move(s));
    }
    t_stack.push_back(id);
    return id;
}

void
SpanLog::end(int32_t id)
{
    int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
    if (!t_stack.empty() && t_stack.back() == id)
        t_stack.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end_ns = now;
}

void
SpanLog::setOp(int64_t op)
{
    t_op = op;
}

int64_t
SpanLog::currentOp()
{
    return t_op;
}

double
SpanLog::totalMs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t ns = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            ns += s.end_ns - s.start_ns;
    return static_cast<double>(ns) / 1e6;
}

size_t
SpanLog::count(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const Span &s : spans_)
        n += s.name == name;
    return n;
}

void
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path);
    qsurf::fatalIf(!os, "cannot write the span log '", path, "'");
    qsurf::JsonWriter j(os, /*compact=*/true);
    std::lock_guard<std::mutex> lock(mutex_);
    j.beginObject();
    j.key("spans");
    j.beginArray();
    for (const Span &s : spans_) {
        j.beginObject();
        j.field("name", s.name);
        j.field("start_ns", s.start_ns);
        j.field("end_ns", s.end_ns);
        j.field("parent", s.parent);
        j.field("op", s.op);
        j.endObject();
    }
    j.endArray();
    j.endObject();
    os << "\n";
}

std::string
layerOf(const std::string &backend)
{
    namespace b = qsurf::engine::backends;
    if (backend == b::double_defect)
        return "braid";
    if (backend == b::planar)
        return "planar";
    if (backend == b::surgery_sim)
        return "surgery";
    if (backend == b::hybrid_mixed)
        return "hybrid";
    return "estimate";
}

bool
isSimulated(const std::string &backend)
{
    return layerOf(backend) != "estimate";
}

namespace {

using qsurf::engine::Backend;
using qsurf::engine::Metrics;
using qsurf::engine::PreparedArtifact;
using qsurf::engine::WorkItem;

thread_local bool t_auto_op = false;

/**
 * Op id of a sweep point: the first backend call with no op current
 * opens one, the point's run() (@p last) closes it.
 */
class OpScope
{
  public:
    OpScope(SpanLog &log, bool last) : last_(last)
    {
        if (SpanLog::currentOp() < 0) {
            SpanLog::setOp(log.nextOp());
            t_auto_op = true;
        }
    }
    ~OpScope()
    {
        if (last_ && t_auto_op) {
            SpanLog::setOp(-1);
            t_auto_op = false;
        }
    }
    OpScope(const OpScope &) = delete;
    OpScope &operator=(const OpScope &) = delete;

  private:
    bool last_;
};

/** Forwarding decorator timing the two calls that do the work. */
class TracingBackend final : public Backend
{
  public:
    TracingBackend(const Backend &inner, SpanLog &log)
        : inner_(inner), log_(log),
          build_span_(layerOf(inner.name()) + ".build"),
          run_span_(layerOf(inner.name()) + ".run")
    {
    }

    std::string name() const override { return inner_.name(); }
    qsurf::qec::CodeKind code() const override { return inner_.code(); }
    bool needsCircuit() const override { return inner_.needsCircuit(); }
    void prepare(const WorkItem &item) const override
    {
        inner_.prepare(item);
    }

    Metrics
    run(const WorkItem &item) const override
    {
        OpScope op(log_, /*last=*/true);
        ScopedSpan span(&log_, run_span_);
        return inner_.run(item);
    }

    std::string
    artifactKey(const WorkItem &item) const override
    {
        return inner_.artifactKey(item);
    }

    std::shared_ptr<const PreparedArtifact>
    buildArtifact(const WorkItem &item) const override
    {
        OpScope op(log_, /*last=*/false);
        ScopedSpan span(&log_, build_span_);
        return inner_.buildArtifact(item);
    }

    Metrics
    run(const WorkItem &item,
        const PreparedArtifact *artifact) const override
    {
        OpScope op(log_, /*last=*/true);
        ScopedSpan span(&log_, run_span_);
        return inner_.run(item, artifact);
    }

  private:
    const Backend &inner_;
    SpanLog &log_;
    std::string build_span_;
    std::string run_span_;
};

} // namespace

std::unique_ptr<qsurf::engine::Registry>
tracedRegistry(SpanLog &log)
{
    const qsurf::engine::Registry &global =
        qsurf::engine::Registry::global();
    auto registry = std::make_unique<qsurf::engine::Registry>();
    for (const std::string &name : global.names())
        registry->add(
            std::make_unique<TracingBackend>(global.get(name), log));
    return registry;
}

} // namespace qbench
