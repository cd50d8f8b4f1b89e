/**
 * @file
 * Layer tracing from outside the program: spans recorded around the
 * benchmark's calls into each module's public functions, kept in
 * memory and written out when the run ends.
 *
 * A span records its name, start, end, parent span and op id.  The
 * untraced run never records one (every call site checks enabled()
 * first), so end-to-end numbers come from code paths without it.
 * Backend calls the sweep driver and the prepare cache make on the
 * benchmark's behalf are reached through TracingBackend, a decorator
 * registered in a private registry in place of each built-in
 * backend.
 */

#ifndef QBENCH_SPANS_H
#define QBENCH_SPANS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/backend.h"
#include "engine/registry.h"
#include "stats.h"

namespace qbench {

/** One recorded span. */
struct Span
{
    std::string name;
    int64_t start_ns = 0; ///< Since the log's epoch.
    int64_t end_ns = 0;
    int32_t parent = -1;  ///< Index of the enclosing span, or -1.
    int64_t op = -1;      ///< Op id of the enclosing op, or -1.
};

/** Thread-safe in-memory span log. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span on the calling thread; @return its index. */
    int32_t begin(const std::string &name);

    /** Close span @p id (the calling thread's innermost). */
    void end(int32_t id);

    /** Set the calling thread's current op id (-1 = none). */
    static void setOp(int64_t op);

    /** @return the calling thread's current op id. */
    static int64_t currentOp();

    /** @return a fresh op id, unique within this log. */
    int64_t nextOp() { return next_op_.fetch_add(1); }

    /** @return total milliseconds of spans named @p name. */
    double totalMs(const std::string &name) const;

    /** @return the number of spans named @p name. */
    size_t count(const std::string &name) const;

    /** Write every span as JSON to @p path. */
    void write(const std::string &path) const;

  private:
    bool enabled_;
    std::atomic<int64_t> next_op_{0};
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op when @p log is null or disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name)
        : log_(log && log->enabled() ? log : nullptr),
          id_(log_ ? log_->begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    int32_t id_;
};

/**
 * @return the layer (module) name of built-in backend @p backend:
 * "braid", "planar", "surgery", "hybrid" or "estimate".
 */
std::string layerOf(const std::string &backend);

/** @return true for the cycle-level simulated backends. */
bool isSimulated(const std::string &backend);

/**
 * @return a registry holding every built-in backend of
 * engine::Registry::global() wrapped so buildArtifact() and run()
 * record "<layer>.build" and "<layer>.run" spans into @p log.
 * The wrappers forward every other call unchanged, so results and
 * artifact keys are those of the wrapped backends.  Called with no
 * op current on the thread (a sweep point), a build and the run
 * after it share a fresh op id.
 */
std::unique_ptr<qsurf::engine::Registry> tracedRegistry(SpanLog &log);

} // namespace qbench

#endif // QBENCH_SPANS_H
