/**
 * @file
 * In-memory span recorder for the traced benchmark run.  Spans are
 * opened and closed around calls into the simulator's layers, kept in
 * a vector, and written out once the run ends: a Chrome-trace JSON
 * (load it in chrome://tracing or Perfetto) and a self-time table.
 *
 * A span's self time is its duration minus the part of that interval
 * covered by its child spans.
 */

#ifndef HMCBENCH_SPANS_H_
#define HMCBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace hmcbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady_clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span; -1 for a root. */
    int parent = -1;
    /** Counter deltas and other numbers read at the span's boundaries. */
    std::vector<std::pair<std::string, double>> args;
};

class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span under the innermost open one; returns its index. */
    int begin(std::string name);

    /** Close span @p id (must be the innermost open span). */
    void end(int id);

    void arg(int id, std::string key, double value);

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    void writeChromeTrace(std::ostream &os) const;

    /** Per-name count, total and self time; sorted by self time. */
    void writeSelfTimeTable(std::ostream &os) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;

    std::int64_t nowNs() const;
};

/**
 * RAII span; a null recorder makes it a no-op, so the untraced run
 * executes the same code with no recording.
 */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, const char *name)
        : rec_(rec), id_(rec ? rec->begin(name) : -1)
    {
    }
    ~SpanScope()
    {
        if (rec_)
            rec_->end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    void
    arg(const std::string &key, double value)
    {
        if (rec_)
            rec_->arg(id_, key, value);
    }

  private:
    SpanRecorder *rec_;
    int id_;
};

}  // namespace hmcbench

#endif  // HMCBENCH_SPANS_H_
