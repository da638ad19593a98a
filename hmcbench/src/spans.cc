#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>

namespace hmcbench {

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
SpanRecorder::begin(std::string name)
{
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span closed out of order: " +
                               spans_.at(static_cast<std::size_t>(id)).name);
    open_.pop_back();
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
}

void
SpanRecorder::arg(int id, std::string key, double value)
{
    spans_.at(static_cast<std::size_t>(id))
        .args.emplace_back(std::move(key), value);
}

namespace {

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

void
SpanRecorder::writeChromeTrace(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"" << s.name.substr(0, s.name.find('.'))
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << jsonNumber(static_cast<double>(s.startNs) / 1e3)
           << ",\"dur\":"
           << jsonNumber(static_cast<double>(s.endNs - s.startNs) / 1e3)
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent;
        for (const auto &[k, v] : s.args)
            os << ",\"" << k << "\":" << jsonNumber(v);
        os << "}}";
    }
    os << "\n]}\n";
}

void
SpanRecorder::writeSelfTimeTable(std::ostream &os) const
{
    // Children are closed before their parent, and siblings do not
    // overlap, so a child's whole duration lies inside its parent.
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;

    struct Row {
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
    };
    std::map<std::string, Row> rows;
    std::int64_t root_ns = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        Row &r = rows[s.name];
        ++r.count;
        r.totalNs += s.endNs - s.startNs;
        r.selfNs += s.endNs - s.startNs - child_ns[i];
        if (s.parent < 0)
            root_ns += s.endNs - s.startNs;
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(),
                                                    rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto &a, const auto &b) {
        return a.second.selfNs > b.second.selfNs;
    });
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-28s %8s %12s %12s %8s\n", "span",
                  "count", "total_ms", "self_ms", "self_%");
    os << buf;
    for (const auto &[name, r] : sorted) {
        std::snprintf(buf, sizeof buf, "%-28s %8llu %12.3f %12.3f %8.2f\n",
                      name.c_str(),
                      static_cast<unsigned long long>(r.count),
                      static_cast<double>(r.totalNs) / 1e6,
                      static_cast<double>(r.selfNs) / 1e6,
                      root_ns > 0 ? 100.0 * static_cast<double>(r.selfNs) /
                                        static_cast<double>(root_ns)
                                  : 0.0);
        os << buf;
    }
}

}  // namespace hmcbench
