#include "host/trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/log.h"
#include "common/strutil.h"

namespace hmcsim {

Trace
parseTraceText(const std::string &content)
{
    Trace out;
    std::istringstream iss(content);
    std::string line;
    int lineno = 0;
    while (std::getline(iss, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const std::vector<std::string> tok = splitWhitespace(line);
        if (tok.empty())
            continue;
        if (tok.size() < 3 || tok.size() > 4)
            fatal("trace: malformed record at line " +
                  std::to_string(lineno));
        TraceRecord r;
        if (tok[0] == "R" || tok[0] == "r") {
            r.isWrite = false;
        } else if (tok[0] == "W" || tok[0] == "w") {
            r.isWrite = true;
        } else {
            fatal("trace: unknown op '" + tok[0] + "' at line " +
                  std::to_string(lineno));
        }
        std::uint64_t v = 0;
        if (!parseU64("0x" + tok[1], v) && !parseU64(tok[1], v))
            fatal("trace: bad address at line " + std::to_string(lineno));
        r.addr = v;
        if (!parseU64(tok[2], v))
            fatal("trace: bad size at line " + std::to_string(lineno));
        r.bytes = static_cast<std::uint32_t>(v);
        if (tok.size() == 4) {
            if (!parseU64(tok[3], v))
                fatal("trace: bad delay at line " + std::to_string(lineno));
            r.delayNs = static_cast<std::uint32_t>(v);
        }
        out.push_back(r);
    }
    return out;
}

std::string
traceToText(const Trace &trace)
{
    std::ostringstream oss;
    oss << "# hmcsim trace: op hex-addr bytes [delay-ns]\n";
    for (const TraceRecord &r : trace) {
        oss << (r.isWrite ? 'W' : 'R') << ' ' << std::hex << r.addr
            << std::dec << ' ' << r.bytes;
        if (r.delayNs)
            oss << ' ' << r.delayNs;
        oss << '\n';
    }
    return oss.str();
}

namespace {

constexpr char kMagic[4] = {'H', 'M', 'C', 'T'};

}  // namespace

void
saveTraceBinary(const std::string &path, const Trace &trace)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("trace: cannot open '" + path + "' for writing");
    out.write(kMagic, 4);
    const std::uint64_t n = trace.size();
    out.write(reinterpret_cast<const char *>(&n), sizeof(n));
    for (const TraceRecord &r : trace) {
        out.write(reinterpret_cast<const char *>(&r.addr), sizeof(r.addr));
        out.write(reinterpret_cast<const char *>(&r.bytes),
                  sizeof(r.bytes));
        const std::uint32_t w = r.isWrite ? 1 : 0;
        out.write(reinterpret_cast<const char *>(&w), sizeof(w));
        out.write(reinterpret_cast<const char *>(&r.delayNs),
                  sizeof(r.delayNs));
    }
    if (!out)
        fatal("trace: write to '" + path + "' failed");
}

void
saveTraceText(const std::string &path, const Trace &trace)
{
    std::ofstream out(path);
    if (!out)
        fatal("trace: cannot open '" + path + "' for writing");
    out << traceToText(trace);
    if (!out)
        fatal("trace: write to '" + path + "' failed");
}

Trace
loadTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("trace: cannot open '" + path + "'");
    char magic[4] = {};
    in.read(magic, 4);
    if (in.gcount() == 4 && std::memcmp(magic, kMagic, 4) == 0) {
        std::uint64_t n = 0;
        in.read(reinterpret_cast<char *>(&n), sizeof(n));
        Trace out;
        out.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            TraceRecord r;
            std::uint32_t w = 0;
            in.read(reinterpret_cast<char *>(&r.addr), sizeof(r.addr));
            in.read(reinterpret_cast<char *>(&r.bytes), sizeof(r.bytes));
            in.read(reinterpret_cast<char *>(&w), sizeof(w));
            in.read(reinterpret_cast<char *>(&r.delayNs),
                    sizeof(r.delayNs));
            if (!in)
                fatal("trace: truncated binary trace '" + path + "'");
            r.isWrite = w != 0;
            out.push_back(r);
        }
        return out;
    }
    // Text: re-read from the start.
    in.clear();
    in.seekg(0);
    std::ostringstream oss;
    oss << in.rdbuf();
    return parseTraceText(oss.str());
}

Trace
makeStreamTrace(Addr base, std::size_t count, std::uint32_t bytes,
                std::uint32_t stride, bool writes)
{
    Trace out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        TraceRecord r;
        r.addr = base + static_cast<Addr>(i) * stride;
        r.bytes = bytes;
        r.isWrite = writes;
        out.push_back(r);
    }
    return out;
}

Trace
makeRandomTrace(Rng &rng, const AddressPattern &pattern,
                std::size_t count, std::uint32_t bytes,
                double write_fraction)
{
    Trace out;
    out.reserve(count);
    const Addr align = ~static_cast<Addr>(bytes - 1);
    for (std::size_t i = 0; i < count; ++i) {
        TraceRecord r;
        r.addr = pattern.apply(rng.next()) & align;
        r.bytes = bytes;
        r.isWrite = write_fraction > 0.0 && rng.nextBool(write_fraction);
        out.push_back(r);
    }
    return out;
}

Trace
makePointerChaseTrace(Rng &rng, Addr base, std::uint64_t span,
                      std::size_t count, std::uint32_t bytes)
{
    if (span < bytes)
        fatal("pointer chase: span smaller than one block");
    const std::uint64_t slots = span / bytes;
    // A proper pointer chase is a random cyclic permutation: every
    // slot is visited exactly once per lap, so there are no short
    // cycles.  Cap the in-memory permutation; beyond the cap, hop
    // within a window of that size (timing-equivalent).
    const std::uint64_t perm_size =
        std::min<std::uint64_t>(slots, 1u << 22);
    std::vector<std::uint32_t> perm(perm_size);
    for (std::uint64_t i = 0; i < perm_size; ++i)
        perm[i] = static_cast<std::uint32_t>(i);
    for (std::uint64_t i = perm_size - 1; i > 0; --i) {
        const std::uint64_t j = rng.nextBelow(i + 1);
        std::swap(perm[i], perm[j]);
    }
    Trace out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        TraceRecord r;
        r.addr = base + static_cast<Addr>(perm[i % perm_size]) * bytes;
        r.bytes = bytes;
        out.push_back(r);
    }
    return out;
}

}  // namespace hmcsim
