/**
 * @file
 * Memory trace format for the multi-port stream implementation, plus
 * synthetic trace generators for the example workloads.
 *
 * Text format, one record per line:
 *   R <hex-addr> <bytes> [<delay-ns>]
 *   W <hex-addr> <bytes> [<delay-ns>]
 * '#' starts a comment.  A compact binary format (20 B/record,
 * little-endian) is provided for large traces.
 */

#ifndef HMCSIM_HOST_TRACE_H_
#define HMCSIM_HOST_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "hmc/address_map.h"

namespace hmcsim {

struct TraceRecord {
    Addr addr = 0;
    std::uint32_t bytes = 32;
    bool isWrite = false;
    /** Minimum gap (ns) after the previous record's issue. */
    std::uint32_t delayNs = 0;
};

using Trace = std::vector<TraceRecord>;

/** Parse a text trace; raises fatal() on malformed lines. */
Trace parseTraceText(const std::string &content);

/** Render a trace to the text format. */
std::string traceToText(const Trace &trace);

/** Load a trace file, auto-detecting binary vs text by magic. */
Trace loadTraceFile(const std::string &path);

/** Save in text form. */
void saveTraceText(const std::string &path, const Trace &trace);

/** Save in binary form (magic "HMCT"). */
void saveTraceBinary(const std::string &path, const Trace &trace);

// ----- synthetic generators -----

/** Sequential streaming accesses: base, base+stride, ... */
Trace makeStreamTrace(Addr base, std::size_t count, std::uint32_t bytes,
                      std::uint32_t stride, bool writes = false);

/** Uniform-random accesses confined by @p pattern. */
Trace makeRandomTrace(Rng &rng, const AddressPattern &pattern,
                      std::size_t count, std::uint32_t bytes,
                      double write_fraction = 0.0);

/**
 * Pointer-chase style dependent accesses: a random permutation walk
 * within @p span bytes starting at @p base (one block per hop).
 */
Trace makePointerChaseTrace(Rng &rng, Addr base, std::uint64_t span,
                            std::size_t count, std::uint32_t bytes);

}  // namespace hmcsim

#endif  // HMCSIM_HOST_TRACE_H_
