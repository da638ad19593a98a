/**
 * @file
 * What the benchmark reads from and drives in each simulator layer:
 *
 *  - LayerCounters: simulated per-layer work summed over
 *    System::stats() (host, hmc, noc, dram, chain).
 *  - checkStep()/statsDigest(): the output checks behind failed_frac.
 *  - Layer drivers: time direct calls into one layer's public API
 *    (Kernel, TrafficSource, AddressMap, SerdesLink, noc::Network,
 *    VaultMemory, the chain route table and policy) fed with the
 *    workload's own generated requests.
 */

#ifndef HMCBENCH_LAYERS_H_
#define HMCBENCH_LAYERS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host/system.h"
#include "spans.h"
#include "workloads.h"

namespace hmcbench {

/** Simulated work per layer, summed over a System's stat tree.  Every
 *  counter but PeakBankQueue is a running sum, so the difference of
 *  two readings is the work done in between; *Sum counters carry
 *  mean x count, so a mean is one sum over another. */
struct LayerCounters {
    enum Id : unsigned {
        PortIssued,
        Offered,
        Accepted,
        LinkFlits,
        CrcRetries,
        VaultRequests,
        VaultServiceNsSum,
        NocFlits,
        NocMessages,
        NocLatencyNsSum,
        Activates,
        RowHits,
        RowMisses,
        TransitFlits,
        RxHolStalls,
        Misroutes,
        /** Not a sum: the largest per-vault bank queue seen. */
        PeakBankQueue,
        kCount
    };

    std::array<double, kCount> v{};

    double operator[](Id id) const { return v[id]; }

    /** Name of @p id in trace-span arguments ("hmc.link_flits"). */
    static const char *name(Id id);

    static LayerCounters
    fromStats(const std::map<std::string, double> &stats);

    /** this - @p base, except PeakBankQueue keeps this reading. */
    LayerCounters minus(const LayerCounters &base) const;

    /** Add @p d, except PeakBankQueue takes the larger. */
    void accumulate(const LayerCounters &d);
};

/** A port the benchmark configured, with the host fabric it sits on. */
struct ConfiguredPort {
    hmcsim::HostId host = 0;
    hmcsim::WorkloadPort *port = nullptr;
};

/**
 * Output checks at a step boundary of a System whose statistics were
 * reset at the start of the measured window.  Returns an empty string
 * when every check holds, else what failed.
 *  - each host controller: |requests_sent - responses_delivered| is
 *    within the host's tag pool;
 *  - each open-loop port: accepted <= offered (+ the token bucket it
 *    may have banked before the reset);
 *  - summed vault requests_served matches the ports' completed reads
 *    and writes within what can be in flight.
 */
std::string checkStep(hmcsim::System &sys,
                      const std::vector<ConfiguredPort> &ports);

/** FNV-1a over every (key, value bits) of a stat tree. */
std::uint64_t statsDigest(const std::map<std::string, double> &stats);

/** Fold @p value into running FNV-1a digest @p h. */
std::uint64_t foldDigest(std::uint64_t h, std::uint64_t value);

/** One driver result: median ns per operation over its batches. */
struct DriverResult {
    std::string metric;
    double nsPerOp = 0.0;
    std::uint64_t batches = 0;
};

/**
 * Run every layer driver on inputs generated from @p sc's own port
 * specs (addresses, sizes, cube distribution), each for roughly
 * @p secondsPerDriver, recording one span per batch into @p rec.
 */
std::vector<DriverResult> runLayerDrivers(const Scenario &sc,
                                          double secondsPerDriver,
                                          SpanRecorder *rec);

}  // namespace hmcbench

#endif  // HMCBENCH_LAYERS_H_
