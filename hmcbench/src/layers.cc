#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "chain/route_table.h"
#include "chain/routing_policy.h"
#include "dram/vault_memory.h"
#include "hmc/address_map.h"
#include "hmc/hmc_device.h"
#include "hmc/packet.h"
#include "hmc/serdes_link.h"
#include "host/workload/workload_build.h"
#include "noc/network.h"
#include "noc/topology.h"
#include "sim/kernel.h"

namespace hmcbench {

using namespace hmcsim;

// ----- counters -----

namespace {

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** Value of the sibling stat @p leaf next to @p key ("a.b.x" -> "a.b.leaf"). */
double
sibling(const std::map<std::string, double> &stats, const std::string &key,
        const char *leaf)
{
    const std::string path = key.substr(0, key.rfind('.') + 1) + leaf;
    const auto it = stats.find(path);
    return it == stats.end() ? 0.0 : it->second;
}

/** Which stat leaves feed which counter; a weighted leaf is
 *  multiplied by its sibling count (a mean times its samples). */
struct CounterRule {
    const char *suffix;
    LayerCounters::Id id;
    const char *weight;
};

constexpr CounterRule kRules[] = {
    {".issued", LayerCounters::PortIssued, nullptr},
    {".offered_requests", LayerCounters::Offered, nullptr},
    {".accepted_requests", LayerCounters::Accepted, nullptr},
    {".down_flits", LayerCounters::LinkFlits, nullptr},
    {".up_flits", LayerCounters::LinkFlits, nullptr},
    {".crc_retries", LayerCounters::CrcRetries, nullptr},
    {".requests_served", LayerCounters::VaultRequests, nullptr},
    {".avg_service_ns", LayerCounters::VaultServiceNsSum, "requests_served"},
    {".noc.flits_delivered", LayerCounters::NocFlits, nullptr},
    {".noc.messages_delivered", LayerCounters::NocMessages, nullptr},
    {".noc.avg_latency_ns", LayerCounters::NocLatencyNsSum,
     "messages_delivered"},
    {".mem.activates", LayerCounters::Activates, nullptr},
    {".mem.row_hits", LayerCounters::RowHits, nullptr},
    {".mem.row_misses", LayerCounters::RowMisses, nullptr},
    {".fwd.fwd_flits", LayerCounters::TransitFlits, nullptr},
    {".fwd.rx_hol_stalls", LayerCounters::RxHolStalls, nullptr},
    {".fwd.misroutes", LayerCounters::Misroutes, nullptr},
};

}  // namespace

const char *
LayerCounters::name(Id id)
{
    static constexpr const char *kNames[kCount] = {
        "host.requests_issued", "host.offered",
        "host.accepted",        "hmc.link_flits",
        "hmc.link_crc_retries", "hmc.vault_requests",
        "hmc.vault_service_ns_sum", "noc.flits",
        "noc.messages",         "noc.latency_ns_sum",
        "dram.activates",       "dram.row_hits",
        "dram.row_misses",      "chain.transit_flits",
        "chain.rx_hol_stalls",  "chain.misroutes",
        "hmc.vault_peak_bank_queue"};
    return kNames[id];
}

LayerCounters
LayerCounters::fromStats(const std::map<std::string, double> &stats)
{
    LayerCounters c;
    for (const auto &[k, v] : stats) {
        if (endsWith(k, ".peak_bank_queue")) {
            c.v[PeakBankQueue] = std::max(c.v[PeakBankQueue], v);
            continue;
        }
        for (const CounterRule &r : kRules) {
            if (endsWith(k, r.suffix)) {
                c.v[r.id] += r.weight ? v * sibling(stats, k, r.weight) : v;
                break;
            }
        }
    }
    return c;
}

LayerCounters
LayerCounters::minus(const LayerCounters &base) const
{
    LayerCounters d = *this;
    for (unsigned i = 0; i < kCount; ++i)
        if (i != PeakBankQueue)
            d.v[i] -= base.v[i];
    return d;
}

void
LayerCounters::accumulate(const LayerCounters &d)
{
    for (unsigned i = 0; i < kCount; ++i)
        v[i] = i == PeakBankQueue ? std::max(v[i], d.v[i]) : v[i] + d.v[i];
}

// ----- checks -----

std::string
checkStep(System &sys, const std::vector<ConfiguredPort> &ports)
{
    const HostConfig &host = sys.config().host;
    std::vector<double> pool(sys.numHosts(), 0.0);
    std::uint64_t completed = 0;
    for (const ConfiguredPort &cp : ports) {
        const WorkloadPort *wp = cp.port;
        const HostId h = cp.host;
        // Closed-loop ports hold a real tag per request; open-loop
        // ports are bounded by the host's per-port tag budget.
        pool[h] += wp->openLoop() ? host.tagsPerPort
                                  : wp->tags().capacity();
        completed += wp->monitor().reads() + wp->monitor().writes();
        if (wp->openLoop()) {
            const InjectionConfig &inj = wp->injection();
            const double banked = inj.bucketCap > 0.0
                ? inj.bucketCap
                : std::max(2.0 * inj.burstiness, 16.0);
            const double accepted =
                static_cast<double>(wp->issuedRequests());
            if (accepted > wp->offeredRequests() + banked)
                return "host" + std::to_string(h) + " port" +
                    std::to_string(wp->portId()) + ": accepted " +
                    std::to_string(accepted) + " > offered " +
                    std::to_string(wp->offeredRequests());
        }
    }
    double total_pool = 0.0;
    for (HostId h = 0; h < sys.numHosts(); ++h) {
        const HmcHostController &ctrl = sys.fpga(h).controller();
        const double gap = std::fabs(
            static_cast<double>(ctrl.requestsSent()) -
            static_cast<double>(ctrl.responsesDelivered()));
        if (gap > pool[h])
            return "host" + std::to_string(h) + ": sent-delivered gap " +
                std::to_string(gap) + " exceeds tag pool " +
                std::to_string(pool[h]);
        total_pool += pool[h];
    }
    std::uint64_t served = 0;
    for (CubeId c = 0; c < sys.numCubes(); ++c)
        served += sys.device(c).totalRequestsServed();
    const double gap = std::fabs(static_cast<double>(served) -
                                 static_cast<double>(completed));
    if (gap > total_pool)
        return "vaults served " + std::to_string(served) +
            " vs ports completed " + std::to_string(completed);
    return "";
}

std::uint64_t
foldDigest(std::uint64_t h, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
statsDigest(const std::map<std::string, double> &stats)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &[k, v] : stats) {
        for (const char ch : k) {
            h ^= static_cast<unsigned char>(ch);
            h *= 0x100000001b3ull;
        }
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        h = foldDigest(h, bits);
    }
    return h;
}

// ----- layer drivers -----

namespace {

/** One generated request, as the workload's sources produce it. */
struct GenRequest {
    Addr addr = 0;
    std::uint32_t bytes = 0;
    bool isWrite = false;
    HostId host = 0;
    std::uint32_t reqFlits = 0;
};

constexpr std::size_t kInputs = 1u << 16;

/** Keeps the drivers' results observable, so no loop is elided. */
volatile std::uint64_t g_sink = 0;

std::vector<TrafficSourcePtr>
buildSources(const Scenario &sc, const AddressMap &map)
{
    std::vector<TrafficSourcePtr> out;
    for (const PortLoad &pw : sc.ports)
        out.push_back(buildTrafficSource(pw.spec, map, pw.spec.seed));
    return out;
}

std::vector<GenRequest>
generateInputs(const Scenario &sc, const AddressMap &map)
{
    std::vector<TrafficSourcePtr> sources = buildSources(sc, map);
    std::vector<GenRequest> out;
    out.reserve(kInputs);
    WorkloadRequest r;
    for (std::size_t i = 0; out.size() < kInputs; ++i) {
        const std::size_t p = i % sources.size();
        if (!sources[p]->next(0, r))
            continue;
        GenRequest g;
        g.addr = r.addr;
        g.bytes = r.bytes;
        g.isWrite = r.isWrite;
        g.host = sc.ports[p].host;
        g.reqFlits = HmcPacket::flitsFor(
            r.isWrite ? HmcCmd::Write : HmcCmd::Read, r.bytes);
        out.push_back(g);
    }
    return out;
}

/**
 * Run @p batch (which returns its operation count) repeatedly for
 * about @p seconds, one span per batch; report the median ns/op.
 */
template <typename Batch>
DriverResult
timeDriver(const char *metric, const char *span, double seconds,
           SpanRecorder *rec, Batch &&batch)
{
    std::vector<double> ns_per_op;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    do {
        SpanScope s(rec, span);
        const Clock::time_point t0 = Clock::now();
        const std::uint64_t ops = batch();
        const Clock::time_point t1 = Clock::now();
        ns_per_op.push_back(secondsBetween(t0, t1) * 1e9 /
                            static_cast<double>(ops));
        s.arg("ops", static_cast<double>(ops));
    } while (Clock::now() < deadline || ns_per_op.size() < 3);
    std::sort(ns_per_op.begin(), ns_per_op.end());
    DriverResult r;
    r.metric = metric;
    r.nsPerOp = ns_per_op[ns_per_op.size() / 2];
    r.batches = ns_per_op.size();
    return r;
}

/** Telemetry for the routing policy: an idle fabric. */
class IdleLoads : public ChainLoadProvider
{
  public:
    ChainPortLoad
    portLoad(ChainHop, LinkId) const override
    {
        ChainPortLoad l;
        l.wired = true;
        return l;
    }
};

}  // namespace

std::vector<DriverResult>
runLayerDrivers(const Scenario &sc, double seconds, SpanRecorder *rec)
{
    const HmcConfig &hmc = sc.cfg.hmc;
    std::vector<GenRequest> in;
    std::vector<CubeId> entries;
    std::unique_ptr<System> sys;
    {
        SpanScope s(rec, "driver.inputs");
        sys = std::make_unique<System>(sc.cfg);
        in = generateInputs(sc, sys->addressMap());
        for (HostId h = 0; h < sys->numHosts(); ++h)
            entries.push_back(sys->hostEntryCube(h));
    }
    const AddressMap &map = sys->addressMap();
    std::vector<DriverResult> out;

    // sim: schedule/execute through the Kernel.  A pending population
    // of self-rescheduling events, each delay taken from the
    // generated request stream: the request's flits at the link flit
    // period plus its bank bits in ns.
    out.push_back(timeDriver(
        "sim.queue_ns_per_op", "driver.sim.queue", seconds, rec, [&] {
            Kernel k;
            constexpr std::size_t kPending = 1024;
            constexpr std::uint64_t kOps = 200000;
            const SerdesLink::Params lp = linkParamsFrom(hmc);
            const Tick flit = nsToTicks(8.0 * kFlitBytes /
                                        (lp.lanes * lp.gbps));
            std::uint64_t executed = 0;
            std::size_t cursor = 0;
            std::function<void()> fire;
            fire = [&] {
                if (++executed + kPending > kOps)
                    return;
                const GenRequest &g = in[cursor++ % in.size()];
                k.scheduleIn(g.reqFlits * flit +
                                 ((g.addr >> 7) & 63) * kNanosecond + 1,
                             [&fire] { fire(); });
            };
            for (std::size_t i = 0; i < kPending; ++i)
                k.scheduleIn(i + 1, [&fire] { fire(); });
            k.run();
            return executed;
        }));

    // host: TrafficSource::next on the workload's own sources.
    {
        std::vector<TrafficSourcePtr> sources = buildSources(sc, map);
        std::uint64_t sink = 0;
        out.push_back(timeDriver(
            "host.source_ns_per_req", "driver.host.source", seconds, rec,
            [&] {
                constexpr std::uint64_t kOps = 200000;
                WorkloadRequest r;
                for (std::uint64_t i = 0; i < kOps; ++i) {
                    sources[i % sources.size()]->next(0, r);
                    sink += r.addr;
                }
                return kOps;
            }));
        g_sink = sink;
    }

    // hmc: AddressMap::decode of the generated addresses.
    {
        std::uint64_t sink = 0;
        out.push_back(timeDriver(
            "hmc.addrmap_ns_per_decode", "driver.hmc.addrmap", seconds, rec,
            [&] {
                for (int rep = 0; rep < 4; ++rep)
                    for (const GenRequest &g : in) {
                        const DecodedAddr d = map.decode(g.addr);
                        sink += d.cube + d.vault + d.bank;
                    }
                return static_cast<std::uint64_t>(4 * in.size());
            }));
        g_sink = sink;
    }

    // hmc: SerdesLink send -> arrive -> rxPop, with token return.
    out.push_back(timeDriver(
        "hmc.link_ns_per_packet", "driver.hmc.link", seconds, rec, [&] {
            Kernel k;
            SerdesLink link(k, nullptr, "link", 0, linkParamsFrom(hmc));
            std::uint64_t popped = 0;
            link.setOnRxAvailable(LinkDir::HostToCube, [&] {
                while (link.rxAvailable(LinkDir::HostToCube)) {
                    link.rxPop(LinkDir::HostToCube);
                    ++popped;
                }
            });
            constexpr std::size_t kOps = 32768;
            for (std::size_t i = 0; i < kOps; ++i) {
                const GenRequest &g = in[i];
                if (!link.canSend(LinkDir::HostToCube, g.reqFlits))
                    k.run();
                HmcPacketPtr pkt =
                    g.isWrite ? makeWriteRequest(g.addr, g.bytes, 0)
                              : makeReadRequest(g.addr, g.bytes, 0);
                link.reserveTokens(LinkDir::HostToCube, g.reqFlits);
                link.send(LinkDir::HostToCube, pkt);
            }
            k.run();
            return popped;
        }));

    // noc: Network inject -> route -> deliver, link endpoints to the
    // decoded vault endpoints.
    out.push_back(timeDriver(
        "noc.ns_per_message", "driver.noc.network", seconds, rec, [&] {
            Kernel k;
            const TopologySpec topo = makeTopology(
                hmc.topology, hmc.numVaults, hmc.numQuadrants, hmc.numLinks);
            Network net(k, nullptr, "noc", topo, hmc.noc);
            std::uint64_t delivered = 0;
            for (NodeId ep = 0; ep < net.numEndpoints(); ++ep) {
                Network::EndpointOps ops;
                ops.tryReserve = [](std::uint32_t) { return true; };
                ops.deliver = [&delivered](const NocMessage &) {
                    ++delivered;
                };
                ops.onInjectSpace = [] {};
                net.setEndpoint(ep, std::move(ops));
            }
            constexpr std::size_t kOps = 32768;
            for (std::size_t i = 0; i < kOps; ++i) {
                const GenRequest &g = in[i];
                NocMessage msg;
                msg.id = i;
                msg.src = static_cast<NodeId>(i % hmc.numLinks);
                msg.dst = hmc.numLinks + map.decode(g.addr).vault;
                msg.flits = g.reqFlits;
                if (!net.canInject(msg.src, msg.flits))
                    k.run();
                net.inject(msg.src, std::move(msg));
            }
            k.run();
            return delivered;
        }));

    // dram: VaultMemory::service of the generated bank/row stream,
    // one access in flight at a time.
    out.push_back(timeDriver(
        "dram.ns_per_access", "driver.dram.vault_memory", seconds, rec,
        [&] {
            Kernel k;
            VaultMemory mem(k, nullptr, "vmem", hmc.dramTiming(),
                            hmc.numBanksPerVault);
            const PagePolicy policy = pagePolicyFromString(hmc.pagePolicy);
            Tick now = 0;
            for (const GenRequest &g : in) {
                const DramAccess a = map.toAccess(g.addr, g.bytes, g.isWrite);
                now = mem.service(a, now, policy).dataEnd;
            }
            return static_cast<std::uint64_t>(in.size());
        }));

    // chain: route-table/policy decisions from the issuing host's
    // entry cube to the decoded destination cube and back.
    {
        const ChainTopology topo =
            chainTopologyFromString(hmc.chain.topology);
        ChainRouteTable routes(topo, hmc.chain.numCubes, entries);
        AdaptiveRoutingParams ap;
        ap.thresholdFlits = hmc.chain.adaptiveThresholdFlits;
        ap.misrouteThresholdFlits = hmc.chain.adaptiveMisrouteThresholdFlits;
        ap.maxMisroutes = hmc.chain.adaptiveMaxMisroutes;
        const std::unique_ptr<ChainRoutingPolicy> policy =
            makeChainRoutingPolicy(
                chainRoutingFromString(hmc.chain.routing), routes, ap);
        const IdleLoads loads;
        out.push_back(timeDriver(
            "chain.route_ns_per_decision", "driver.chain.route", seconds,
            rec, [&] {
                std::uint64_t decisions = 0;
                for (const GenRequest &g : in) {
                    const CubeId entry = entries[g.host];
                    ChainPacketView req;
                    req.dest = map.decodeCube(g.addr);
                    CubeId at = entry;
                    for (;;) {
                        ++decisions;
                        const ChainRouteDecision d =
                            policy->route(at, req, 0, loads);
                        if (d.hop == ChainHop::Local)
                            break;
                        at = routes.neighbor(at, d.hop);
                    }
                    // The response leaves the entry cube on the host's
                    // attachment port, so routing ends there.
                    ChainPacketView resp;
                    resp.dest = entry;
                    resp.toHost = true;
                    for (;;) {
                        ++decisions;
                        const ChainRouteDecision d =
                            policy->route(at, resp, 0, loads);
                        if (at == entry || d.hop == ChainHop::Local)
                            break;
                        at = routes.neighbor(at, d.hop);
                    }
                }
                return decisions;
            }));
    }
    return out;
}

}  // namespace hmcbench
