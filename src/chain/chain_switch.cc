#include "chain/chain_switch.h"

#include "common/log.h"
#include "obs/observability.h"
#include "sim/kernel.h"

namespace hmcsim {

namespace {

std::size_t
kindIndex(ChainHop kind)
{
    switch (kind) {
      case ChainHop::Up: return 0;
      case ChainHop::Down: return 1;
      case ChainHop::Wrap: return 2;
      case ChainHop::Host: return 3;
      case ChainHop::Local:
        break;
    }
    panic("ChainSwitch: Local is not a port kind");
}

}  // namespace

ChainSwitch::ChainSwitch(Kernel &kernel, HmcDevice &dev, std::string name,
                         const ChainRouteTable &routes,
                         const ChainRoutingPolicy &policy,
                         const ChainParams &params)
    : Component(kernel, &dev, std::move(name)), dev_(dev), routes_(routes),
      policy_(policy), params_(params)
{
    for (auto &kind : ports_)
        kind.resize(dev_.numLinks());
    if (Observability *o = kernel.obs()) {
        tracer_ = o->fullTracer();
        prof_ = o->profiler();
        obsMetrics_.bind(o->metricsRegistry(), path());
        obsMetrics_.counter("fwd_requests", &fwdRequests_);
        obsMetrics_.counter("fwd_responses", &fwdResponses_);
        obsMetrics_.counter("fwd_flits", &fwdFlits_);
        obsMetrics_.counter("local_injects", &localInjects_);
        obsMetrics_.counter("queue_full_stalls", &queueFullStalls_);
        obsMetrics_.counter("rx_hol_stalls", &rxHolStalls_);
        obsMetrics_.counter("adaptive_deviations", &adaptiveDeviations_);
        obsMetrics_.counter("misroutes", &misroutes_);
        obsMetrics_.counter("routed_ejects", &routedEjects_);
        // Occupancy gauges feeding the congestion heatmaps: total
        // forward-queue flits, plus a per-kind split so a hotspot's
        // direction is visible.
        obsMetrics_.gauge("fwd_q_flits_now", [this] {
            double total = 0.0;
            for (const auto &kind : ports_)
                for (const Port &p : kind)
                    total += p.qFlits;
            return total;
        });
        static constexpr const char *kKindGauge[kPortKinds] = {
            "up_q_flits_now", "down_q_flits_now", "wrap_q_flits_now",
            "host_q_flits_now"};
        for (std::size_t k = 0; k < kPortKinds; ++k) {
            obsMetrics_.gauge(kKindGauge[k], [this, k] {
                double total = 0.0;
                for (const Port &p : ports_[k])
                    total += p.qFlits;
                return total;
            });
        }
    }
}

ChainSwitch::Port &
ChainSwitch::port(ChainHop kind, LinkId l)
{
    if (l >= dev_.numLinks())
        panic("ChainSwitch::port: link out of range");
    Port &p = ports_[kindIndex(kind)][l];
    if (!p.link)
        panic("ChainSwitch: cube " + std::to_string(cubeId()) +
              " routed a packet to an unwired " + toString(kind) +
              " port");
    return p;
}

void
ChainSwitch::setPort(ChainHop kind, LinkId l, SerdesLink *link,
                     LinkDir out_dir, bool consume_rx)
{
    if (l >= dev_.numLinks())
        panic("ChainSwitch::setPort: link out of range");
    Port &p = ports_[kindIndex(kind)][l];
    p.link = link;
    p.outDir = out_dir;
    if (consume_rx) {
        link->setOnRxAvailable(p.inDir(),
                               [this, kind, l] { drainInRx(kind, l); });
    }
}

ChainPortLoad
ChainSwitch::portLoad(ChainHop kind, LinkId l) const
{
    ChainPortLoad load;
    if (l >= dev_.numLinks())
        return load;
    const Port &p = ports_[kindIndex(kind)][l];
    if (!p.link)
        return load;
    load.wired = true;
    load.queuedFlits = p.qFlits;
    const std::uint32_t queued =
        static_cast<std::uint32_t>(p.q.size());
    load.queueFreePackets = queued >= params_.forwardQueuePackets
        ? 0
        : params_.forwardQueuePackets - queued;
    load.tokensInUse = p.link->tokensInUse(p.outDir);
    return load;
}

ChainRouteDecision
ChainSwitch::decide(LinkId l, const HmcPacket &pkt) const
{
    ChainPacketView view;
    view.toHost = pkt.isResponse();
    // Responses head for the entry cube of the host that issued them;
    // requests for their CUB field.
    view.dest = view.toHost ? routes_.hostEntry(pkt.host) : pkt.cube;
    view.misroutes = pkt.chainMisroutes;
    view.dirLock = pkt.chainDirLock;
    return policy_.route(cubeId(), view, l, *this);
}

void
ChainSwitch::commit(const ChainRouteDecision &d, const HmcPacketPtr &pkt)
{
    switch (d.hop) {
      case ChainHop::Up: routeUp_.inc(); break;
      case ChainHop::Down: routeDown_.inc(); break;
      case ChainHop::Wrap: routeWrap_.inc(); break;
      case ChainHop::Host: routeHost_.inc(); break;
      case ChainHop::Local: break;
    }
    if (d.deviated)
        adaptiveDeviations_.inc();
    if (d.misrouted) {
        misroutes_.inc();
        ++pkt->chainMisroutes;
    }
    pkt->chainDirLock = d.dirLock;
    if (tracer_ && tracer_->wants(*pkt))
        tracer_->record(now(), *pkt, TraceStage::ChainForward, cubeId(),
                        static_cast<std::uint32_t>(d.hop));
}

bool
ChainSwitch::tryForward(LinkId l, const HmcPacketPtr &pkt)
{
    const ChainRouteDecision d = decide(l, *pkt);
    if (d.hop == ChainHop::Local)
        panic("ChainSwitch::tryForward: packet is local to cube " +
              std::to_string(cubeId()));
    if (!enqueue(d.hop, l, pkt))
        return false;
    commit(d, pkt);
    return true;
}

void
ChainSwitch::scheduleKick(Port &p, Tick at)
{
    if (p.kickScheduled)
        return;
    p.kickScheduled = true;
    kernel().scheduleAt(at, [this, &p] {
        p.kickScheduled = false;
        pump(p);
    });
}

bool
ChainSwitch::enqueue(ChainHop kind, LinkId l, const HmcPacketPtr &pkt)
{
    Port &p = port(kind, l);
    if (p.q.size() >= params_.forwardQueuePackets) {
        queueFullStalls_.inc();
        return false;
    }
    // Store-and-forward: the packet was fully received upstream; it
    // traverses the switch in passThroughLatency and then competes for
    // the output link's tokens.
    p.q.push_back(Pending{now() + params_.passThroughLatency, pkt, true});
    p.qFlits += pkt->flits();
    scheduleKick(p, p.q.back().readyAt);
    return true;
}

void
ChainSwitch::pump(Port &p)
{
    bool popped = false;
    while (!p.q.empty()) {
        Pending &head = p.q.front();
        if (head.readyAt > now()) {
            scheduleKick(p, head.readyAt);
            break;
        }
        const std::uint32_t flits = head.pkt->flits();
        if (!p.link->canSend(p.outDir, flits))
            break;  // resumed by the link's tokens-free callback
        p.link->reserveTokens(p.outDir, flits);
        if (head.countHop) {
            if (head.pkt->isRequest()) {
                ++head.pkt->reqHops;
                fwdRequests_.inc();
            } else {
                ++head.pkt->respHops;
                fwdResponses_.inc();
            }
            fwdFlits_.inc(flits);
            // Transit energy lands on THIS cube: it drives the
            // outgoing wire and pays the switch buffering, wherever
            // the link object happens to live.
            if (probe_)
                probe_->record(PowerEvent::ChainForwardFlit, flits);
        }
        p.link->send(p.outDir, head.pkt);
        p.qFlits -= flits;
        p.q.pop_front();
        popped = true;
    }
    if (popped)
        kickSources();
}

void
ChainSwitch::pumpAll()
{
    // An empty queue has nothing to pump: skipping it is an exact
    // no-op, and most wired ports are empty on most calls.
    for (auto &kind : ports_) {
        for (Port &p : kind) {
            if (p.link && !p.q.empty())
                pump(p);
        }
    }
}

bool
ChainSwitch::couldProgress(const ChainRouteDecision &d, LinkId l) const
{
    if (d.hop == ChainHop::Local)
        return true;  // checked against NoC credits by the caller
    const ChainPortLoad load = portLoad(d.hop, l);
    return load.wired && load.queueFreePackets > 0;
}

void
ChainSwitch::noteRxHolStall(Port &p, LinkDir in_dir, LinkId l)
{
    // The head could not move.  If anything queued behind it routes to
    // a *different* output that has space, this stall is head-of-line
    // blocking, not plain backpressure -- account it so saturation
    // studies can tell the two apart.  One count per blocked-head
    // episode: retry kicks on the same stuck head do not inflate it
    // (a new head -- this drain or the device's may have popped the
    // old one -- starts a new episode).
    const HmcPacketPtr &head = p.link->rxPeek(in_dir);
    if (p.holHead == head)
        return;
    const std::size_t waiting = p.link->rxQueued(in_dir);
    for (std::size_t i = 1; i < waiting; ++i) {
        const HmcPacketPtr &behind = p.link->rxPeekAt(in_dir, i);
        if (behind->isRequest() && behind->cube == cubeId()) {
            if (dev_.canInjectLocal(l, behind->flits())) {
                rxHolStalls_.inc();
                p.holHead = head;
                return;
            }
            continue;
        }
        if (couldProgress(decide(l, *behind), l)) {
            rxHolStalls_.inc();
            p.holHead = head;
            return;
        }
    }
}

void
ChainSwitch::drainInRx(ChainHop kind, LinkId l)
{
    ProfileScope ps(prof_, "chain");
    Port &p = port(kind, l);
    const LinkDir in_dir = p.inDir();
    while (p.link->rxAvailable(in_dir)) {
        const HmcPacketPtr &head = p.link->rxPeek(in_dir);
        if (head->isRequest() && head->cube == cubeId()) {
            // Pop before injecting, mirroring HmcDevice::drainLinkRx:
            // the RX token-refund event must be scheduled ahead of the
            // injection's events.
            if (!dev_.canInjectLocal(l, head->flits())) {
                noteRxHolStall(p, in_dir, l);
                return;  // onLocalInjectSpace retries
            }
            HmcPacketPtr pkt = p.link->rxPop(in_dir);
            if (!dev_.tryInjectLocal(l, pkt))
                panic("ChainSwitch: NoC credits vanished between "
                      "check and inject");
            localInjects_.inc();
            p.holHead.reset();  // the head moved: episode over
            continue;
        }
        const ChainRouteDecision d = decide(l, *head);
        if (!enqueue(d.hop, l, head)) {
            noteRxHolStall(p, in_dir, l);
            return;  // pump() kicks us when the queue drains
        }
        commit(d, head);
        p.link->rxPop(in_dir);
        p.holHead.reset();  // the head moved: episode over
    }
}

void
ChainSwitch::drainAllInRx()
{
    static constexpr ChainHop kKinds[] = {ChainHop::Up, ChainHop::Down,
                                          ChainHop::Wrap, ChainHop::Host};
    // Skipping an empty RX is an exact no-op: drainInRx's loop would
    // not run, and noteRxHolStall is only reached with a head waiting.
    for (const ChainHop kind : kKinds) {
        for (LinkId l = 0; l < dev_.numLinks(); ++l) {
            const Port &p = ports_[kindIndex(kind)][l];
            if (p.link && p.link->rxAvailable(p.inDir()))
                drainInRx(kind, l);
        }
    }
}

void
ChainSwitch::kickSources()
{
    // Forward-queue space freed: upstream RX buffers may drain again.
    for (LinkId l = 0; l < dev_.numLinks(); ++l)
        dev_.kickLinkRx(l);
    drainAllInRx();
}

void
ChainSwitch::onLocalInjectSpace(LinkId)
{
    drainAllInRx();
}

bool
ChainSwitch::tryReserveEject(LinkId l, std::uint32_t flits)
{
    Port &p = port(routes_.towardHost(cubeId()), l);
    if (!p.link->canSend(p.outDir, flits))
        return false;
    p.link->reserveTokens(p.outDir, flits);
    return true;
}

void
ChainSwitch::ejectFromNoc(LinkId l, const HmcPacketPtr &pkt)
{
    // Locally generated response leaving its origin cube: not a
    // pass-through forward, so no hop count or transit energy here.
    Port &p = port(routes_.towardHost(cubeId()), l);
    p.link->send(p.outDir, pkt);
}

void
ChainSwitch::ejectRoutedFromNoc(LinkId l, const HmcPacketPtr &pkt)
{
    const ChainRouteDecision d = decide(l, *pkt);
    if (d.hop == ChainHop::Local)
        panic("ChainSwitch::ejectRoutedFromNoc: response routed Local");
    // Unconditional admission past the pass-through queue cap: the
    // NoC's switch allocation already committed this ejection, and the
    // overhang stays bounded by the hosts' outstanding-tag pools (the
    // only source of responses).  No pass-through latency: an origin
    // ejection models the same direct NoC-to-link hand-off as the
    // single-host path, just behind a per-packet route decision.
    Port &p = port(d.hop, l);
    p.q.push_back(Pending{now(), pkt, false});
    p.qFlits += pkt->flits();
    routedEjects_.inc();
    commit(d, pkt);
    pump(p);
}

void
ChainSwitch::reportOwnStats(std::map<std::string, double> &out) const
{
    out[statName("fwd_requests")] =
        static_cast<double>(fwdRequests_.value());
    out[statName("fwd_responses")] =
        static_cast<double>(fwdResponses_.value());
    out[statName("fwd_flits")] = static_cast<double>(fwdFlits_.value());
    out[statName("local_injects")] =
        static_cast<double>(localInjects_.value());
    out[statName("queue_full_stalls")] =
        static_cast<double>(queueFullStalls_.value());
    out[statName("rx_hol_stalls")] =
        static_cast<double>(rxHolStalls_.value());
    out[statName("route_up")] = static_cast<double>(routeUp_.value());
    out[statName("route_down")] = static_cast<double>(routeDown_.value());
    out[statName("route_wrap")] = static_cast<double>(routeWrap_.value());
    out[statName("route_host")] = static_cast<double>(routeHost_.value());
    out[statName("routed_ejects")] =
        static_cast<double>(routedEjects_.value());
    out[statName("adaptive_deviations")] =
        static_cast<double>(adaptiveDeviations_.value());
    out[statName("misroutes")] = static_cast<double>(misroutes_.value());
}

void
ChainSwitch::resetOwnStats()
{
    fwdRequests_.reset();
    fwdResponses_.reset();
    fwdFlits_.reset();
    localInjects_.reset();
    queueFullStalls_.reset();
    rxHolStalls_.reset();
    routeUp_.reset();
    routeDown_.reset();
    routeWrap_.reset();
    routeHost_.reset();
    routedEjects_.reset();
    adaptiveDeviations_.reset();
    misroutes_.reset();
}

}  // namespace hmcsim
