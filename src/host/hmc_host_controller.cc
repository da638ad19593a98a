#include "host/hmc_host_controller.h"

#include <algorithm>
#include <numeric>

#include "common/log.h"
#include "obs/observability.h"
#include "sim/kernel.h"

namespace hmcsim {

HmcHostController::HmcHostController(Kernel &kernel, Component *parent,
                                     std::string name,
                                     const HostConfig &cfg,
                                     HostAttach attach)
    : Component(kernel, parent, std::move(name)), cfg_(cfg),
      attach_(std::move(attach)), portArb_(cfg.numPorts),
      sentPerCube_(attach_.numCubes), outstanding_(attach_.numCubes, 0),
      peakOutstanding_(attach_.numCubes, 0),
      sentPerLink_(attach_.links.size())
{
    if (attach_.links.empty() || !attach_.map)
        panic("HmcHostController: incomplete host attachment");
    if (attach_.linkCube.size() != attach_.links.size())
        panic("HmcHostController: link/cube table size mismatch");
    for (SerdesLink *lk : attach_.links) {
        if (lk->endpointMode() != LinkEndpointMode::Host)
            panic("HmcHostController: wired to a pass-through link");
    }
    if (Observability *o = kernel.obs()) {
        obsMetrics_.bind(o->metricsRegistry(), path());
        obsMetrics_.counter("requests_sent", &requestsSent_);
        obsMetrics_.counter("responses_delivered", &responsesDelivered_);
        obsMetrics_.gauge("outstanding_now", [this] {
            return static_cast<double>(std::accumulate(
                outstanding_.begin(), outstanding_.end(), 0u));
        });
    }
}

void
HmcHostController::setPorts(std::vector<Port *> ports)
{
    if (ports.size() != cfg_.numPorts)
        panic("HmcHostController: port table size mismatch");
    ports_ = std::move(ports);
}

void
HmcHostController::tick()
{
    if (ports_.empty())
        panic("HmcHostController: tick before setPorts");
    tickRequests();
    tickResponses();
}

void
HmcHostController::tickRequests()
{
    // Rotate which link picks first so scarce requests (tag-limited
    // ports) spread across both links -- responses return on the link
    // their request used, so an unbalanced request path would halve
    // the usable response bandwidth.
    const LinkDir dir = LinkDir::HostToCube;
    const std::uint32_t num_links = numLinks();
    std::vector<std::uint32_t> &grants = grantsScratch_;
    grants.assign(num_links, cfg_.requestsPerCyclePerLink);
    std::vector<bool> &req = reqScratch_;
    std::uint32_t idle_links = 0;
    while (idle_links < num_links) {
        LinkId l = static_cast<LinkId>(txNextLink_ % num_links);
        if (attach_.adaptiveEntry && num_links > 1) {
            // Congestion-aware entry spread: among links that still
            // hold an issue grant, prefer the one with the most free
            // request tokens; ties keep the round-robin order.
            std::uint32_t best = link(l).tokensFree(dir);
            for (std::uint32_t k = 1; k < num_links; ++k) {
                const LinkId cand =
                    static_cast<LinkId>((txNextLink_ + k) % num_links);
                if (grants[cand] == 0)
                    continue;
                const std::uint32_t free = link(cand).tokensFree(dir);
                if (grants[l] == 0 || free > best) {
                    l = cand;
                    best = free;
                }
            }
        }
        txNextLink_ = (static_cast<std::size_t>(l) + 1) % num_links;
        if (grants[l] == 0) {
            ++idle_links;
            continue;
        }
        SerdesLink &lk = link(l);
        const CubeId link_cube = attach_.linkCube[l];
        req.assign(ports_.size(), false);
        bool any = false;
        for (std::size_t p = 0; p < ports_.size(); ++p) {
            req[p] = ports_[p]->hasRequest() &&
                lk.canSend(dir, ports_[p]->headFlits());
            // Star attachment: this link only reaches one cube.
            if (req[p] && link_cube != kCubeAll) {
                req[p] = attach_.map->decodeCube(
                             ports_[p]->headAddr()) == link_cube;
            }
            any = any || req[p];
        }
        if (!any) {
            grants[l] = 0;
            ++idle_links;
            continue;
        }
        const std::size_t winner = portArb_.grant(req);
        HmcPacketPtr pkt = ports_[winner]->popRequest();
        pkt->link = l;
        pkt->host = attach_.hostId;
        if (multiCube()) {
            pkt->cube = attach_.map->decodeCube(pkt->addr);
            ++outstanding_[pkt->cube];
            peakOutstanding_[pkt->cube] = std::max(
                peakOutstanding_[pkt->cube], outstanding_[pkt->cube]);
            sentPerCube_[pkt->cube].inc();
        }
        lk.reserveTokens(dir, pkt->flits());
        lk.send(dir, pkt);
        requestsSent_.inc();
        sentPerLink_[l].inc();
        --grants[l];
        idle_links = 0;
    }
}

void
HmcHostController::tickResponses()
{
    const LinkDir dir = LinkDir::CubeToHost;
    desFlitBudget_ = std::min(
        desFlitBudget_ + cfg_.deserializerFlitsPerCycle,
        cfg_.deserializerFlitBudgetCap);
    desPacketBudget_ = std::min(
        desPacketBudget_ + cfg_.deserializerPacketsPerCycle,
        cfg_.deserializerPacketBudgetCap);
    const std::uint32_t num_links = numLinks();
    std::uint32_t exhausted = 0;
    while (exhausted < num_links && desPacketBudget_ > 0) {
        SerdesLink &lk = link(static_cast<LinkId>(rxNextLink_ % num_links));
        rxNextLink_ = (rxNextLink_ + 1) % num_links;
        if (!lk.rxAvailable(dir)) {
            ++exhausted;
            continue;
        }
        if (lk.rxPeek(dir)->flits() > desFlitBudget_)
            return;  // datapath saturated this cycle
        HmcPacketPtr pkt = lk.rxPop(dir);
        desFlitBudget_ -= pkt->flits();
        --desPacketBudget_;
        exhausted = 0;
        if (pkt->host != attach_.hostId)
            panic("HmcHostController: host " +
                  std::to_string(attach_.hostId) +
                  " received a response issued by host " +
                  std::to_string(pkt->host));
        if (pkt->port >= ports_.size())
            panic("HmcHostController: response for unknown port");
        if (multiCube()) {
            if (pkt->cube >= outstanding_.size() ||
                outstanding_[pkt->cube] == 0)
                panic("HmcHostController: unmatched response cube id");
            --outstanding_[pkt->cube];
        }
        responsesDelivered_.inc();
        ports_[pkt->port]->onResponse(pkt);
    }
}

std::uint32_t
HmcHostController::outstandingToCube(CubeId c) const
{
    if (c >= outstanding_.size())
        panic("HmcHostController: cube out of range");
    return outstanding_[c];
}

std::uint32_t
HmcHostController::peakOutstandingToCube(CubeId c) const
{
    if (c >= peakOutstanding_.size())
        panic("HmcHostController: cube out of range");
    return peakOutstanding_[c];
}

std::uint64_t
HmcHostController::requestsSentToCube(CubeId c) const
{
    if (c >= sentPerCube_.size())
        panic("HmcHostController: cube out of range");
    return sentPerCube_[c].value();
}

std::uint64_t
HmcHostController::requestsSentOnLink(LinkId l) const
{
    if (l >= sentPerLink_.size())
        panic("HmcHostController: link out of range");
    return sentPerLink_[l].value();
}

void
HmcHostController::reportOwnStats(std::map<std::string, double> &out) const
{
    out[statName("requests_sent")] =
        static_cast<double>(requestsSent_.value());
    out[statName("responses_delivered")] =
        static_cast<double>(responsesDelivered_.value());
    for (LinkId l = 0; l < numLinks(); ++l) {
        out[statName("link" + std::to_string(l) + "_requests_sent")] =
            static_cast<double>(sentPerLink_[l].value());
    }
    if (multiCube()) {
        for (CubeId c = 0; c < attach_.numCubes; ++c) {
            const std::string tag = "cube" + std::to_string(c);
            out[statName(tag + "_requests_sent")] =
                static_cast<double>(sentPerCube_[c].value());
            out[statName(tag + "_outstanding_now")] =
                static_cast<double>(outstanding_[c]);
            out[statName(tag + "_peak_outstanding")] =
                static_cast<double>(peakOutstanding_[c]);
        }
    }
}

void
HmcHostController::resetOwnStats()
{
    requestsSent_.reset();
    responsesDelivered_.reset();
    for (Counter &c : sentPerLink_)
        c.reset();
    for (CubeId c = 0; c < attach_.numCubes; ++c) {
        sentPerCube_[c].reset();
        // Peaks restart from the live level, like the vault queues.
        peakOutstanding_[c] = outstanding_[c];
    }
}

}  // namespace hmcsim
