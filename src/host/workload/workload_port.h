/**
 * @file
 * WorkloadPort: the single FPGA request port, parameterized by a
 * TrafficSource (what to access) and an InjectionConfig (when to
 * inject).  It models both vendor firmwares: the GUPS one (tag-limited
 * generated traffic, immediate response completion) and the multi-port
 * stream one (windowed trace replay with a rate-limited response
 * drain).  buildWorkloadParams() (host/workload/workload_build.h)
 * picks the firmware from the source: trace replay gets the stream
 * drain, everything else the GUPS path.
 */

#ifndef HMCSIM_HOST_WORKLOAD_WORKLOAD_PORT_H_
#define HMCSIM_HOST_WORKLOAD_WORKLOAD_PORT_H_

#include "host/addr_gen.h"
#include "host/port.h"
#include "host/tag_pool.h"
#include "host/workload/injection.h"
#include "host/workload/traffic_source.h"

namespace hmcsim {

class WorkloadPort : public Port
{
  public:
    /** Move-only (owns the traffic source). */
    struct Params {
        TrafficSourcePtr source;
        ReqKind kind = ReqKind::ReadOnly;
        InjectionConfig inject;
        /**
         * Response drain rate in flits per FPGA cycle through the
         * port's AXI-Stream channel; 0 = responses complete the cycle
         * they arrive (the GUPS firmware path).
         */
        std::uint32_t drainFlitsPerCycle = 0;
    };

    WorkloadPort(Kernel &kernel, Component *parent, std::string name,
                 PortId id, const HostConfig &cfg, Params params);

    void tick() override;
    void onResponse(const HmcPacketPtr &pkt) override;
    bool idle() const override;

    const TrafficSource &source() const { return *source_; }
    const InjectionConfig &injection() const { return inject_; }
    bool openLoop() const { return inject_.mode == InjectMode::OpenLoop; }

    /** Outstanding-request bookkeeping (closed loop uses real tags). */
    const TagPool &tags() const { return tags_; }
    std::uint32_t inFlight() const { return outstanding_; }

    std::uint64_t batchesCompleted() const { return batches_.value(); }

    /** Open loop: requests offered by the rate controller over the
     *  stats window (accepted = issuedRequests()). */
    double offeredRequests() const { return offered_; }

  protected:
    void reportOwnStats(std::map<std::string, double> &out) const override;
    void resetOwnStats() override;

  private:
    struct PendingWrite {
        Addr addr;
        std::uint32_t bytes;
    };

    TrafficSourcePtr source_;
    ReqKind kind_;
    InjectionConfig inject_;
    std::uint32_t drainRate_;
    std::uint32_t window_;
    TagPool tags_;
    double nsPerCycle_;
    double bucketCap_;

    std::uint32_t outstanding_ = 0;
    std::uint32_t batchRemaining_ = 0;
    bool exhausted_ = false;
    bool stagedValid_ = false;
    WorkloadRequest staged_;
    bool hasIssued_ = false;
    Tick lastIssueAt_ = 0;
    std::deque<PendingWrite> pendingWrites_;
    std::deque<HmcPacketPtr> drainQ_;
    std::uint32_t drainBudget_ = 0;
    double tokens_ = 0.0;
    bool releasing_ = false;
    double offered_ = 0.0;
    Counter batches_;

    bool closedLoop() const
    {
        return inject_.mode == InjectMode::ClosedLoop;
    }
    bool sourceDone() const { return exhausted_ && !stagedValid_; }
    bool ensureStaged();
    bool tryIssueOne();
    void complete(const HmcPacketPtr &pkt);
};

}  // namespace hmcsim

#endif  // HMCSIM_HOST_WORKLOAD_WORKLOAD_PORT_H_
