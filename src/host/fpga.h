/**
 * @file
 * The FPGA fabric: nine request ports and the host HMC controller,
 * ticking at 187.5 MHz.  Ports start as inactive GUPS-sourced
 * WorkloadPorts and are replaced in place when an experiment (or the
 * config-driven workload layer) configures them.
 */

#ifndef HMCSIM_HOST_FPGA_H_
#define HMCSIM_HOST_FPGA_H_

#include <memory>
#include <vector>

#include "host/hmc_host_controller.h"
#include "host/workload/sources.h"
#include "host/workload/workload_build.h"
#include "host/workload/workload_port.h"
#include "sim/clock.h"

namespace hmcsim {

class SelfProfiler;

class Fpga : public Component
{
  public:
    Fpga(Kernel &kernel, Component *parent, std::string name,
         const HostConfig &cfg, HostAttach attach);

    const HostConfig &config() const { return cfg_; }
    const ClockDomain &clock() const { return clock_; }

    Port &port(PortId p);
    std::uint32_t numPorts() const { return cfg_.numPorts; }

    /**
     * Replace port @p p per a workload spec (active).  A non-null
     * @p source replaces the traffic the spec would generate; see
     * buildWorkloadParams().
     */
    WorkloadPort &configureWorkload(PortId p, const WorkloadSpec &spec,
                                    TrafficSourcePtr source = nullptr);

    /** Deactivate every port (they keep their workload). */
    void deactivateAllPorts();

    HmcHostController &controller() { return *ctrl_; }

    /** Begin ticking; idempotent. */
    void start();

    /** Stop ticking after the current cycle. */
    void stop() { running_ = false; }

    bool running() const { return running_; }

    /** True when every port reports idle. */
    bool allPortsIdle() const;

  private:
    HostConfig cfg_;
    HostAttach attach_;
    ClockDomain clock_;
    std::vector<std::unique_ptr<Port>> ports_;
    std::unique_ptr<HmcHostController> ctrl_;
    bool running_ = false;
    SelfProfiler *prof_ = nullptr;

    void tickAll();
    void rebindController();
    WorkloadPort &configureWorkloadPort(PortId p,
                                        WorkloadPort::Params params);
    WorkloadPort::Params defaultPortParams(PortId p) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_HOST_FPGA_H_
