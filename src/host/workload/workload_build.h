/**
 * @file
 * Turn a WorkloadSpec (the config-level description) into live
 * WorkloadPort parameters: build the TrafficSource tree against the
 * system's address geometry and resolve the injection policy against
 * the host firmware defaults.
 */

#ifndef HMCSIM_HOST_WORKLOAD_WORKLOAD_BUILD_H_
#define HMCSIM_HOST_WORKLOAD_WORKLOAD_BUILD_H_

#include "hmc/address_map.h"
#include "host/workload/workload_port.h"
#include "host/workload/workload_spec.h"

namespace hmcsim {

struct HostConfig;

/**
 * Build the TrafficSource described by @p spec.  @p seed is the fully
 * resolved per-port seed (the builder derives decorrelated sub-seeds
 * for nested sources with mixSeeds()).
 */
TrafficSourcePtr buildTrafficSource(const WorkloadSpec &spec,
                                    const AddressMap &map,
                                    std::uint64_t seed);

/**
 * Resolve @p spec into full port parameters for @p port.  A zero
 * spec.seed derives the port seed as mixSeeds(host.seed, port).
 *
 * A non-null @p source is used in place of the one the spec would
 * build: traffic a spec cannot describe (a loaded or hand-built trace,
 * one RNG shared across ports, a cube-confined pattern).  The spec
 * still supplies the request kind and injection policy.  Either way a
 * top-level trace source ("trace" kind()) selects the stream firmware:
 * host.streamDrainFlitsPerCycle and, for a zero window,
 * host.streamWindow.
 */
WorkloadPort::Params buildWorkloadParams(const WorkloadSpec &spec,
                                         const AddressMap &map,
                                         const HostConfig &host,
                                         PortId port,
                                         TrafficSourcePtr source = nullptr);

}  // namespace hmcsim

#endif  // HMCSIM_HOST_WORKLOAD_WORKLOAD_BUILD_H_
