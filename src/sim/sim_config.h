/**
 * @file
 * Engine configuration: the `sim.*` config surface.
 *
 * Knobs:
 *   sim.parallel             off|on  partitioned-parallel event core:
 *                                  one partition + local clock per
 *                                  cube, conservative chain-link
 *                                  lookahead windows (default off --
 *                                  the serial run loop, bit-identical
 *                                  to every prior release)
 *   sim.threads              u64   worker threads for sim.parallel=on;
 *                                  0 (default) means one per cube,
 *                                  capped at hardware concurrency.
 *                                  Results are identical for every
 *                                  thread count.
 *
 * Any other `sim.*` key is a load-time error, so a retired engine
 * knob or a typo never runs silently with the defaults.
 */

#ifndef HMCSIM_SIM_SIM_CONFIG_H_
#define HMCSIM_SIM_SIM_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/config.h"

namespace hmcsim {

struct SimConfig {
    std::string parallel = "off";
    std::uint64_t threads = 0;

    bool parallelEnabled() const { return parallel == "on"; }

    void validate() const;

    /** Read "sim.*" keys over the defaults; fatal on an unknown one. */
    static SimConfig fromConfig(const Config &cfg);
    void toConfig(Config &cfg) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_SIM_CONFIG_H_
