#include "sim/sim_config.h"

#include "common/log.h"
#include "common/strutil.h"

namespace hmcsim {

void
SimConfig::validate() const
{
    if (parallel != "off" && parallel != "on")
        fatal("sim: unknown parallel mode '" + parallel +
              "' (expected off|on)");
    if (threads > 256)
        fatal("sim: threads must be <= 256");
}

SimConfig
SimConfig::fromConfig(const Config &cfg)
{
    for (const std::string &key : cfg.keys()) {
        if (startsWith(key, "sim.") && key != "sim.parallel" &&
            key != "sim.threads")
            fatal("sim: unknown key '" + key +
                  "' (expected sim.parallel|sim.threads)");
    }
    SimConfig c;
    c.parallel = cfg.getString("sim.parallel", c.parallel);
    c.threads = cfg.getU64("sim.threads", c.threads);
    c.validate();
    return c;
}

void
SimConfig::toConfig(Config &cfg) const
{
    cfg.set("sim.parallel", parallel);
    cfg.setU64("sim.threads", threads);
}

}  // namespace hmcsim
