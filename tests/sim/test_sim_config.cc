/**
 * @file
 * The `sim.*` config surface: sim.parallel and sim.threads are the
 * only engine knobs, and any other `sim.*` key -- a retired knob or a
 * typo -- fails at load with the key in the message instead of
 * running silently on the defaults.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "sim/sim_config.h"

namespace hmcsim {
namespace {

/** fromConfig over command-line style overrides. */
SimConfig
load(const std::vector<std::string> &overrides)
{
    Config cfg;
    cfg.applyOverrides(overrides);
    return SimConfig::fromConfig(cfg);
}

/** The fatal() message loading @p override raises; empty if none. */
std::string
loadError(const std::string &override)
{
    try {
        load({override});
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(SimConfig, ReadsTheTwoKnobs)
{
    const SimConfig c = load({"sim.parallel=on", "sim.threads=4"});
    EXPECT_TRUE(c.parallelEnabled());
    EXPECT_EQ(c.threads, 4u);

    Config out;
    c.toConfig(out);
    EXPECT_EQ(out.keys(),
              (std::vector<std::string>{"sim.parallel", "sim.threads"}));
    EXPECT_TRUE(SimConfig::fromConfig(out).parallelEnabled());
}

TEST(SimConfig, RetiredEngineKeysFailAtLoad)
{
    for (const std::string override :
         {"sim.event_queue=heap", "sim.calendar_bucket_ps=512",
          "sim.calendar_buckets=4096", "sim.packet_pool=0"}) {
        const std::string key = override.substr(0, override.find('='));
        const std::string err = loadError(override);
        EXPECT_NE(err.find("'" + key + "'"), std::string::npos)
            << override << ": " << err;
    }
}

TEST(SimConfig, MisspelledKeyFailsAtLoad)
{
    const std::string err = loadError("sim.thread=4");
    EXPECT_NE(err.find("'sim.thread'"), std::string::npos) << err;
}

TEST(SimConfig, OtherNamespacesAreNotChecked)
{
    // Only the sim.* namespace is owned here; hmc.* and host.* keys
    // belong to their own readers.
    EXPECT_NO_THROW(load({"hmc.num_cubes=4", "host.num_ports=2"}));
}

TEST(SimConfig, BadValuesFail)
{
    EXPECT_THROW(load({"sim.parallel=maybe"}), FatalError);
    EXPECT_THROW(load({"sim.threads=1000"}), FatalError);
}

}  // namespace
}  // namespace hmcsim
