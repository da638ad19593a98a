/**
 * @file
 * The `sim.*` config namespace: the event engine has no settable
 * keys, so SystemConfig::fromConfig fails at load on any `sim.*` key
 * -- a retired engine knob or a typo -- with the key in the message,
 * instead of running silently on the defaults.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "host/system.h"

namespace hmcsim {
namespace {

/** SystemConfig::fromConfig over command-line style overrides. */
SystemConfig
load(const std::vector<std::string> &overrides)
{
    Config cfg;
    cfg.applyOverrides(overrides);
    return SystemConfig::fromConfig(cfg);
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

TEST(SimNamespace, RetiredEngineKeysFailAtLoad)
{
    for (const std::string override :
         {"sim.parallel=on", "sim.parallel=off", "sim.threads=4",
          "sim.event_queue=heap", "sim.calendar_bucket_ps=512",
          "sim.calendar_buckets=4096", "sim.packet_pool=0"}) {
        const std::string key = override.substr(0, override.find('='));
        const std::string err = loadError(override);
        EXPECT_NE(err.find("'" + key + "'"), std::string::npos)
            << override << ": " << err;
    }
}

TEST(SimNamespace, MisspelledKeyFailsAtLoad)
{
    const std::string err = loadError("sim.thread=4");
    EXPECT_NE(err.find("'sim.thread'"), std::string::npos) << err;
}

TEST(SimNamespace, OtherNamespacesAreNotChecked)
{
    // Only the sim.* namespace is checked here; hmc.*, host.* and
    // obs.* keys belong to their own readers.
    EXPECT_NO_THROW(
        load({"hmc.num_cubes=4", "host.num_ports=2", "obs.metrics=on"}));
}

TEST(SimNamespace, RoundTripWritesNoSimKeys)
{
    Config out;
    SystemConfig{}.toConfig(out);
    for (const std::string &key : out.keys())
        EXPECT_NE(key.rfind("sim.", 0), 0u) << key;
    EXPECT_NO_THROW(SystemConfig::fromConfig(out));
}

}  // namespace
}  // namespace hmcsim
