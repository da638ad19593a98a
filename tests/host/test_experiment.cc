/**
 * @file
 * Tests for the experiment harness: result collection math, spec
 * validation, and reproducibility guarantees the benches depend on.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "host/experiment.h"
#include "host/system.h"

namespace hmcsim {
namespace {

TEST(Experiment, CollectResultAggregatesPorts)
{
    SystemConfig cfg;
    System sys(cfg);
    WorkloadSpec w;
    for (PortId p = 0; p < 2; ++p) {
        w.seed = 3 + p;
        sys.configureWorkload(p, w);
    }
    const ExperimentResult r = sys.measure(10 * kMicrosecond);
    ASSERT_EQ(r.ports.size(), 2u);
    std::uint64_t reads = 0, bytes = 0;
    for (const PortStats &ps : r.ports) {
        reads += ps.reads;
        bytes += ps.wireBytes;
        EXPECT_GT(ps.bandwidthGBs, 0.0);
    }
    EXPECT_EQ(r.totalReads, reads);
    EXPECT_EQ(r.totalWireBytes, bytes);
    EXPECT_EQ(r.mergedRead.count(), reads);
    // Paper formula: every 32 B read moves 64 wire bytes.
    EXPECT_EQ(bytes, reads * 64);
    // Bandwidth = bytes / window.
    EXPECT_NEAR(r.bandwidthGBs,
                static_cast<double>(bytes) /
                    static_cast<double>(r.windowTicks) * 1000.0,
                1e-9);
}

TEST(Experiment, IdlePortsExcludedFromResult)
{
    SystemConfig cfg;
    System sys(cfg);
    WorkloadSpec w;
    w.seed = 1;
    sys.configureWorkload(4, w);  // only port 4 is active
    const ExperimentResult r = sys.measure(5 * kMicrosecond);
    ASSERT_EQ(r.ports.size(), 1u);
    EXPECT_EQ(r.ports[0].port, 4u);
}

TEST(Experiment, WarmupExcludedFromWindow)
{
    SystemConfig cfg;
    GupsSpec spec;
    spec.requestBytes = 32;
    spec.window = 10 * kMicrosecond;
    spec.warmup = 1 * kMicrosecond;
    const ExperimentResult short_warm = runGups(cfg, spec);
    spec.warmup = 20 * kMicrosecond;
    const ExperimentResult long_warm = runGups(cfg, spec);
    // Steady-state windows: warmup length must not change the rate by
    // more than a small transient margin.
    EXPECT_NEAR(long_warm.bandwidthGBs / short_warm.bandwidthGBs, 1.0,
                0.05);
    EXPECT_EQ(short_warm.windowTicks, spec.window);
}

TEST(Experiment, RunGupsValidatesPortCount)
{
    SystemConfig cfg;
    GupsSpec spec;
    spec.activePorts = 0;
    EXPECT_THROW(runGups(cfg, spec), FatalError);
    spec.activePorts = cfg.host.numPorts + 1;
    EXPECT_THROW(runGups(cfg, spec), FatalError);
}

TEST(Experiment, RunGupsWritePortFraction)
{
    SystemConfig cfg;
    GupsSpec spec;
    spec.requestBytes = 64;
    spec.writePortFraction = 0.5;
    spec.warmup = 5 * kMicrosecond;
    spec.window = 10 * kMicrosecond;
    const ExperimentResult r = runGups(cfg, spec);
    EXPECT_GT(r.totalReads, 0u);
    EXPECT_GT(r.totalWrites, 0u);
}

TEST(Experiment, RunStreamVaultsOnePortPerVault)
{
    SystemConfig cfg;
    StreamVaultsSpec spec;
    spec.vaults = {0, 5, 9};
    spec.requestBytes = 32;
    spec.warmup = 3 * kMicrosecond;
    spec.window = 8 * kMicrosecond;
    const ExperimentResult r = runStreamVaults(cfg, spec);
    EXPECT_EQ(r.ports.size(), 3u);
    for (const PortStats &ps : r.ports)
        EXPECT_GT(ps.reads, 0u);
}

TEST(Experiment, RunStreamVaultsValidates)
{
    SystemConfig cfg;
    StreamVaultsSpec spec;
    EXPECT_THROW(runStreamVaults(cfg, spec), FatalError);  // no vaults
    spec.vaults.assign(cfg.host.numPorts + 1, 0);
    EXPECT_THROW(runStreamVaults(cfg, spec), FatalError);
}

TEST(Experiment, RunnersAreDeterministic)
{
    SystemConfig cfg;
    StreamBatchSpec spec;
    spec.batchSize = 10;
    spec.requestBytes = 64;
    spec.warmup = 3 * kMicrosecond;
    spec.window = 8 * kMicrosecond;
    const ExperimentResult a = runStreamBatch(cfg, spec);
    const ExperimentResult b = runStreamBatch(cfg, spec);
    EXPECT_EQ(a.totalReads, b.totalReads);
    EXPECT_DOUBLE_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
    // A different seed changes the address stream but not the shape.
    spec.seed = 999;
    const ExperimentResult c = runStreamBatch(cfg, spec);
    EXPECT_NEAR(c.avgReadLatencyNs / a.avgReadLatencyNs, 1.0, 0.25);
}

TEST(Experiment, AccessRateConsistentWithBandwidth)
{
    SystemConfig cfg;
    GupsSpec spec;
    spec.requestBytes = 128;
    spec.warmup = 5 * kMicrosecond;
    spec.window = 10 * kMicrosecond;
    const ExperimentResult r = runGups(cfg, spec);
    // accesses/s * 160 wire bytes == bandwidth.
    EXPECT_NEAR(r.accessesPerSec() * 160.0 / 1e9, r.bandwidthGBs, 0.01);
}

}  // namespace
}  // namespace hmcsim
