/**
 * @file
 * Identity guarantees of the one port-configuration path: a port
 * declared through config keys equals the same configureWorkload()
 * call, a caller-built trace passed as a source override equals the
 * spec-generated trace, and the figure runners (runGups,
 * runStreamBatch, runStreamVaults) reproduce pinned results.  The
 * fig06-14 CSVs depend on this.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "host/experiment.h"
#include "host/system.h"

namespace hmcsim {
namespace {

void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.totalReads, b.totalReads);
    EXPECT_EQ(a.totalWrites, b.totalWrites);
    EXPECT_EQ(a.totalWireBytes, b.totalWireBytes);
    EXPECT_DOUBLE_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
    EXPECT_DOUBLE_EQ(a.minReadLatencyNs, b.minReadLatencyNs);
    EXPECT_DOUBLE_EQ(a.maxReadLatencyNs, b.maxReadLatencyNs);
    EXPECT_DOUBLE_EQ(a.stddevReadLatencyNs, b.stddevReadLatencyNs);
}

TEST(WorkloadIdentity, ConfigKeysMatchConfigureWorkload)
{
    // The Config-file route (host.workload_ports=1), configured at
    // System construction, against the same spec configured by hand.
    const SystemConfig base;
    System direct(base);
    WorkloadSpec w;
    w.requestBytes = 64;
    w.seed = 77;
    direct.configureWorkload(0, w);
    direct.run(5 * kMicrosecond);
    const ExperimentResult a = direct.measure(10 * kMicrosecond);

    Config cfg;
    base.toConfig(cfg);
    cfg.parseString("[host]\n"
                    "workload_ports = 1\n"
                    "workload = gups\n"
                    "workload.request_bytes = 64\n"
                    "workload.seed = 77\n");
    System declared(SystemConfig::fromConfig(cfg));
    declared.run(5 * kMicrosecond);
    const ExperimentResult b = declared.measure(10 * kMicrosecond);

    expectIdentical(a, b);
}

TEST(WorkloadIdentity, TraceOverrideMatchesSpecTrace)
{
    const SystemConfig cfg;

    // A caller-built trace through the source override...
    System built(cfg);
    Rng rng(314);
    WorkloadPort &port = built.configureWorkload(
        0, WorkloadSpec{},
        std::make_unique<TraceSource>(TraceSource::Params{makeRandomTrace(
            rng, built.addressMap().pattern(16, 16), 2048, 32)}));
    // ...selects the stream firmware from the source alone.
    EXPECT_EQ(port.tags().capacity(), cfg.host.streamWindow);
    built.run(5 * kMicrosecond);
    const ExperimentResult a = built.measure(10 * kMicrosecond);

    // The spec generates the same trace from the same seed, pattern
    // and length, so the replay must be identical.
    System generated(cfg);
    WorkloadSpec w;
    w.type = "trace";
    w.requestBytes = 32;
    w.traceLength = 2048;
    w.seed = 314;
    generated.configureWorkload(0, w);
    generated.run(5 * kMicrosecond);
    const ExperimentResult b = generated.measure(10 * kMicrosecond);

    expectIdentical(a, b);
}

TEST(WorkloadIdentity, FigureRunnersMatchPinnedResults)
{
    // Pinned small-window results of the runners behind Figs. 6-12:
    // any drift here moves a figure CSV.
    GupsSpec g;
    g.requestBytes = 64;
    g.numVaults = 8;
    g.baseVault = 8;
    g.writePortFraction = 0.25;
    g.warmup = 2 * kMicrosecond;
    g.window = 5 * kMicrosecond;
    g.seed = 3;
    const ExperimentResult gups = runGups(SystemConfig{}, g);
    EXPECT_EQ(gups.totalReads, 726u);
    EXPECT_DOUBLE_EQ(gups.avgReadLatencyNs, 2470.0024931129474);

    StreamBatchSpec b;
    b.batchSize = 8;
    b.vault = 3;
    b.numBanks = 4;
    b.warmup = 2 * kMicrosecond;
    b.window = 5 * kMicrosecond;
    const ExperimentResult batch = runStreamBatch(SystemConfig{}, b);
    EXPECT_EQ(batch.totalReads, 168u);
    EXPECT_DOUBLE_EQ(batch.avgReadLatencyNs, 763.25963690476192);

    StreamVaultsSpec v;
    v.vaults = {0, 5, 9};
    v.requestBytes = 64;
    v.warmup = 2 * kMicrosecond;
    v.window = 5 * kMicrosecond;
    const ExperimentResult vaults = runStreamVaults(SystemConfig{}, v);
    EXPECT_EQ(vaults.totalReads, 561u);
    EXPECT_DOUBLE_EQ(vaults.avgReadLatencyNs, 2500.5443101604269);
}

TEST(WorkloadIdentity, RmwChainsSurviveTheRefactor)
{
    const SystemConfig cfg;
    System sys(cfg);
    WorkloadSpec w;
    w.type = "gups";
    w.kind = ReqKind::ReadModifyWrite;
    w.seed = 5;
    sys.configureWorkload(0, w);
    sys.run(10 * kMicrosecond);
    const Monitor &m = sys.port(0).monitor();
    EXPECT_GT(m.reads(), 100u);
    EXPECT_GT(m.writes(), 100u);
    EXPECT_LE(m.writes(), m.reads());
}

TEST(WorkloadIdentity, RunnersStayDeterministic)
{
    WorkloadRunSpec spec;
    spec.workload.type = "zipf";
    spec.workload.inject = "open";
    spec.workload.ratePerNs = 0.02;
    spec.activePorts = 2;
    spec.warmup = 3 * kMicrosecond;
    spec.window = 8 * kMicrosecond;
    const ExperimentResult a = runWorkload(SystemConfig{}, spec);
    const ExperimentResult b = runWorkload(SystemConfig{}, spec);
    EXPECT_EQ(a.totalReads, b.totalReads);
    EXPECT_DOUBLE_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
}

TEST(WorkloadIdentity, MixedSeedsDecorrelatePorts)
{
    // Two ports driven from the same base seed must not issue the
    // same address stream (the old "seed + portId" hazard).
    const SystemConfig cfg;
    System sys(cfg);
    for (PortId p = 0; p < 2; ++p) {
        WorkloadSpec w;
        w.type = "gups";
        w.seed = mixSeeds(1, p);
        sys.configureWorkload(p, w);
    }
    sys.run(5 * kMicrosecond);
    // Statistically indistinguishable load, different streams: both
    // ports progressed, and their byte counters differ slightly (the
    // arbiters interleave distinct addresses).
    EXPECT_GT(sys.port(0).monitor().reads(), 100u);
    EXPECT_GT(sys.port(1).monitor().reads(), 100u);
}

}  // namespace
}  // namespace hmcsim
