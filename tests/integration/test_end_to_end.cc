/**
 * @file
 * Whole-stack integration tests: GUPS and stream traffic through the
 * FPGA model, links, NoC, vault controllers, and DRAM, validating the
 * paper's headline behaviours end to end.
 */

#include <gtest/gtest.h>

#include "host/experiment.h"
#include "host/system.h"

namespace hmcsim {
namespace {

SystemConfig
fastCfg()
{
    SystemConfig cfg;
    // Keep defaults (paper hardware) but short RNG-independent runs
    // are configured per test.
    return cfg;
}

TEST(EndToEnd, GupsReadOnlyReachesPaperCeiling128B)
{
    GupsSpec spec;
    spec.requestBytes = 128;
    spec.warmup = 10 * kMicrosecond;
    spec.window = 20 * kMicrosecond;
    const ExperimentResult r = runGups(fastCfg(), spec);
    EXPECT_GT(r.bandwidthGBs, 20.0);
    EXPECT_LT(r.bandwidthGBs, 26.0);
    EXPECT_GT(r.totalReads, 1000u);
    EXPECT_EQ(r.totalWrites, 0u);
}

TEST(EndToEnd, SmallRequestsWasteBandwidth)
{
    GupsSpec spec;
    spec.warmup = 10 * kMicrosecond;
    spec.window = 20 * kMicrosecond;
    spec.requestBytes = 16;
    const double bw16 = runGups(fastCfg(), spec).bandwidthGBs;
    spec.requestBytes = 128;
    const double bw128 = runGups(fastCfg(), spec).bandwidthGBs;
    // Section IV-A: large packets always utilize bandwidth better.
    EXPECT_GT(bw128, 1.8 * bw16);
}

TEST(EndToEnd, LargeRequestsPayLatency)
{
    GupsSpec spec;
    spec.warmup = 10 * kMicrosecond;
    spec.window = 20 * kMicrosecond;
    spec.requestBytes = 16;
    const double lat16 = runGups(fastCfg(), spec).avgReadLatencyNs;
    spec.requestBytes = 128;
    const double lat128 = runGups(fastCfg(), spec).avgReadLatencyNs;
    EXPECT_GT(lat128, lat16);
}

TEST(EndToEnd, OneVaultCapsNearTenGBs)
{
    GupsSpec spec;
    spec.requestBytes = 32;
    spec.numVaults = 1;
    spec.numBanks = 16;
    spec.warmup = 10 * kMicrosecond;
    spec.window = 20 * kMicrosecond;
    const ExperimentResult r = runGups(fastCfg(), spec);
    EXPECT_NEAR(r.bandwidthGBs, 10.0, 1.5);
}

TEST(EndToEnd, SingleBankIsWorstCase)
{
    GupsSpec spec;
    spec.requestBytes = 32;
    spec.numVaults = 1;
    spec.numBanks = 1;
    spec.warmup = 10 * kMicrosecond;
    spec.window = 20 * kMicrosecond;
    const ExperimentResult r = runGups(fastCfg(), spec);
    // Paper: ~2 GB/s for 32 B single-bank accesses.
    EXPECT_NEAR(r.bandwidthGBs, 2.0, 0.4);
    // And latency an order of magnitude above the distributed case.
    EXPECT_GT(r.avgReadLatencyNs, 5000.0);
}

TEST(EndToEnd, BandwidthOrderingAcrossPatterns)
{
    GupsSpec spec;
    spec.requestBytes = 64;
    spec.warmup = 5 * kMicrosecond;
    spec.window = 15 * kMicrosecond;
    std::vector<double> bw;
    for (std::uint32_t banks : {1u, 2u, 4u, 8u}) {
        spec.numVaults = 1;
        spec.numBanks = banks;
        bw.push_back(runGups(fastCfg(), spec).bandwidthGBs);
    }
    spec.numVaults = 16;
    spec.numBanks = 16;
    bw.push_back(runGups(fastCfg(), spec).bandwidthGBs);
    for (std::size_t i = 1; i < bw.size(); ++i)
        EXPECT_GT(bw[i], bw[i - 1] * 0.99) << "pattern step " << i;
}

TEST(EndToEnd, LowLoadFloorNearPaper)
{
    StreamBatchSpec spec;
    spec.batchSize = 1;
    spec.requestBytes = 16;
    spec.warmup = 5 * kMicrosecond;
    spec.window = 20 * kMicrosecond;
    const ExperimentResult r = runStreamBatch(fastCfg(), spec);
    // ~0.7 us: 547 ns infrastructure + 100-180 ns in-cube.
    EXPECT_NEAR(r.avgReadLatencyNs, 700.0, 120.0);
}

TEST(EndToEnd, LatencyGrowsLinearlyThenSaturates)
{
    SystemConfig cfg = fastCfg();
    StreamBatchSpec spec;
    spec.requestBytes = 128;
    spec.warmup = 5 * kMicrosecond;
    spec.window = 20 * kMicrosecond;
    spec.batchSize = 1;
    const double l1 = runStreamBatch(cfg, spec).avgReadLatencyNs;
    spec.batchSize = 40;
    const double l40 = runStreamBatch(cfg, spec).avgReadLatencyNs;
    spec.batchSize = 200;
    const double l200 = runStreamBatch(cfg, spec).avgReadLatencyNs;
    spec.batchSize = 340;
    const double l340 = runStreamBatch(cfg, spec).avgReadLatencyNs;
    EXPECT_GT(l40, l1 * 1.3);       // linear growth region
    EXPECT_GT(l200, l40);
    EXPECT_NEAR(l340 / l200, 1.0, 0.12);  // saturated region is flat
}

TEST(EndToEnd, ResponsesMatchRequests)
{
    SystemConfig cfg = fastCfg();
    System sys(cfg);
    WorkloadSpec w;
    w.requestBytes = 64;
    w.seed = 1;
    sys.configureWorkload(0, w);
    sys.run(20 * kMicrosecond);
    sys.port(0).setActive(false);
    sys.run(20 * kMicrosecond);  // drain
    const std::uint64_t sent = sys.fpga().controller().requestsSent();
    const std::uint64_t recv =
        sys.fpga().controller().responsesDelivered();
    EXPECT_GT(sent, 0u);
    EXPECT_EQ(sent, recv);  // nothing lost anywhere in the stack
    EXPECT_EQ(sys.device().totalRequestsServed(), sent);
}

TEST(EndToEnd, WriteOnlyTrafficWorks)
{
    GupsSpec spec;
    spec.kind = ReqKind::WriteOnly;
    spec.requestBytes = 64;
    spec.warmup = 5 * kMicrosecond;
    spec.window = 15 * kMicrosecond;
    const ExperimentResult r = runGups(fastCfg(), spec);
    EXPECT_GT(r.totalWrites, 500u);
    EXPECT_EQ(r.totalReads, 0u);
    EXPECT_GT(r.bandwidthGBs, 5.0);
}

TEST(EndToEnd, ReadModifyWriteProducesBoth)
{
    SystemConfig cfg = fastCfg();
    System sys(cfg);
    WorkloadSpec w;
    w.kind = ReqKind::ReadModifyWrite;
    w.seed = 1;
    sys.configureWorkload(0, w);
    sys.run(20 * kMicrosecond);
    const Monitor &m = sys.port(0).monitor();
    EXPECT_GT(m.reads(), 100u);
    EXPECT_GT(m.writes(), 100u);
    // Every write follows a read of the same location.
    EXPECT_LE(m.writes(), m.reads());
}

TEST(EndToEnd, CrcErrorsDegradeButDoNotBreak)
{
    // The links have ~30% serializer headroom over the deserializer
    // ceiling, so mild error rates are absorbed invisibly (retries
    // only shift where the closed-loop population queues).  Past that
    // headroom the retry traffic must eat into throughput.
    SystemConfig cfg = fastCfg();
    GupsSpec spec;
    spec.requestBytes = 128;
    spec.warmup = 5 * kMicrosecond;
    spec.window = 15 * kMicrosecond;
    const ExperimentResult clean = runGups(cfg, spec);
    cfg.hmc.crcErrorProb = 0.45;
    cfg.hmc.retryDelay = 400 * kNanosecond;
    const ExperimentResult noisy = runGups(cfg, spec);
    EXPECT_GT(noisy.totalReads, 500u);  // still functional, no losses
    EXPECT_LT(noisy.bandwidthGBs, 0.95 * clean.bandwidthGBs);

    // At low load the retry delay shows up directly in the floor.
    StreamBatchSpec one;
    one.batchSize = 1;
    one.requestBytes = 64;
    one.warmup = 5 * kMicrosecond;
    one.window = 15 * kMicrosecond;
    const double clean_floor =
        runStreamBatch(fastCfg(), one).avgReadLatencyNs;
    SystemConfig noisy_cfg = fastCfg();
    noisy_cfg.hmc.crcErrorProb = 0.4;
    noisy_cfg.hmc.retryDelay = 400 * kNanosecond;
    const double noisy_floor =
        runStreamBatch(noisy_cfg, one).avgReadLatencyNs;
    EXPECT_GT(noisy_floor, clean_floor + 50.0);
}

TEST(EndToEnd, DeterministicAcrossRuns)
{
    GupsSpec spec;
    spec.requestBytes = 64;
    spec.warmup = 5 * kMicrosecond;
    spec.window = 10 * kMicrosecond;
    const ExperimentResult a = runGups(fastCfg(), spec);
    const ExperimentResult b = runGups(fastCfg(), spec);
    EXPECT_EQ(a.totalReads, b.totalReads);
    EXPECT_DOUBLE_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
    EXPECT_DOUBLE_EQ(a.bandwidthGBs, b.bandwidthGBs);
}

TEST(EndToEnd, RefreshStealsBandwidth)
{
    SystemConfig cfg = fastCfg();
    GupsSpec spec;
    spec.requestBytes = 32;
    spec.numVaults = 1;
    spec.numBanks = 16;
    spec.warmup = 5 * kMicrosecond;
    spec.window = 15 * kMicrosecond;
    const double clean = runGups(cfg, spec).bandwidthGBs;
    cfg.hmc.trefi = 2 * kMicrosecond;  // aggressive refresh
    const double refreshed = runGups(cfg, spec).bandwidthGBs;
    EXPECT_LT(refreshed, clean);
    EXPECT_GT(refreshed, 0.5 * clean);
}

}  // namespace
}  // namespace hmcsim
