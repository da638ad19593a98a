/**
 * @file
 * Integration tests for the FPGA port models against a live system.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "host/system.h"

namespace hmcsim {
namespace {

class PortsTest : public ::testing::Test
{
  protected:
    PortsTest() : sys_(SystemConfig{}) {}

    static WorkloadSpec
    gupsParams(std::uint32_t bytes = 32)
    {
        WorkloadSpec w;
        w.requestBytes = bytes;
        w.seed = 9;
        return w;
    }

    /** Sequential @p n-record trace replay (the stream firmware). */
    static TrafficSourcePtr
    streamTrace(std::size_t n, std::uint32_t bytes = 32, bool loop = false)
    {
        return std::make_unique<TraceSource>(TraceSource::Params{
            makeStreamTrace(0, n, bytes, bytes), loop});
    }

    System sys_;
};

TEST_F(PortsTest, InactivePortGeneratesNothing)
{
    sys_.run(10 * kMicrosecond);
    for (PortId p = 0; p < sys_.fpga().numPorts(); ++p)
        EXPECT_EQ(sys_.port(p).issuedRequests(), 0u);
}

TEST_F(PortsTest, GupsPortRespectsTagLimit)
{
    WorkloadPort &port = sys_.configureWorkload(0, gupsParams());
    sys_.run(10 * kMicrosecond);
    EXPECT_LE(port.tags().peakInUse(),
              sys_.config().host.tagsPerPort);
    EXPECT_GT(port.tags().peakInUse(), 0u);
}

TEST_F(PortsTest, GupsDeactivationDrains)
{
    WorkloadPort &port = sys_.configureWorkload(0, gupsParams());
    sys_.run(10 * kMicrosecond);
    port.setActive(false);
    sys_.run(20 * kMicrosecond);
    EXPECT_TRUE(port.idle());
    EXPECT_EQ(port.tags().inUse(), 0u);
    EXPECT_EQ(port.monitor().accesses(), port.issuedRequests());
}

TEST_F(PortsTest, StreamPortFinishesFiniteTrace)
{
    sys_.configureWorkload(0, WorkloadSpec{}, streamTrace(64));
    EXPECT_TRUE(sys_.runUntilIdle(100 * kMicrosecond));
    EXPECT_EQ(sys_.port(0).monitor().reads(), 64u);
}

TEST_F(PortsTest, StreamPortHonoursWindow)
{
    WorkloadSpec w;
    w.window = 4;
    WorkloadPort &port =
        sys_.configureWorkload(0, w, streamTrace(5000, 32, true));
    sys_.run(5 * kMicrosecond);
    EXPECT_LE(port.inFlight(), 4u);
    EXPECT_GT(port.monitor().reads(), 10u);
}

TEST_F(PortsTest, StreamBatchesComplete)
{
    WorkloadSpec w;
    w.batchSize = 10;
    WorkloadPort &port =
        sys_.configureWorkload(0, w, streamTrace(4096, 32, true));
    sys_.run(30 * kMicrosecond);
    EXPECT_GT(port.batchesCompleted(), 10u);
    // Reads arrive in multiples of the batch size (plus the batch in
    // flight).
    EXPECT_GT(port.monitor().reads(), 100u);
}

TEST_F(PortsTest, StreamRecordDelaysThrottle)
{
    sys_.configureWorkload(0, WorkloadSpec{}, streamTrace(200));
    ASSERT_TRUE(sys_.runUntilIdle(1 * kMillisecond));
    const Tick fast_done = sys_.now();

    System slow_sys{SystemConfig{}};
    TraceSource::Params slow{makeStreamTrace(0, 200, 32, 32), false};
    for (auto &r : slow.trace)
        r.delayNs = 100;  // 100 ns between issues
    slow_sys.configureWorkload(
        0, WorkloadSpec{}, std::make_unique<TraceSource>(std::move(slow)));
    ASSERT_TRUE(slow_sys.runUntilIdle(1 * kMillisecond));
    EXPECT_GT(slow_sys.now(), fast_done);
    EXPECT_GE(slow_sys.now(), 200 * 100 * kNanosecond);
}

TEST_F(PortsTest, MixedPortTypesCoexist)
{
    sys_.configureWorkload(0, gupsParams(64));
    sys_.configureWorkload(1, WorkloadSpec{}, streamTrace(4096, 64, true));
    sys_.run(20 * kMicrosecond);
    EXPECT_GT(sys_.port(0).monitor().reads(), 100u);
    EXPECT_GT(sys_.port(1).monitor().reads(), 100u);
}

TEST_F(PortsTest, NinePortsShareFairly)
{
    for (PortId p = 0; p < 9; ++p) {
        WorkloadSpec w = gupsParams(32);
        w.seed = 100 + p;
        sys_.configureWorkload(p, w);
    }
    sys_.run(10 * kMicrosecond);
    sys_.resetStats();
    sys_.run(20 * kMicrosecond);
    std::uint64_t min_reads = ~0ull, max_reads = 0;
    for (PortId p = 0; p < 9; ++p) {
        const std::uint64_t r = sys_.port(p).monitor().reads();
        min_reads = std::min(min_reads, r);
        max_reads = std::max(max_reads, r);
    }
    EXPECT_GT(min_reads, 0u);
    // Round-robin arbitration keeps ports within ~25% of each other
    // (per-link rotation plus deterministic tick phasing leaves some
    // residual skew).
    EXPECT_LT(static_cast<double>(max_reads - min_reads),
              0.25 * static_cast<double>(max_reads));
}

TEST_F(PortsTest, MonitorBandwidthUsesPaperFormula)
{
    sys_.configureWorkload(0, gupsParams(32));
    sys_.run(10 * kMicrosecond);
    const Monitor &m = sys_.port(0).monitor();
    // Every 32 B read moves 16 B request + 48 B response on the wire.
    EXPECT_EQ(m.wireBytes(), m.reads() * 64u);
}

TEST_F(PortsTest, EmptyTraceIsFatal)
{
    EXPECT_THROW(sys_.configureWorkload(0, WorkloadSpec{},
                                        std::make_unique<TraceSource>(
                                            TraceSource::Params{})),
                 FatalError);
}

TEST_F(PortsTest, WritesInTraceProduceWrites)
{
    sys_.configureWorkload(
        0, WorkloadSpec{},
        std::make_unique<TraceSource>(TraceSource::Params{
            makeStreamTrace(0, 50, 64, 64, /*writes=*/true), false}));
    ASSERT_TRUE(sys_.runUntilIdle(200 * kMicrosecond));
    EXPECT_EQ(sys_.port(0).monitor().writes(), 50u);
    EXPECT_EQ(sys_.port(0).monitor().reads(), 0u);
}

}  // namespace
}  // namespace hmcsim
