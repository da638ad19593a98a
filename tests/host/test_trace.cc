#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "common/log.h"
#include "host/trace.h"

namespace hmcsim {
namespace {

TEST(Trace, ParseText)
{
    const Trace t = parseTraceText("# comment\n"
                                   "R 1000 32\n"
                                   "W 2000 64 10\n"
                                   "r 40 16\n");
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0].addr, 0x1000u);
    EXPECT_EQ(t[0].bytes, 32u);
    EXPECT_FALSE(t[0].isWrite);
    EXPECT_EQ(t[0].delayNs, 0u);
    EXPECT_TRUE(t[1].isWrite);
    EXPECT_EQ(t[1].delayNs, 10u);
    EXPECT_EQ(t[2].addr, 0x40u);
}

TEST(Trace, ParseErrors)
{
    EXPECT_THROW(parseTraceText("X 10 32\n"), FatalError);
    EXPECT_THROW(parseTraceText("R 10\n"), FatalError);
    EXPECT_THROW(parseTraceText("R zz 32\n"), FatalError);
    EXPECT_THROW(parseTraceText("R 10 32 5 extra\n"), FatalError);
}

TEST(Trace, TextRoundTrip)
{
    Trace t;
    t.push_back({0xDEAD00, 128, false, 0});
    t.push_back({0xBEEF00, 16, true, 42});
    const Trace back = parseTraceText(traceToText(t));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].addr, t[0].addr);
    EXPECT_EQ(back[1].bytes, t[1].bytes);
    EXPECT_EQ(back[1].isWrite, t[1].isWrite);
    EXPECT_EQ(back[1].delayNs, t[1].delayNs);
}

class TraceFileTest : public ::testing::Test
{
  protected:
    void TearDown() override { std::remove(path_.c_str()); }
    std::string path_ = "/tmp/hmcsim_trace_test.bin";
};

TEST_F(TraceFileTest, BinaryRoundTrip)
{
    Trace t;
    for (int i = 0; i < 100; ++i)
        t.push_back({static_cast<Addr>(i) * 128, 64, i % 3 == 0,
                     static_cast<std::uint32_t>(i)});
    saveTraceBinary(path_, t);
    const Trace back = loadTraceFile(path_);
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(back[i].addr, t[i].addr);
        EXPECT_EQ(back[i].bytes, t[i].bytes);
        EXPECT_EQ(back[i].isWrite, t[i].isWrite);
        EXPECT_EQ(back[i].delayNs, t[i].delayNs);
    }
}

TEST_F(TraceFileTest, TextFileAutodetected)
{
    Trace t;
    t.push_back({0x80, 32, false, 0});
    saveTraceText(path_, t);
    const Trace back = loadTraceFile(path_);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].addr, 0x80u);
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_THROW(loadTraceFile("/nonexistent/file.trc"), FatalError);
}

TEST(TraceGen, StreamTrace)
{
    const Trace t = makeStreamTrace(0x1000, 10, 64, 128);
    ASSERT_EQ(t.size(), 10u);
    EXPECT_EQ(t[0].addr, 0x1000u);
    EXPECT_EQ(t[1].addr, 0x1080u);
    EXPECT_EQ(t[9].addr, 0x1000u + 9 * 128);
    for (const auto &r : t)
        EXPECT_FALSE(r.isWrite);
}

TEST(TraceGen, RandomTraceRespectsPattern)
{
    Rng rng(5);
    // Confine to low 1 MB.
    const AddressPattern p{0xFFFFF, 0};
    const Trace t = makeRandomTrace(rng, p, 500, 32);
    ASSERT_EQ(t.size(), 500u);
    for (const auto &r : t) {
        EXPECT_LT(r.addr, 1u << 20);
        EXPECT_EQ(r.addr % 32, 0u);
        EXPECT_FALSE(r.isWrite);
    }
}

TEST(TraceGen, RandomTraceWriteFraction)
{
    Rng rng(6);
    const AddressPattern p{0xFFFFF, 0};
    const Trace t = makeRandomTrace(rng, p, 2000, 32, 0.5);
    int writes = 0;
    for (const auto &r : t)
        writes += r.isWrite;
    EXPECT_NEAR(writes, 1000, 120);
}

TEST(TraceGen, PointerChaseStaysInSpan)
{
    Rng rng(7);
    const Trace t = makePointerChaseTrace(rng, 0x100000, 1 << 16, 300, 64);
    ASSERT_EQ(t.size(), 300u);
    std::set<Addr> unique;
    for (const auto &r : t) {
        EXPECT_GE(r.addr, 0x100000u);
        EXPECT_LT(r.addr, 0x100000u + (1 << 16));
        EXPECT_EQ((r.addr - 0x100000) % 64, 0u);
        unique.insert(r.addr);
    }
    EXPECT_GT(unique.size(), 100u);  // actually walks around
}

TEST(TraceGen, PointerChaseTooSmallSpanIsFatal)
{
    Rng rng(8);
    EXPECT_THROW(makePointerChaseTrace(rng, 0, 32, 10, 64), FatalError);
}

}  // namespace
}  // namespace hmcsim
