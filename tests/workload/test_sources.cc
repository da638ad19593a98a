/**
 * @file
 * Unit tests for the TrafficSource catalogue: sequences, confinement,
 * empirical Zipf skew, burst gaps and phase switching; and that the
 * address pattern alone bounds generated addresses, so a whole-chain
 * pattern reaches every cube.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/log.h"
#include "hmc/address_map.h"
#include "host/workload/sources.h"

namespace hmcsim {
namespace {

WorkloadRequest
pull(TrafficSource &src, Tick now = 0)
{
    WorkloadRequest r;
    EXPECT_TRUE(src.next(now, r));
    return r;
}

TEST(GupsSource, MatchesSeedAddrGen)
{
    GupsAddrGen::Params gp;
    gp.mode = AddrMode::Random;
    gp.pattern = AddressPattern{(4ull << 30) - 1, 0};
    gp.requestBytes = 64;
    gp.seed = 42;

    GupsAddrGen gen(gp);
    GupsSource::Params sp;
    sp.gen = gp;
    GupsSource src(sp);
    for (int i = 0; i < 1000; ++i) {
        const WorkloadRequest r = pull(src);
        EXPECT_EQ(r.addr, gen.next());
        EXPECT_EQ(r.bytes, 64u);
        EXPECT_FALSE(r.isWrite);
        EXPECT_EQ(r.delayNs, 0u);
    }
}

TEST(StrideSource, WalksAndWrapsSpan)
{
    StrideSource::Params p;
    p.base = 0x1000;
    p.strideBytes = 256;
    p.requestBytes = 64;
    p.spanBytes = 1024;  // wraps after four strides
    StrideSource src(p);
    EXPECT_EQ(pull(src).addr, 0x1000u);
    EXPECT_EQ(pull(src).addr, 0x1100u);
    EXPECT_EQ(pull(src).addr, 0x1200u);
    EXPECT_EQ(pull(src).addr, 0x1300u);
    EXPECT_EQ(pull(src).addr, 0x1000u);  // wrapped
}

TEST(StrideSource, FiniteCountExhausts)
{
    StrideSource::Params p;
    p.count = 3;
    StrideSource src(p);
    WorkloadRequest r;
    EXPECT_TRUE(src.next(0, r));
    EXPECT_TRUE(src.next(0, r));
    EXPECT_TRUE(src.next(0, r));
    EXPECT_FALSE(src.next(0, r));
    EXPECT_FALSE(src.next(0, r));  // exhaustion is permanent
}

TEST(StrideSource, RejectsNonPow2)
{
    StrideSource::Params p;
    p.requestBytes = 48;
    EXPECT_THROW(StrideSource{p}, FatalError);
    p = StrideSource::Params{};
    p.spanBytes = 1000;
    EXPECT_THROW(StrideSource{p}, FatalError);
}

TEST(ZipfSource, EmpiricalTargetSkewMatchesTheta)
{
    const HmcConfig hmc;
    const AddressMap map(hmc);
    ZipfSource::Params p;
    for (VaultId v = 0; v < 16; ++v)
        p.targets.push_back(map.vaultPattern(v));
    p.theta = 0.99;
    p.requestBytes = 32;
    p.seed = 7;
    ZipfSource src(p);

    const int n = 200000;
    std::map<VaultId, int> hits;
    for (int i = 0; i < n; ++i)
        ++hits[map.decode(pull(src).addr).vault];

    // Ranked frequencies must follow the Zipf pmf within sampling
    // noise: the hottest vault near p(0), monotone-ish decay, and a
    // heavy head (vault 0 ~ 27% at theta=0.99 over 16 targets).
    const double f0 = static_cast<double>(hits[0]) / n;
    const double f1 = static_cast<double>(hits[1]) / n;
    const double f15 = static_cast<double>(hits[15]) / n;
    EXPECT_NEAR(f0, src.targetProbability(0), 0.01);
    EXPECT_NEAR(f1, src.targetProbability(1), 0.01);
    EXPECT_NEAR(f15, src.targetProbability(15), 0.01);
    EXPECT_GT(f0, 2.5 * f1 * 0.7);  // ~2^0.99 ratio, loose
    EXPECT_GT(f1, f15);
}

TEST(ZipfSource, ThetaZeroIsUniform)
{
    const HmcConfig hmc;
    const AddressMap map(hmc);
    ZipfSource::Params p;
    for (VaultId v = 0; v < 16; ++v)
        p.targets.push_back(map.vaultPattern(v));
    p.theta = 0.0;
    ZipfSource src(p);
    std::map<VaultId, int> hits;
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++hits[map.decode(pull(src).addr).vault];
    for (VaultId v = 0; v < 16; ++v)
        EXPECT_NEAR(hits[v], n / 16, n / 16 * 0.15);
}

TEST(ZipfSource, HotItemsConcentrateBlocks)
{
    const HmcConfig hmc;
    const AddressMap map(hmc);
    ZipfSource::Params p;
    p.targets.push_back(AddressPattern{map.totalCapacity() - 1, 0});
    p.theta = 0.9;
    p.hotItems = 64;
    p.requestBytes = 32;
    ZipfSource src(p);
    std::map<Addr, int> hits;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++hits[pull(src).addr];
    // At most hotItems distinct addresses, and the top one clearly
    // hotter than the uniform share.
    EXPECT_LE(hits.size(), 64u);
    int top = 0;
    for (const auto &[addr, count] : hits)
        top = std::max(top, count);
    EXPECT_GT(top, 3 * n / 64);
}

TEST(ZipfSource, RejectsBadTheta)
{
    ZipfSource::Params p;
    p.targets.push_back(AddressPattern{0xFFFF, 0});
    p.theta = 1.0;
    EXPECT_THROW(ZipfSource{p}, FatalError);
}

TEST(OnOffSource, InsertsGapEveryBurst)
{
    StrideSource::Params ip;
    ip.strideBytes = 64;
    OnOffSource::Params p;
    p.inner = std::make_unique<StrideSource>(ip);
    p.burstLen = 4;
    p.gapNs = 500;
    OnOffSource src(std::move(p));
    for (int burst = 0; burst < 5; ++burst) {
        for (int i = 0; i < 4; ++i) {
            const WorkloadRequest r = pull(src);
            if (burst > 0 && i == 0)
                EXPECT_EQ(r.delayNs, 500u);  // burst boundary
            else
                EXPECT_EQ(r.delayNs, 0u);
        }
    }
}

TEST(OnOffSource, PropagatesInnerExhaustion)
{
    StrideSource::Params ip;
    ip.count = 2;
    OnOffSource::Params p;
    p.inner = std::make_unique<StrideSource>(ip);
    OnOffSource src(std::move(p));
    WorkloadRequest r;
    EXPECT_TRUE(src.next(0, r));
    EXPECT_TRUE(src.next(0, r));
    EXPECT_FALSE(src.next(0, r));
}

TEST(TraceSource, ReplaysThenLoops)
{
    TraceSource::Params p;
    p.trace = makeStreamTrace(0, 4, 32, 32);
    p.loop = true;
    TraceSource src(std::move(p));
    for (int lap = 0; lap < 3; ++lap)
        for (Addr a = 0; a < 4 * 32; a += 32)
            EXPECT_EQ(pull(src).addr, a);
}

TEST(TraceSource, NoLoopExhausts)
{
    TraceSource::Params p;
    p.trace = makeStreamTrace(0, 2, 32, 32);
    p.loop = false;
    TraceSource src(std::move(p));
    WorkloadRequest r;
    EXPECT_TRUE(src.next(0, r));
    EXPECT_TRUE(src.next(0, r));
    EXPECT_FALSE(src.next(0, r));
}

TEST(TraceSource, EmptyTraceIsFatal)
{
    TraceSource::Params p;
    EXPECT_THROW(TraceSource{std::move(p)}, FatalError);
}

TEST(MixSource, SwitchesPhasesOnTickBoundaries)
{
    StrideSource::Params a;
    a.base = 0;
    a.strideBytes = 64;
    StrideSource::Params b;
    b.base = 1ull << 20;
    b.strideBytes = 64;
    MixSource::Params p;
    p.phases.push_back({std::make_unique<StrideSource>(a),
                        1 * kMicrosecond});
    p.phases.push_back({std::make_unique<StrideSource>(b),
                        1 * kMicrosecond});
    p.loop = true;
    MixSource src(std::move(p));

    EXPECT_LT(pull(src, 0).addr, 1ull << 20);
    EXPECT_EQ(src.currentPhase(), 0u);
    EXPECT_GE(pull(src, 1 * kMicrosecond + 1).addr, 1ull << 20);
    EXPECT_EQ(src.currentPhase(), 1u);
    // Loops back to phase 0 after the second boundary.
    EXPECT_LT(pull(src, 2 * kMicrosecond + 2).addr, 1ull << 20);
    EXPECT_EQ(src.currentPhase(), 0u);
}

TEST(MixSource, NoLoopFinishesAfterLastPhase)
{
    StrideSource::Params a;
    MixSource::Params p;
    p.phases.push_back({std::make_unique<StrideSource>(a),
                        1 * kMicrosecond});
    p.loop = false;
    MixSource src(std::move(p));
    WorkloadRequest r;
    EXPECT_TRUE(src.next(0, r));
    EXPECT_FALSE(src.next(5 * kMicrosecond, r));
}

// ----- the address pattern alone says where addresses fall -----

/** 8-cube cube_high map: the cube field sits above the 4 GB cube. */
AddressMap
eightCubeMap()
{
    HmcConfig hmc;
    hmc.chain.numCubes = 8;
    hmc.chain.interleave = "cube_high";
    return AddressMap(hmc);
}

std::size_t
cubesHit(const AddressMap &map, const std::vector<Addr> &addrs)
{
    std::set<CubeId> cubes;
    for (Addr a : addrs)
        cubes.insert(map.decodeCube(a));
    return cubes.size();
}

TEST(PatternBounds, GupsReachesEveryCube)
{
    const AddressMap map = eightCubeMap();
    GupsSource::Params p;
    p.gen.pattern = map.pattern(16, 16);
    GupsAddrGen gen(p.gen);
    GupsSource src(p);
    std::vector<Addr> from_gen, from_src;
    for (int i = 0; i < 2000; ++i) {
        from_gen.push_back(gen.next());
        from_src.push_back(pull(src).addr);
    }
    EXPECT_EQ(cubesHit(map, from_gen), 8u);
    EXPECT_EQ(cubesHit(map, from_src), 8u);
}

TEST(PatternBounds, ZipfReachesEveryCube)
{
    const AddressMap map = eightCubeMap();
    ZipfSource::Params p;
    p.targets.push_back(map.pattern(16, 16));
    ZipfSource uniform(p);
    p.hotItems = 1024;
    ZipfSource hot(p);
    std::vector<Addr> from_uniform, from_hot;
    for (int i = 0; i < 2000; ++i) {
        from_uniform.push_back(pull(uniform).addr);
        from_hot.push_back(pull(hot).addr);
    }
    EXPECT_EQ(cubesHit(map, from_uniform), 8u);
    EXPECT_EQ(cubesHit(map, from_hot), 8u);
}

TEST(PatternBounds, RandomTraceReachesEveryCube)
{
    const AddressMap map = eightCubeMap();
    Rng rng(3);
    std::vector<Addr> addrs;
    for (const TraceRecord &r : makeRandomTrace(rng, map.pattern(16, 16),
                                                2000, 32))
        addrs.push_back(r.addr);
    EXPECT_EQ(cubesHit(map, addrs), 8u);
}

}  // namespace
}  // namespace hmcsim
