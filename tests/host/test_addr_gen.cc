#include <gtest/gtest.h>

#include <set>

#include "common/log.h"
#include "host/addr_gen.h"

namespace hmcsim {
namespace {

GupsAddrGen::Params
base()
{
    GupsAddrGen::Params p;
    p.mode = AddrMode::Random;
    p.pattern = AddressPattern{(4ull << 30) - 1, 0};
    p.requestBytes = 32;
    p.seed = 42;
    return p;
}

TEST(AddrGen, AlignedToRequestSize)
{
    for (std::uint32_t size : {16u, 32u, 64u, 128u}) {
        GupsAddrGen::Params p = base();
        p.requestBytes = size;
        GupsAddrGen gen(p);
        for (int i = 0; i < 200; ++i)
            EXPECT_EQ(gen.next() % size, 0u) << "size " << size;
    }
}

TEST(AddrGen, StaysWithinCapacity)
{
    GupsAddrGen gen(base());
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(gen.next(), 4ull << 30);
}

TEST(AddrGen, DeterministicPerSeed)
{
    GupsAddrGen a(base()), b(base());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(AddrGen, ReseedRestarts)
{
    GupsAddrGen gen(base());
    const Addr first = gen.next();
    gen.next();
    gen.reseed(42);
    EXPECT_EQ(gen.next(), first);
}

TEST(AddrGen, RandomSpreads)
{
    GupsAddrGen gen(base());
    std::set<Addr> seen;
    for (int i = 0; i < 100; ++i)
        seen.insert(gen.next());
    EXPECT_GT(seen.size(), 95u);
}

TEST(AddrGen, LinearWalksSequentially)
{
    GupsAddrGen::Params p = base();
    p.mode = AddrMode::Linear;
    p.requestBytes = 64;
    GupsAddrGen gen(p);
    EXPECT_EQ(gen.next(), 0u);
    EXPECT_EQ(gen.next(), 64u);
    EXPECT_EQ(gen.next(), 128u);
}

TEST(AddrGen, LinearWrapsAtPatternMask)
{
    GupsAddrGen::Params p = base();
    p.mode = AddrMode::Linear;
    p.pattern = AddressPattern{255, 0};
    p.requestBytes = 64;
    GupsAddrGen gen(p);
    gen.next();
    gen.next();
    gen.next();
    gen.next();
    EXPECT_EQ(gen.next(), 0u);  // wrapped
}

TEST(AddrGen, PatternMaskApplied)
{
    // Pin everything except the low 20 bits.
    GupsAddrGen::Params p = base();
    p.pattern = AddressPattern{0xFFFFF, 0x40000000};
    GupsAddrGen gen(p);
    for (int i = 0; i < 200; ++i) {
        const Addr a = gen.next();
        EXPECT_EQ(a & ~0xFFFFFull, 0x40000000u);
    }
}

TEST(AddrGen, BadRequestSizeIsFatal)
{
    GupsAddrGen::Params p = base();
    p.requestBytes = 48;
    EXPECT_THROW(GupsAddrGen{p}, FatalError);
}

}  // namespace
}  // namespace hmcsim
