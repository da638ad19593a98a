#include "host/addr_gen.h"

#include "common/bitutil.h"
#include "common/log.h"

namespace hmcsim {

GupsAddrGen::GupsAddrGen(const Params &params)
    : params_(params), rng_(params.seed)
{
    if (!isPow2(params_.requestBytes))
        fatal("GupsAddrGen: request size must be a power of two");
    alignMask_ = ~static_cast<Addr>(params_.requestBytes - 1);
}

Addr
GupsAddrGen::next()
{
    // The pattern's mask alone bounds the address (and wraps the
    // linear walk); map.pattern() masks never exceed the capacity.
    Addr raw;
    if (params_.mode == AddrMode::Random) {
        raw = rng_.next();
    } else {
        raw = linearCounter_ * params_.requestBytes;
        ++linearCounter_;
    }
    return params_.pattern.apply(raw) & alignMask_;
}

void
GupsAddrGen::reseed(std::uint64_t seed)
{
    rng_.seed(seed);
    linearCounter_ = 0;
}

}  // namespace hmcsim
