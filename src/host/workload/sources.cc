#include "host/workload/sources.h"

#include <algorithm>
#include <cmath>

#include "common/bitutil.h"
#include "common/log.h"

namespace hmcsim {

// ---------------------------------------------------------------- GUPS --

GupsSource::GupsSource(const Params &params)
    : params_(params), gen_(params.gen),
      writeRng_(mixSeeds(params.gen.seed, 0x77u))
{
    if (params_.writeFraction < 0.0 || params_.writeFraction > 1.0)
        fatal("GupsSource: write fraction outside [0, 1]");
}

bool
GupsSource::next(Tick, WorkloadRequest &out)
{
    out.addr = gen_.next();
    out.bytes = gen_.requestBytes();
    // Short-circuit keeps the draw sequence identical to the seed
    // GupsPort when the fraction is 0.
    out.isWrite =
        params_.writeFraction > 0.0 && writeRng_.nextBool(params_.writeFraction);
    out.delayNs = 0;
    return true;
}

// -------------------------------------------------------------- Stride --

StrideSource::StrideSource(const Params &params)
    : params_(params), rng_(mixSeeds(params.seed, 0x57u))
{
    if (!isPow2(params_.requestBytes))
        fatal("StrideSource: request size must be a power of two");
    if (!isPow2(params_.spanBytes))
        fatal("StrideSource: span must be a power of two");
    if (params_.strideBytes == 0)
        fatal("StrideSource: zero stride");
    if (params_.writeFraction < 0.0 || params_.writeFraction > 1.0)
        fatal("StrideSource: write fraction outside [0, 1]");
    alignMask_ = ~static_cast<Addr>(params_.requestBytes - 1);
}

bool
StrideSource::next(Tick, WorkloadRequest &out)
{
    if (params_.count != 0 && issued_ >= params_.count)
        return false;
    const std::uint64_t offset =
        (issued_ * params_.strideBytes) & (params_.spanBytes - 1);
    out.addr = (params_.base + offset) & alignMask_;
    out.bytes = params_.requestBytes;
    out.isWrite = params_.writeFraction > 0.0 &&
        rng_.nextBool(params_.writeFraction);
    out.delayNs = 0;
    ++issued_;
    return true;
}

// ---------------------------------------------------------------- Zipf --

void
ZipfSource::ZipfGen::init(std::uint64_t items, double skew)
{
    if (items == 0)
        panic("ZipfGen: zero items");
    n = items;
    theta = skew;
    if (theta == 0.0)
        return;  // uniform; draw() takes the fast path
    zetan = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    rank1Threshold = 1.0 + std::pow(0.5, theta);
    alpha = 1.0 / (1.0 - theta);
    eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
        (1.0 - rank1Threshold / zetan);
}

std::uint64_t
ZipfSource::ZipfGen::draw(Rng &rng) const
{
    if (n == 1)
        return 0;  // no randomness consumed
    if (theta == 0.0)
        return rng.nextBelow(n);
    const double u = rng.nextDouble();
    const double uz = u * zetan;
    if (uz < 1.0)
        return 0;
    if (uz < rank1Threshold)
        return 1;
    const std::uint64_t rank = static_cast<std::uint64_t>(
        static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
    return std::min(rank, n - 1);
}

ZipfSource::ZipfSource(const Params &params)
    : params_(params), rng_(mixSeeds(params.seed, 0x21u))
{
    if (params_.targets.empty())
        fatal("ZipfSource: no target patterns");
    if (params_.theta < 0.0 || params_.theta >= 1.0)
        fatal("ZipfSource: theta must be in [0, 1)");
    if (!isPow2(params_.requestBytes))
        fatal("ZipfSource: request size must be a power of two");
    if (params_.writeFraction < 0.0 || params_.writeFraction > 1.0)
        fatal("ZipfSource: write fraction outside [0, 1]");
    if (params_.hotItems > (1ull << 26))
        fatal("ZipfSource: hot item count too large (zeta precompute)");
    alignMask_ = ~static_cast<Addr>(params_.requestBytes - 1);
    targetGen_.init(params_.targets.size(), params_.theta);
    if (params_.hotItems > 0)
        itemGen_.init(params_.hotItems, params_.theta);
}

double
ZipfSource::targetProbability(std::size_t rank) const
{
    if (rank >= params_.targets.size())
        return 0.0;
    if (params_.theta == 0.0)
        return 1.0 / static_cast<double>(params_.targets.size());
    return 1.0 /
        (std::pow(static_cast<double>(rank + 1), params_.theta) *
         targetGen_.zetan);
}

bool
ZipfSource::next(Tick, WorkloadRequest &out)
{
    const std::uint64_t t = targetGen_.draw(rng_);
    const AddressPattern &target = params_.targets[t];
    std::uint64_t raw;
    if (params_.hotItems > 0) {
        // Hash the item rank so hot blocks spread over rows/banks
        // instead of sitting adjacent; the mapping is fixed per rank.
        std::uint64_t state =
            itemGen_.draw(rng_) ^ (params_.seed * 0x9E3779B97F4A7C15ull);
        raw = splitmix64(state);
    } else {
        raw = rng_.next();
    }
    out.addr = target.apply(raw) & alignMask_;
    out.bytes = params_.requestBytes;
    out.isWrite = params_.writeFraction > 0.0 &&
        rng_.nextBool(params_.writeFraction);
    out.delayNs = 0;
    return true;
}

// -------------------------------------------------------------- On/off --

OnOffSource::OnOffSource(Params params)
    : params_(std::move(params)), rng_(mixSeeds(params_.seed, 0xB0u))
{
    if (!params_.inner)
        fatal("OnOffSource: no inner source");
    if (params_.burstLen == 0)
        fatal("OnOffSource: zero burst length");
    remainingInBurst_ = drawBurstLen();
}

std::uint32_t
OnOffSource::drawBurstLen()
{
    if (!params_.randomize)
        return params_.burstLen;
    // Exponential around the mean, clamped to at least one request.
    const double d = -static_cast<double>(params_.burstLen) *
        std::log(1.0 - rng_.nextDouble());
    return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(d + 0.5));
}

std::uint32_t
OnOffSource::drawGapNs()
{
    if (!params_.randomize)
        return params_.gapNs;
    const double d = -static_cast<double>(params_.gapNs) *
        std::log(1.0 - rng_.nextDouble());
    return static_cast<std::uint32_t>(d + 0.5);
}

bool
OnOffSource::next(Tick now, WorkloadRequest &out)
{
    if (!params_.inner->next(now, out))
        return false;
    if (remainingInBurst_ == 0) {
        // Burst boundary: stack the off-gap on top of whatever delay
        // the inner source already asked for.
        out.delayNs += drawGapNs();
        remainingInBurst_ = drawBurstLen();
    }
    --remainingInBurst_;
    return true;
}

// --------------------------------------------------------------- Trace --

TraceSource::TraceSource(Params params) : params_(std::move(params))
{
    if (params_.trace.empty())
        fatal("TraceSource: empty trace");
}

bool
TraceSource::next(Tick, WorkloadRequest &out)
{
    if (nextIdx_ >= params_.trace.size()) {
        if (!params_.loop)
            return false;
        nextIdx_ = 0;
    }
    const TraceRecord &rec = params_.trace[nextIdx_];
    ++nextIdx_;
    out.addr = rec.addr;
    out.bytes = rec.bytes;
    out.isWrite = rec.isWrite;
    out.delayNs = rec.delayNs;
    return true;
}

// ----------------------------------------------------------------- Mix --

MixSource::MixSource(Params params) : params_(std::move(params))
{
    if (params_.phases.empty())
        fatal("MixSource: no phases");
    for (const Phase &ph : params_.phases) {
        if (!ph.source)
            fatal("MixSource: null phase source");
        if (ph.duration == 0)
            fatal("MixSource: zero phase duration");
    }
}

void
MixSource::advancePhase(Tick now)
{
    ++idx_;
    if (idx_ >= params_.phases.size()) {
        if (!params_.loop) {
            done_ = true;
            idx_ = params_.phases.size() - 1;
            return;
        }
        idx_ = 0;
    }
    phaseEndAt_ = now + params_.phases[idx_].duration;
}

bool
MixSource::next(Tick now, WorkloadRequest &out)
{
    if (done_)
        return false;
    if (!started_) {
        started_ = true;
        phaseEndAt_ = now + params_.phases[idx_].duration;
    }
    while (now >= phaseEndAt_ && !done_)
        advancePhase(now);
    // Delegate; if the current phase's source is exhausted, skip ahead
    // (at most once around the phase list).
    for (std::size_t tries = 0; tries <= params_.phases.size(); ++tries) {
        if (done_)
            return false;
        if (params_.phases[idx_].source->next(now, out))
            return true;
        if (!params_.loop && idx_ + 1 >= params_.phases.size()) {
            done_ = true;
            return false;
        }
        advancePhase(now);
    }
    done_ = true;
    return false;
}

}  // namespace hmcsim
