/**
 * @file
 * The concrete TrafficSource catalogue:
 *
 *   GupsSource    vendor-firmware GUPS unit (random/linear, mask
 *                 confinement) -- wraps GupsAddrGen bit-identically
 *   StrideSource  fixed-stride walker over a span (STREAM-style)
 *   ZipfSource    Zipfian/hotspot traffic: skewed selection among
 *                 target patterns (vaults, cubes) and/or among hot
 *                 blocks inside one pattern
 *   OnOffSource   bursty decorator: passes an inner source through
 *                 and inserts off-gaps every burst
 *   TraceSource   trace replay (what StreamPort used to inline)
 *   MixSource     phase-mixed: a sequence of sources switched on
 *                 simulated-time boundaries
 */

#ifndef HMCSIM_HOST_WORKLOAD_SOURCES_H_
#define HMCSIM_HOST_WORKLOAD_SOURCES_H_

#include <vector>

#include "common/rng.h"
#include "host/addr_gen.h"
#include "host/trace.h"
#include "host/workload/traffic_source.h"

namespace hmcsim {

/** GUPS firmware address unit behind the TrafficSource interface. */
class GupsSource : public TrafficSource
{
  public:
    struct Params {
        GupsAddrGen::Params gen;
        /**
         * Probability a generated request is a write.  0 keeps the
         * vendor firmware's pure read stream and draws no extra
         * randomness (bit-identity with the seed GupsPort).
         */
        double writeFraction = 0.0;
    };

    explicit GupsSource(const Params &params);

    bool next(Tick now, WorkloadRequest &out) override;
    const char *kind() const override { return "gups"; }

  private:
    Params params_;
    GupsAddrGen gen_;
    Rng writeRng_;
};

/** Fixed-stride walker: base, base+stride, ... wrapping inside a span. */
class StrideSource : public TrafficSource
{
  public:
    struct Params {
        Addr base = 0;
        std::uint64_t strideBytes = 128;
        std::uint32_t requestBytes = 32;
        /** Wrap-around span; must be a power of two. */
        std::uint64_t spanBytes = 1ull << 30;
        /** Total requests to produce; 0 = endless. */
        std::uint64_t count = 0;
        double writeFraction = 0.0;
        std::uint64_t seed = 1;
    };

    explicit StrideSource(const Params &params);

    bool next(Tick now, WorkloadRequest &out) override;
    const char *kind() const override { return "stride"; }

  private:
    Params params_;
    Rng rng_;
    std::uint64_t issued_ = 0;
    Addr alignMask_;
};

/**
 * Zipfian / hotspot traffic in two independent levels:
 *
 *  1. target selection: a Zipf(theta) draw over `targets` picks an
 *     AddressPattern (index 0 is the hottest).  Building the target
 *     list from per-vault or per-cube patterns yields vault- and
 *     cube-skewed hotspots.
 *  2. intra-target addressing: uniform random inside the chosen
 *     pattern, or -- with hotItems > 0 -- a second Zipf draw over that
 *     many distinct blocks (hashed so hot blocks spread over banks).
 *
 * Uses the Gray et al. constant-time Zipf sampler (theta in [0, 1)).
 */
class ZipfSource : public TrafficSource
{
  public:
    struct Params {
        std::vector<AddressPattern> targets;
        double theta = 0.99;
        std::uint64_t hotItems = 0;
        std::uint32_t requestBytes = 32;
        double writeFraction = 0.0;
        std::uint64_t seed = 1;
    };

    explicit ZipfSource(const Params &params);

    bool next(Tick now, WorkloadRequest &out) override;
    const char *kind() const override { return "zipf"; }

    /** Zipf probability of rank @p rank under this source's theta
     *  (targets level); exposed for empirical-skew tests. */
    double targetProbability(std::size_t rank) const;

  private:
    /** Gray et al. incremental Zipf sampler state for one level. */
    struct ZipfGen {
        std::uint64_t n = 1;
        double theta = 0.0;
        double zetan = 1.0;
        double alpha = 0.0;
        double eta = 0.0;
        /** Cached 1 + 0.5^theta (the rank-1 acceptance threshold). */
        double rank1Threshold = 2.0;

        void init(std::uint64_t items, double skew);
        std::uint64_t draw(Rng &rng) const;
    };

    Params params_;
    Rng rng_;
    ZipfGen targetGen_;
    ZipfGen itemGen_;
    Addr alignMask_;
};

/** Bursty on/off decorator: inserts an off-gap every burst. */
class OnOffSource : public TrafficSource
{
  public:
    struct Params {
        TrafficSourcePtr inner;
        /** Requests per on-burst (mean when randomized). */
        std::uint32_t burstLen = 64;
        /** Off gap between bursts in ns (mean when randomized). */
        std::uint32_t gapNs = 1000;
        /** Randomize burst length (geometric-ish) and gap
         *  (exponential) around the means. */
        bool randomize = false;
        std::uint64_t seed = 1;
    };

    explicit OnOffSource(Params params);

    bool next(Tick now, WorkloadRequest &out) override;
    const char *kind() const override { return "burst"; }

  private:
    Params params_;
    Rng rng_;
    std::uint32_t remainingInBurst_;

    std::uint32_t drawBurstLen();
    std::uint32_t drawGapNs();
};

/** Trace replay (text/binary traces or synthetic generators). */
class TraceSource : public TrafficSource
{
  public:
    struct Params {
        Trace trace;
        bool loop = true;
    };

    explicit TraceSource(Params params);

    bool next(Tick now, WorkloadRequest &out) override;
    const char *kind() const override { return "trace"; }

  private:
    Params params_;
    std::size_t nextIdx_ = 0;
};

/** Phase-mixed source: switch between sources on tick boundaries. */
class MixSource : public TrafficSource
{
  public:
    struct Phase {
        TrafficSourcePtr source;
        /** Simulated time this phase runs before switching. */
        Tick duration = 10 * kMicrosecond;
    };

    struct Params {
        std::vector<Phase> phases;
        /** Cycle back to phase 0 after the last phase. */
        bool loop = true;
    };

    explicit MixSource(Params params);

    bool next(Tick now, WorkloadRequest &out) override;
    const char *kind() const override { return "mix"; }

    std::size_t currentPhase() const { return idx_; }

  private:
    Params params_;
    std::size_t idx_ = 0;
    bool started_ = false;
    bool done_ = false;
    Tick phaseEndAt_ = 0;

    void advancePhase(Tick now);
};

}  // namespace hmcsim

#endif  // HMCSIM_HOST_WORKLOAD_SOURCES_H_
