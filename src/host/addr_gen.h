/**
 * @file
 * GUPS-style address generation unit (one per FPGA port).
 *
 * Matches the vendor firmware the paper describes: random or linear
 * addressing, confined to a part of the cube by a mask/anti-mask pair
 * (AddressPattern), with read-only / write-only / read-modify-write
 * request kinds.
 */

#ifndef HMCSIM_HOST_ADDR_GEN_H_
#define HMCSIM_HOST_ADDR_GEN_H_

#include <cstdint>

#include "common/rng.h"
#include "common/types.h"
#include "hmc/address_map.h"

namespace hmcsim {

/** Addressing mode of a GUPS port. */
enum class AddrMode {
    Random,
    Linear,
};

/** Request kind issued by a GUPS port. */
enum class ReqKind {
    ReadOnly,
    WriteOnly,
    ReadModifyWrite,
};

class GupsAddrGen
{
  public:
    struct Params {
        AddrMode mode = AddrMode::Random;
        AddressPattern pattern;         ///< mask/anti-mask confinement
        std::uint32_t requestBytes = 32;
        std::uint64_t seed = 1;
    };

    explicit GupsAddrGen(const Params &params);

    /** Next request address, aligned to the request size. */
    Addr next();

    std::uint32_t requestBytes() const { return params_.requestBytes; }

    /** Re-seed (used to decorrelate ports). */
    void reseed(std::uint64_t seed);

  private:
    Params params_;
    Rng rng_;
    std::uint64_t linearCounter_ = 0;
    Addr alignMask_;
};

}  // namespace hmcsim

#endif  // HMCSIM_HOST_ADDR_GEN_H_
