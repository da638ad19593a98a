/**
 * @file
 * The benchmark's three workloads, generated from a seed.  The
 * simulator only ever sees what these functions return: a
 * SystemConfig plus one WorkloadSpec per active port.
 *
 *   gups_1cube      Fig. 6 peak-bandwidth point: one cube, one host,
 *                   9 closed-loop GUPS ports, random 128 B reads over
 *                   16 vaults x 16 banks.
 *   chain8_hotspot  8-cube ring, one host per cube, 9 open-loop zipf
 *                   cube-hotspot ports per host, half reads and half
 *                   writes.  The only workload that loads src/chain.
 *   vault_sweep     Figs. 10-12: one fresh System per step, 4 stream
 *                   ports on a seed-drawn 4-vault combination.
 */

#ifndef HMCBENCH_WORKLOADS_H_
#define HMCBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "host/system.h"

namespace hmcbench {

/** One configured port: which host fabric, which port, what traffic. */
struct PortLoad {
    hmcsim::HostId host = 0;
    hmcsim::PortId port = 0;
    hmcsim::WorkloadSpec spec;
};

/**
 * Everything one System build needs, plus how it is run: a warmup,
 * then @c steps measured slices of @c step each (a closed loop -- each
 * slice starts when the previous one returns).
 */
struct Scenario {
    hmcsim::SystemConfig cfg;
    std::vector<PortLoad> ports;
    hmcsim::Tick warmup = 0;
    hmcsim::Tick step = 0;
    std::uint32_t steps = 0;
};

enum class WorkloadKind { Gups1Cube, Chain8Hotspot, VaultSweep };

/** Parse a workload name; returns false for an unknown name. */
bool parseWorkload(const std::string &name, WorkloadKind &out);
const char *workloadName(WorkloadKind kind);

/** Long workloads: every repetition is this same Scenario. */
Scenario makeGups1Cube(std::uint64_t seed);
Scenario makeChain8Hotspot(std::uint64_t seed);

/** vault_sweep: the Scenario of step @p index of a pass (one measured
 *  window, steps == 1).  Indices repeat pass after pass, so every pass
 *  simulates the same combinations. */
Scenario makeVaultSweepStep(std::uint64_t seed, std::uint32_t index);

/** Steps in one vault_sweep pass. */
constexpr std::uint32_t kVaultSweepPassSteps = 100;

/** Paper anchors (src/analysis/paper_ref.h). */
double gupsPaperBandwidthGBs();       // Fig. 6 peak, Section IV-A
double vaultSweepPaperLatencyNs();    // Fig. 10 128 B axis centre

}  // namespace hmcbench

#endif  // HMCBENCH_WORKLOADS_H_
