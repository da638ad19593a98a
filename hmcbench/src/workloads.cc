#include "workloads.h"

#include <algorithm>
#include <array>

#include "analysis/paper_ref.h"
#include "common/rng.h"

namespace hmcbench {

using namespace hmcsim;

namespace {

constexpr std::uint32_t kPortsPerHost = 9;

/** Per-port seed: decorrelated across ports and hosts (the same
 *  derivation runWorkload() uses). */
std::uint64_t
portSeed(std::uint64_t seed, HostId h, PortId p)
{
    std::uint64_t s = mixSeeds(seed, p);
    if (h > 0)
        s = mixSeeds(s, kHostSeedStream + h);
    return s;
}

}  // namespace

bool
parseWorkload(const std::string &name, WorkloadKind &out)
{
    for (WorkloadKind k : {WorkloadKind::Gups1Cube,
                           WorkloadKind::Chain8Hotspot,
                           WorkloadKind::VaultSweep}) {
        if (name == workloadName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::Gups1Cube:
        return "gups_1cube";
    case WorkloadKind::Chain8Hotspot:
        return "chain8_hotspot";
    case WorkloadKind::VaultSweep:
        return "vault_sweep";
    }
    return "?";
}

Scenario
makeGups1Cube(std::uint64_t seed)
{
    Scenario s;
    for (PortId p = 0; p < kPortsPerHost; ++p) {
        PortLoad pw;
        pw.port = p;
        pw.spec.type = "gups";
        pw.spec.requestBytes = 128;
        pw.spec.patternVaults = 16;
        pw.spec.patternBanks = 16;
        pw.spec.seed = portSeed(seed, 0, p);
        s.ports.push_back(pw);
    }
    s.warmup = 10 * kMicrosecond;
    s.step = 10 * kMicrosecond;
    s.steps = 100;
    return s;
}

Scenario
makeChain8Hotspot(std::uint64_t seed)
{
    // fig_latency_anatomy's ring8_hotspot_static, with reads added.
    Scenario s;
    s.cfg.hmc.chain.numCubes = 8;
    s.cfg.hmc.chain.topology = "ring";
    s.cfg.hmc.chain.routing = "static";
    s.cfg.host.numHosts = 8;
    s.cfg.host.tagsPerPort = 128;
    for (HostId h = 0; h < 8; ++h) {
        for (PortId p = 0; p < kPortsPerHost; ++p) {
            PortLoad pw;
            pw.host = h;
            pw.port = p;
            pw.spec.type = "zipf";
            pw.spec.zipfDomain = "cube";
            pw.spec.zipfTheta = 0.95;
            pw.spec.requestBytes = 128;
            pw.spec.writeFraction = 0.5;
            pw.spec.inject = "open";
            pw.spec.ratePerNs = 0.009;
            pw.spec.burstiness = 8.0;
            pw.spec.seed = portSeed(seed, h, p);
            s.ports.push_back(pw);
        }
    }
    s.warmup = 5 * kMicrosecond;
    s.step = 1 * kMicrosecond;
    s.steps = 100;
    return s;
}

Scenario
makeVaultSweepStep(std::uint64_t seed, std::uint32_t index)
{
    const std::uint64_t step_seed = mixSeeds(seed, 0x5EE9000u + index);
    Rng rng(step_seed);
    // A uniformly drawn 4-vault combination (partial Fisher-Yates).
    std::array<VaultId, 16> vaults{};
    for (VaultId v = 0; v < 16; ++v)
        vaults[v] = v;
    for (std::uint32_t i = 0; i < 4; ++i) {
        const auto j = static_cast<std::uint32_t>(
            rng.nextRange(i, vaults.size() - 1));
        std::swap(vaults[i], vaults[j]);
    }
    std::sort(vaults.begin(), vaults.begin() + 4);

    Scenario s;
    for (PortId p = 0; p < 4; ++p) {
        PortLoad pw;
        pw.port = p;
        // A looping random trace confined to one vault: the stream
        // firmware of Figs. 9-12.
        pw.spec.type = "trace";
        pw.spec.requestBytes = 128;
        pw.spec.patternVaults = 1;
        pw.spec.baseVault = vaults[p];
        pw.spec.patternBanks = 16;
        pw.spec.traceLength = 4096;
        pw.spec.traceLoop = true;
        pw.spec.seed = mixSeeds(step_seed, p);
        s.ports.push_back(pw);
    }
    s.warmup = 2 * kMicrosecond;
    s.step = 8 * kMicrosecond;
    s.steps = 1;
    return s;
}

double
gupsPaperBandwidthGBs()
{
    return paper::kFig6MaxBandwidthGBs;
}

double
vaultSweepPaperLatencyNs()
{
    return 0.5 * (paper::kFig10Lo128BNs + paper::kFig10Hi128BNs);
}

}  // namespace hmcbench
