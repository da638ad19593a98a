/**
 * @file
 * google-benchmark microbenchmarks of the simulation engine itself:
 * event-queue throughput, router hop cost, DRAM service planning, and
 * end-to-end simulated-time rate.  These guard the simulator's own
 * performance (a full Fig. 10 sweep runs ~7k short simulations).
 */

#include <benchmark/benchmark.h>

#include <array>
#include <memory>

#include "dram/vault_memory.h"
#include "host/experiment.h"
#include "host/system.h"
#include "sim/kernel.h"

using namespace hmcsim;

namespace {

void
BM_EventQueueScheduleExecute(benchmark::State &state)
{
    Kernel kernel;
    const int batch = static_cast<int>(state.range(0));
    std::uint64_t x = 0;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            kernel.scheduleIn(static_cast<Tick>((i * 7919) % 1000) + 1,
                              [&x] { ++x; });
        }
        kernel.run();
    }
    benchmark::DoNotOptimize(x);
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleExecute)->Arg(256)->Arg(4096);

/**
 * Steady-state schedule/execute throughput of the calendar queue
 * across pending-set sizes, time skews and capture sizes.  Each
 * executed event is replaced by a fresh one a pseudo-random delay in
 * [1, skew] ahead, holding the pending population constant -- the
 * schedule pattern of a saturated simulation.  Small skews keep every
 * event inside the calendar ring; the largest skew forces far-future
 * heap traffic.  The capture is either 8 B (a bare counter pointer)
 * or 64 B holding a shared_ptr: a packet-carrying capture like
 * SerdesLink::transmit's, padded to the InlineEvent capacity, whose
 * every move pays the closure's type-erased relocate.
 */
template <typename MakeFn>
void
runPendingSkew(benchmark::State &state, const MakeFn &make_fn)
{
    const int pending = static_cast<int>(state.range(0));
    const Tick skew = static_cast<Tick>(state.range(1));
    EventQueue q;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    const auto next_delay = [&rng, skew] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return static_cast<Tick>(rng % skew) + 1;
    };
    for (int i = 0; i < pending; ++i)
        q.schedule(next_delay(), make_fn());
    for (auto _ : state) {
        const Tick now = q.executeNext();
        q.schedule(now + next_delay(), make_fn());
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_EventQueuePendingSkew(benchmark::State &state)
{
    std::uint64_t executed = 0;
    if (state.range(2) == 8) {
        runPendingSkew(state, [&executed] {
            return [&executed] { ++executed; };
        });
    } else {
        const auto owner = std::make_shared<std::uint64_t>(0);
        runPendingSkew(state, [&executed, &owner] {
            return [&executed, owner, pad = std::array<std::uint64_t, 5>{}] {
                executed += 1 + pad[0];
            };
        });
    }
    benchmark::DoNotOptimize(executed);
}
BENCHMARK(BM_EventQueuePendingSkew)
    ->ArgNames({"pending", "skew", "capture"})
    ->ArgsProduct({{64, 1024, 16384}, {100, 4000, 1000000}, {8, 64}});

void
BM_DramServicePlanning(benchmark::State &state)
{
    Kernel kernel;
    const DramTimingParams params = DramTimingParams::hmcGen2();
    VaultMemory mem(kernel, nullptr, "vmem", params, 16);
    Tick now = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        DramAccess a;
        a.bank = static_cast<BankId>(i % 16);
        a.row = static_cast<RowId>((i * 2654435761u) % 65536);
        a.bytes = 128;
        const auto r = mem.service(a, now, PagePolicy::Closed);
        now = r.colTime;
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramServicePlanning);

void
BM_EndToEndGups(benchmark::State &state)
{
    // Simulated microseconds per wall second, the number that bounds
    // every figure sweep.
    const std::uint32_t bytes = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        SystemConfig cfg;
        System sys(cfg);
        WorkloadSpec w;
        w.requestBytes = bytes;
        for (PortId p = 0; p < 9; ++p) {
            w.seed = 5 + p;
            sys.configureWorkload(p, w);
        }
        sys.run(10 * kMicrosecond);
        benchmark::DoNotOptimize(sys.now());
    }
    state.SetLabel("10us simulated per iteration");
}
BENCHMARK(BM_EndToEndGups)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void
BM_StreamBatchExperiment(benchmark::State &state)
{
    for (auto _ : state) {
        StreamBatchSpec spec;
        spec.batchSize = 40;
        spec.requestBytes = 64;
        spec.warmup = 2 * kMicrosecond;
        spec.window = 5 * kMicrosecond;
        const ExperimentResult r = runStreamBatch(SystemConfig{}, spec);
        benchmark::DoNotOptimize(r.avgReadLatencyNs);
    }
}
BENCHMARK(BM_StreamBatchExperiment)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
