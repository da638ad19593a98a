/**
 * @file
 * Conservative-lookahead parallel run loop over per-cube partitions.
 *
 * Synchronization model (classic conservative PDES, Graphite-style):
 * all partitions repeatedly agree on a window [tmin, tmin + L) where
 * tmin is the globally earliest pending event and L is the lookahead
 * -- the minimum latency of any cross-partition interaction.  Every
 * event inside the window executes in parallel, partition-local and
 * lock-free, because the lookahead guarantees any cross-partition post
 * it generates lands at or beyond the window end.  At the barrier the
 * mailboxes drain in canonical order and the next window is computed.
 *
 * For the cube chain, L is the SerDes link floor: a packet handoff
 * costs at least one flit serialization + wire + SerDes pipeline
 * before the remote arrive() fires, and a token refund costs the
 * token-return latency -- L = min of the two over the link config
 * (3.2 ns at the paper's defaults, i.e. thousands of ticks per
 * window).
 *
 * Windows are derived purely from simulated state (tmin, the global
 * event horizon, the run deadline), never from thread timing, and
 * mailbox drains are canonically ordered -- so the event schedule is
 * bit-identical for any sim.threads value, including 1.
 *
 * One partition is special: the "global" partition (id = numCubes)
 * hosts whole-tree observers (stats sampler, congestion recorder).
 * Its events run on thread 0 only, at a barrier, after every cube
 * partition has fully executed the observer's tick -- windows are
 * clipped to the next global event so the observer always reads a
 * tree quiesced at exactly its firing time.
 *
 * Threads are persistent: spawned once, parked on a condition
 * variable between run() calls, and coordinated with spin barriers
 * (sense-reversing, ~100 ns) inside a run -- at thousands of
 * simulated ticks per window the three barriers per window are noise
 * next to the event work they fence.
 */

#ifndef HMCSIM_SIM_PARALLEL_SCHEDULER_H_
#define HMCSIM_SIM_PARALLEL_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"
#include "sim/partition.h"

namespace hmcsim {

class Kernel;

/**
 * Sense-reversing spin barrier for the in-run window phases.
 * @p spin_limit is the busy-wait bound before falling back to
 * yield(): high on dedicated cores (the release is microseconds
 * away), zero when the threads oversubscribe the hardware (the
 * releasing thread cannot run until the waiter gives its core up).
 */
class SpinBarrier
{
  public:
    SpinBarrier(std::uint32_t n, std::uint32_t spin_limit)
        : n_(n), spinLimit_(spin_limit)
    {
    }

    void arriveAndWait();

  private:
    const std::uint32_t n_;
    const std::uint32_t spinLimit_;
    std::atomic<std::uint32_t> pending_{0};
    std::atomic<std::uint32_t> gen_{0};
};

class ParallelScheduler
{
  public:
    /**
     * @param partitions one per cube
     * @param threads    worker count; partitions map statically
     *                   (partition p runs on thread p % threads)
     * @param lookahead  conservative sync horizon in ticks (> 0)
     */
    ParallelScheduler(Kernel &kernel, std::uint32_t partitions,
                      std::uint32_t threads, Tick lookahead);
    ~ParallelScheduler();

    ParallelScheduler(const ParallelScheduler &) = delete;
    ParallelScheduler &operator=(const ParallelScheduler &) = delete;

    std::uint32_t numPartitions() const
    {
        return static_cast<std::uint32_t>(parts_.size());
    }
    std::uint32_t numThreads() const { return threads_; }
    Tick lookahead() const { return lookahead_; }

    Partition *partition(std::uint32_t id);
    /** The whole-tree observer partition (samplers; thread 0 only). */
    Partition *globalPartition() { return global_.get(); }

    /** Window-loop equivalent of Kernel::run. */
    std::uint64_t run(Tick until);

    /**
     * Window-loop equivalent of Kernel::runUntil: @p pred is
     * evaluated by thread 0 at window barriers (stop granularity is
     * one lookahead window, not one event).
     */
    // hmcsim-lint: allow(std-function) one predicate per run(), not per-event
    std::uint64_t runUntil(const std::function<bool()> &pred, Tick until);

    /** Events executed across every partition over the lifetime. */
    std::uint64_t eventsExecuted() const;

  private:
    struct alignas(64) PaddedTick {
        Tick v = kTickNever;
    };

    Kernel &kernel_;
    Tick lookahead_;
    std::uint32_t threads_;
    std::vector<std::unique_ptr<Partition>> parts_;
    std::unique_ptr<Partition> global_;

    SpinBarrier barrier_;
    /** Per-thread window minima, reduced by thread 0 (padded so the
     *  publishing stores never share a cache line). */
    std::vector<PaddedTick> localMin_;

    // Shared window-loop state.  Written by thread 0 between barriers
    // and read by everyone after; the barrier's atomics provide the
    // happens-before edges, so the fields themselves stay plain.
    Tick until_ = kTickNever;
    // hmcsim-lint: allow(std-function) one predicate per run(), not per-event
    const std::function<bool()> *pred_ = nullptr;
    Tick windowEndExcl_ = 0;
    bool doneFlag_ = false;
    bool predHit_ = false;

    // Inter-run parking for the persistent workers.
    std::mutex runMu_;
    std::condition_variable runCv_;
    std::uint64_t runGen_ = 0;
    bool exit_ = false;
    std::vector<std::thread> workers_;

    void workerMain(std::uint32_t tid);
    void windowLoop(std::uint32_t tid);
    void executeWindow(Partition *p, Tick end);
    // hmcsim-lint: allow(std-function) one predicate per run(), not per-event
    std::uint64_t runCommon(const std::function<bool()> *pred, Tick until);
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_PARALLEL_SCHEDULER_H_
