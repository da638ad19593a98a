/**
 * @file
 * Simulation kernel: owns the event queue and the global clock, and
 * provides the run loop with stop conditions.
 *
 * With `sim.parallel=on` the kernel becomes a facade over the
 * partitioned-parallel core: scheduling calls route to the executing
 * thread's current partition (see t_schedPartition) and run()/
 * runUntil() delegate to the conservative-lookahead window loop.  The
 * component tree never sees the difference -- now() is the partition's
 * local clock while its events run, and the global clock otherwise.
 */

#ifndef HMCSIM_SIM_KERNEL_H_
#define HMCSIM_SIM_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/log.h"
#include "common/partition_mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/partition.h"

namespace hmcsim {

class Observability;
class ParallelScheduler;

class Kernel
{
  public:
    Kernel();
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Current simulated time (the executing partition's local clock
     *  inside a parallel run). */
    Tick
    now() const
    {
        const Partition *p = t_schedPartition;
        if (p)
            return p->localNow();
        PartitionLock lock(mu_);
        return now_;
    }

    /**
     * Schedule @p fn @p delay ticks from now.  Panics when the delay
     * would wrap the tick clock -- a wrapped deadline lands in the
     * past and is silently mis-ordered (calendar mode would clamp it
     * to now), so it is never what the caller meant.
     */
    void
    scheduleIn(Tick delay, EventFn fn, int priority = 0)
    {
        const Tick current = now();
        if (delay > kTickNever - current)
            panic("Kernel::scheduleIn: delay " + std::to_string(delay) +
                  " overflows the tick clock (now " +
                  std::to_string(current) + ")");
        targetQueue().schedule(current + delay, std::move(fn), priority);
    }

    /** Schedule @p fn at absolute @p when; panics if @p when is past. */
    void scheduleAt(Tick when, EventFn fn, int priority = 0);

    /**
     * Run until the queue drains or simulated time would pass @p until.
     * Events exactly at @p until still execute.
     * @return number of events executed by this call.
     */
    std::uint64_t run(Tick until = kTickNever);

    /**
     * Run until @p pred returns true (checked after every event; at
     * window barriers under sim.parallel=on), the queue drains, or
     * @p until passes.  Like run(), an early drain advances the clock
     * to @p until -- unless the predicate ended the run, whose firing
     * time is the meaningful result.
     */
    // hmcsim-lint: allow(std-function) one predicate per run(), not per-event
    std::uint64_t runUntil(const std::function<bool()> &pred,
                           Tick until = kTickNever);

    /** Request that the current run() returns after the active event
     *  (after the active lookahead window under sim.parallel=on). */
    void
    stop()
    {
        stopRequested_.store(true, std::memory_order_relaxed);
    }

    /** Direct queue access (tests, stats).  Under sim.parallel=on this
     *  is the serial queue, which stays empty -- use partition(). */
    EventQueue &queue() { return queue_; }
    const EventQueue &queue() const { return queue_; }

    /** Events executed over the kernel's lifetime (all partitions). */
    std::uint64_t eventsExecuted() const;

    /**
     * Switch this kernel to the partitioned-parallel core.  Must be
     * called during single-threaded setup, before any component
     * schedules an event.  @p lookahead is the conservative window in
     * ticks -- the minimum latency of any cross-partition interaction.
     */
    void enableParallel(std::uint32_t partitions, std::uint32_t threads,
                        Tick lookahead);

    bool parallelEnabled() const { return sched_ != nullptr; }

    /** Partition @p id (cube id); null unless parallelEnabled(). */
    Partition *partition(std::uint32_t id);

    /** The whole-tree observer partition; null unless parallel. */
    Partition *globalPartition() { return globalPart_; }

    /** The parallel core itself; null unless parallelEnabled(). */
    ParallelScheduler *parallel() { return sched_.get(); }

    /**
     * Schedule @p fn at @p when in @p dst's partition.  The bridge the
     * SerdesLink boundary uses: when @p dst is another partition the
     * event goes through its mailbox (thread-safe, canonically
     * ordered); when @p dst is null (serial mode) or the caller's own
     * partition it degenerates to scheduleAt().  @p when must be at
     * least lookahead beyond the caller's clock when crossing.
     */
    void postCross(Partition *dst, Tick when, EventFn fn,
                   int priority = 0);

    /**
     * The observability layer components register into (metrics,
     * tracing, profiling); null -- the default -- means the layer is
     * disabled and every hook site reduces to a null check.  Published
     * by System before the component tree is built; the Observability
     * object outlives every component registered with it.  Set during
     * single-threaded setup and immutable while events run, so it
     * carries no capability (the parallel core reads it lock-free).
     */
    Observability *obs() const { return obs_; }
    void setObservability(Observability *obs) { obs_ = obs; }

  private:
    friend class ParallelScheduler;

    /** Guards the kernel's own global clock -- never held across
     *  queue_.executeNext(), because event handlers re-enter now() and
     *  scheduleIn().  Worker threads never touch now_: inside a
     *  parallel run every now() call happens under a partition scope
     *  and reads the partition clock instead. */
    mutable PartitionMutex mu_;

    void
    setNow(Tick t)
    {
        PartitionLock lock(mu_);
        now_ = t;
    }

    bool
    stopRequested() const
    {
        return stopRequested_.load(std::memory_order_relaxed);
    }

    void
    clearStop()
    {
        stopRequested_.store(false, std::memory_order_relaxed);
    }

    /** Where a schedule call issued right now should land: the
     *  executing partition's queue, the global partition (setup-time
     *  and observer scheduling under parallel), or the serial queue. */
    EventQueue &
    targetQueue()
    {
        Partition *p = t_schedPartition;
        if (p)
            return p->queue();
        return globalPart_ ? globalPart_->queue() : queue_;
    }

    EventQueue queue_;
    Tick now_ HMCSIM_GUARDED_BY(mu_) = 0;
    /** Atomic so an event on any worker can stop a parallel run; the
     *  window barriers give the flag its cross-thread visibility. */
    std::atomic<bool> stopRequested_{false};
    Observability *obs_ = nullptr;

    std::unique_ptr<ParallelScheduler> sched_;
    /** Cached sched_->globalPartition() so targetQueue() stays inline. */
    Partition *globalPart_ = nullptr;
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_KERNEL_H_
