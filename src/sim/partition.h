/**
 * @file
 * One shard of the partitioned-parallel event core.
 *
 * A Partition owns a private EventQueue and a private simulated clock.
 * Under `sim.parallel=on` the component tree is sharded per cube (the
 * chain fabric's natural cut: cubes interact only through SerDes links
 * with a fixed serialize + store-and-forward latency floor), and each
 * partition's events execute on exactly one worker thread per
 * conservative-lookahead window -- so the queue and the clock need no
 * locking at all; the assert-only PartitionMutex inside EventQueue
 * keeps enforcing the single-owner discipline.
 *
 * The only shared surface is the inbound mailbox: cross-partition
 * packet handoffs (SerdesLink arrivals and token refunds) post into
 * the destination partition's mailbox under a real mutex, stamped with
 * a timestamp the lookahead guarantees is at or beyond every window
 * the destination could currently be executing.  Mailboxes drain only
 * at window barriers, in a canonical (when, priority, source
 * partition, source sequence) order, which makes the resulting event
 * schedule independent of thread count and post-arrival interleaving.
 */

#ifndef HMCSIM_SIM_PARTITION_H_
#define HMCSIM_SIM_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/partition_mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace hmcsim {

class Partition
{
  public:
    explicit Partition(std::uint32_t id) : id_(id) {}

    Partition(const Partition &) = delete;
    Partition &operator=(const Partition &) = delete;

    std::uint32_t id() const { return id_; }

    EventQueue &queue() { return queue_; }
    const EventQueue &queue() const { return queue_; }

    /** This partition's local clock (the time of its current event). */
    Tick localNow() const { return now_; }
    void setLocalNow(Tick t) { now_ = t; }

    /**
     * Deterministic sequence for this partition's outbound
     * cross-partition posts.  Only ever called from the partition's
     * own executing events, so it needs no lock; its order mirrors the
     * partition's (deterministic) execution order.
     */
    std::uint64_t nextCrossSeq() { return crossSeq_++; }

    /**
     * Post an event into this partition from another partition.  The
     * caller (the parallel scheduler's lookahead contract) guarantees
     * @p when is at or beyond the current window's end, so the post
     * can never land in this partition's past.  Thread-safe.
     */
    void post(Tick when, int priority, std::uint32_t src_part,
              std::uint64_t src_seq, EventFn fn);

    /**
     * Move every mailbox entry into the event queue.  Must only run at
     * a window barrier (no concurrent post can target a quiescent
     * window).  Entries are sorted by (when, priority, source
     * partition, source sequence) before scheduling so the local seq
     * numbers they receive -- and therefore all downstream tie-breaks
     * -- are independent of the posting threads' interleaving.
     */
    void drainMailbox();

    /** Pending mailbox entries (tests/diagnostics). */
    std::size_t mailboxSize() const;

  private:
    struct MailEntry {
        Tick when;
        int priority;
        std::uint32_t srcPart;
        std::uint64_t srcSeq;
        EventFn fn;
    };

    std::uint32_t id_;
    EventQueue queue_;
    Tick now_ = 0;
    std::uint64_t crossSeq_ = 0;

    mutable RealMutex mailMu_;
    std::vector<MailEntry> mailbox_ HMCSIM_GUARDED_BY(mailMu_);
    /** Drain-side scratch (owner thread only, outside the lock);
     *  reused so steady state never allocates. */
    std::vector<MailEntry> draining_;
};

/**
 * The partition whose events the calling thread is currently
 * executing; null on a thread outside the parallel run loop (and
 * always null when `sim.parallel=off`).  Kernel::now() and the
 * schedule calls route through it, which is how the entire component
 * tree runs unmodified on sharded clocks.
 */
inline thread_local Partition *t_schedPartition = nullptr;

/** Scoped setter used by the run loop and setup-time scoping. */
class ScopedSchedulePartition
{
  public:
    explicit ScopedSchedulePartition(Partition *p)
        : prev_(t_schedPartition)
    {
        t_schedPartition = p;
    }
    ~ScopedSchedulePartition() { t_schedPartition = prev_; }

    ScopedSchedulePartition(const ScopedSchedulePartition &) = delete;
    ScopedSchedulePartition &
    operator=(const ScopedSchedulePartition &) = delete;

  private:
    Partition *prev_;
};

/**
 * Shard index for per-partition observability state (trace rings):
 * the executing partition's id, or 0 outside the parallel run loop.
 */
inline std::uint32_t
currentPartitionShard()
{
    const Partition *p = t_schedPartition;
    return p ? p->id() : 0;
}

}  // namespace hmcsim

#endif  // HMCSIM_SIM_PARTITION_H_
