/**
 * @file
 * Discrete-event queue: the heart of the cycle-level simulator.
 *
 * Events are ordered by (time, priority, insertion sequence).  The
 * sequence number guarantees FIFO order among same-time same-priority
 * events, which keeps simulations deterministic regardless of queue
 * internals.
 *
 * The queue is a two-level calendar tuned for the simulator's schedule
 * pattern (almost all events land within a few link/DRAM latencies of
 * now, densely packed in time).  Near-future events go into a
 * power-of-two ring of time buckets; far-future events wait in an
 * overflow min-heap and are pulled into the ring lazily as it
 * advances.  Buckets append unsorted and sort lazily only when a
 * bucket becomes current, so schedule() is O(1) and executeNext() is
 * amortized O(k log k) over the handful of events sharing a bucket.
 *
 * The ordering is exact: for any interleaving of schedule() and
 * executeNext() calls events fire in (time, priority, seq) order, the
 * same order a plain priority queue gives (guarded by
 * tests/sim/test_queue_differential.cc).  The bucket geometry can
 * therefore change only wall-clock speed, never simulation results.
 */

#ifndef HMCSIM_SIM_EVENT_QUEUE_H_
#define HMCSIM_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/partition_mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "sim/inline_event.h"

namespace hmcsim {

/** Callback type executed when an event fires. */
using EventFn = InlineEvent;

/** Scheduling priorities; lower value fires first at equal time. */
struct EventPriority {
    static constexpr int kDefault = 0;
    /** Stat-window boundaries run after all same-tick model activity. */
    static constexpr int kStats = 100;
    /** Simulation-stop sentinels run last. */
    static constexpr int kStop = 1000;
};

/**
 * Thread-safety discipline (machine-checked under
 * -DHMCSIM_THREAD_SAFETY=ON with Clang): every piece of queue state is
 * guarded by mu_, the capability a per-cube partition will lock once
 * the parallel core lands.  Public entry points acquire it; private
 * helpers require it.  Event callbacks run OUTSIDE the locked region
 * -- they re-enter schedule() (and would deadlock a real mutex), which
 * the assert-only PartitionMutex enforces today.
 */
class EventQueue
{
  public:
    /**
     * @param bucketWidth ring bucket width in ticks
     * @param numBuckets  ring size; the ring horizon is
     *                    bucketWidth * numBuckets (~2 us at the
     *                    defaults -- later events wait in the
     *                    far-future heap)
     * Both must be powers of two, with at least two buckets.
     */
    explicit EventQueue(std::uint64_t bucketWidth = 512,
                        std::uint64_t numBuckets = 4096);

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p fn at absolute time @p when.
     * Inline so the common case -- a future time inside the ring
     * horizon appending to its bucket -- compiles to a handful of
     * instructions at the call site; clamped, far-future and
     * out-of-order inserts take the out-of-line paths.
     */
    void
    schedule(Tick when, EventFn fn, int priority = 0)
    {
        if (!fn)
            panicNullEvent();
        PartitionLock lock(mu_);
        const std::uint64_t seq = nextSeq_++;
        ++size_;
        if (when > curBucketStart_ && when - curBucketStart_ < ringSpan()) {
            Bucket &b =
                ring_[static_cast<std::size_t>(when >> shift_) & ringMask_];
            ++ringCount_;
            if (!b.sorted) {
                b.v.emplace_back(when, priority, seq, std::move(fn));
                return;
            }
            // Only the current bucket is ever sorted, and it is
            // non-empty (it resets to unsorted when drained).  The
            // common case -- fresh events at the current tick carry a
            // larger seq than everything pending -- appends straight
            // into place.
            const Entry &last = b.v.back();
            const bool firesAfter =
                when != last.when
                    ? when > last.when
                    : priority != last.priority ? priority > last.priority
                                                : seq > last.seq;
            if (firesAfter) {
                b.v.emplace_back(when, priority, seq, std::move(fn));
                return;
            }
            calendarInsertSorted(b, when, priority, seq, std::move(fn));
            return;
        }
        calendarPushSlow(when, priority, seq, std::move(fn));
    }

    /** True if no events are pending. */
    bool
    empty() const
    {
        PartitionLock lock(mu_);
        return size_ == 0;
    }

    /** Number of pending events. */
    std::size_t
    size() const
    {
        PartitionLock lock(mu_);
        return size_;
    }

    /** Time of the earliest pending event; kTickNever if empty. */
    Tick
    nextTime() const
    {
        PartitionLock lock(mu_);
        if (size_ == 0)
            return kTickNever;
        const Bucket &b = ring_[curIdx_];
        if (b.sorted)  // sorted implies current and non-empty
            return b.v[b.head].when;
        // calendarPeek lazily advances the ring and sorts the current
        // bucket -- internal bookkeeping that never changes the
        // abstract queue state, so nextTime stays logically const.
        return const_cast<EventQueue *>(this)->calendarPeek()->when;
    }

    /**
     * Pop and execute the earliest event.
     * @return the time the event fired.
     * Must not be called on an empty queue.
     */
    Tick
    executeNext()
    {
        InlineEvent fn;
        Tick when = 0;
        {
            PartitionLock lock(mu_);
            if (size_ == 0)
                panicEmptyExecute();
            --size_;
            ++executed_;
            Bucket *b = &ring_[curIdx_];
            if (!b->sorted) {
                calendarPeek();  // advance + sort; may move the ring
                b = &ring_[curIdx_];
            }
            Entry &head = b->v[b->head];
            when = head.when;
            fn = std::move(head.fn);
            if (++b->head == b->v.size()) {
                b->v.clear();
                b->head = 0;
                b->sorted = false;
            }
            --ringCount_;
        }
        // The callback runs OUTSIDE the locked region: event handlers
        // re-enter schedule(), which re-acquires mu_ -- holding the
        // capability across the call would deadlock the parallel core.
        fn();
        return when;
    }

    /** Total events executed so far (for engine micro-benchmarks). */
    std::uint64_t
    executedCount() const
    {
        PartitionLock lock(mu_);
        return executed_;
    }

    /** Drop every pending event. */
    void clear();

  private:
    struct Entry {
        Tick when;
        int priority;
        std::uint64_t seq;
        InlineEvent fn;

        Entry(Tick w, int p, std::uint64_t s, InlineEvent &&f)
            : when(w), priority(p), seq(s), fn(std::move(f))
        {
        }
    };

    /**
     * A ring bucket.  Future buckets accumulate entries unsorted; when
     * a bucket becomes current it is sorted once into ascending fire
     * order and drained through the head cursor (pop is O(1), no
     * element ever moves).  Entries scheduled into the current bucket
     * almost always carry the largest (when, priority, seq) key in it
     * -- fresh events at the current tick get monotonically increasing
     * seq -- so they append in O(1) too; the rare out-of-order insert
     * rotates into place.
     */
    struct Bucket {
        std::vector<Entry> v;
        std::size_t head = 0; ///< next entry to pop (earlier are husks)
        bool sorted = false;  ///< v[head..) is in ascending fire order
    };

    /** Clamped-to-now and beyond-horizon inserts. */
    void calendarPushSlow(Tick when, int priority, std::uint64_t seq,
                          InlineEvent &&fn) HMCSIM_REQUIRES(mu_);
    /** Rare out-of-order insert into the sorted current bucket. */
    void calendarInsertSorted(Bucket &b, Tick when, int priority,
                              std::uint64_t seq, InlineEvent &&fn)
        HMCSIM_REQUIRES(mu_);
    /** Earliest pending entry; advances the ring to its bucket. */
    Entry *calendarPeek() HMCSIM_REQUIRES(mu_);
    /** Move far-future entries now below the ring horizon into it. */
    void pullFar() HMCSIM_REQUIRES(mu_);
    /** Re-anchor an empty ring at the earliest far-future entry. */
    void jumpToFar() HMCSIM_REQUIRES(mu_);

    Tick
    ringSpan() const HMCSIM_REQUIRES(mu_)
    {
        return Tick(ring_.size()) << shift_;
    }

    [[noreturn]] static void panicNullEvent();
    [[noreturn]] static void panicEmptyExecute();

    /**
     * The queue's capability: one per partition once the parallel core
     * shards the simulation per cube.  Assert-only today (the simulator
     * is single-threaded); mutable so const queries can acquire it.
     */
    mutable PartitionMutex mu_;

    std::uint64_t nextSeq_ HMCSIM_GUARDED_BY(mu_) = 0;
    std::uint64_t executed_ HMCSIM_GUARDED_BY(mu_) = 0;
    std::size_t size_ HMCSIM_GUARDED_BY(mu_) = 0;

    std::vector<Bucket> ring_ HMCSIM_GUARDED_BY(mu_);
    std::size_t ringMask_ HMCSIM_GUARDED_BY(mu_) = 0;
    /** log2(bucket width in ticks). */
    unsigned shift_ HMCSIM_GUARDED_BY(mu_) = 0;
    std::size_t curIdx_ HMCSIM_GUARDED_BY(mu_) = 0;
    /** Inclusive start of the current bucket. */
    Tick curBucketStart_ HMCSIM_GUARDED_BY(mu_) = 0;
    /** Pending entries resident in the ring. */
    std::size_t ringCount_ HMCSIM_GUARDED_BY(mu_) = 0;
    /** Min-heap of entries beyond the ring. */
    std::vector<Entry> far_ HMCSIM_GUARDED_BY(mu_);
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_EVENT_QUEUE_H_
