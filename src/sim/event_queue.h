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
 * Buckets and the far-future heap hold only 24-byte trivially
 * copyable keys (time, priority, seq and a slot index).  Each event's
 * closure is moved once into a queue-owned slot slab when it is
 * scheduled and moved out when it fires, so sorting, heap sifts and
 * ring migration copy plain keys and never touch a capture.
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
#include <type_traits>
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
 * guarded by mu_.  Public entry points acquire it; private helpers
 * require it.  Event callbacks run OUTSIDE the locked region -- they
 * re-enter schedule(), which the assert-only PartitionMutex rejects
 * as a re-entrant acquire.
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
     * out-of-order inserts take the out-of-line paths.  @p fn is taken
     * by rvalue reference so the closure moves exactly once, into its
     * slot.
     */
    void
    schedule(Tick when, EventFn &&fn, int priority = 0)
    {
        if (!fn)
            panicNullEvent();
        PartitionLock lock(mu_);
        const Key k{when, priority, park(std::move(fn)), nextSeq_++};
        ++size_;
        if (when > curBucketStart_ && when - curBucketStart_ < ringSpan()) {
            Bucket &b =
                ring_[static_cast<std::size_t>(when >> shift_) & ringMask_];
            ++ringCount_;
            // Only the current bucket is ever sorted, and it is
            // non-empty (it resets to unsorted when drained).  The
            // common case -- fresh events at the current tick carry a
            // larger seq than everything pending -- appends straight
            // into place.
            if (!b.sorted || Earlier{}(b.v.back(), k)) {
                b.v.push_back(k);
                return;
            }
            calendarInsertSorted(b, k);
            return;
        }
        calendarPushSlow(k);
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
            const Key head = b->v[b->head];
            when = head.when;
            // Move the closure out and free its slot before invoking
            // it: a handler that schedules may reuse the slot or grow
            // the slab.
            fn = std::move(slots_[head.slot]);
            freeSlots_.push_back(head.slot);
            if (++b->head == b->v.size()) {
                b->v.clear();
                b->head = 0;
                b->sorted = false;
            }
            --ringCount_;
        }
        // The callback runs OUTSIDE the locked region: event handlers
        // re-enter schedule(), which re-acquires mu_ -- holding the
        // capability across the call would trip the re-entrancy
        // assertion.
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

    /** Drop every pending event, destroying its closure. */
    void clear();

  private:
    /**
     * A pending event's ordering key.  Trivially copyable, so bucket
     * sorts, heap sifts and ring migration move 24 plain bytes; the
     * closure stays parked in slots_[slot] until the event fires.
     */
    struct Key {
        Tick when;
        int priority;
        std::uint32_t slot;
        std::uint64_t seq;
    };
    static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>,
                  "queue keys must stay small plain data");

    /** Strict fire order (time, priority, seq); an inlinable functor
     *  for the std sort/search algorithms. */
    struct Earlier {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when < b.when;
            if (a.priority != b.priority)
                return a.priority < b.priority;
            return a.seq < b.seq;
        }
    };
    /** Inverted, so std's max-heap algorithms keep a min-heap. */
    struct Later {
        bool
        operator()(const Key &a, const Key &b) const
        {
            return Earlier{}(b, a);
        }
    };

    /**
     * A ring bucket.  Future buckets accumulate keys unsorted; when a
     * bucket becomes current it is sorted once into ascending fire
     * order and drained through the head cursor (pop is O(1), no key
     * ever moves).  Keys scheduled into the current bucket almost
     * always carry the largest (when, priority, seq) in it -- fresh
     * events at the current tick get monotonically increasing seq --
     * so they append in O(1) too; the rare out-of-order insert shifts
     * into place.  The vector's retained capacity holds keys only, so
     * 4096 buckets stay cheap to keep warm.
     */
    struct Bucket {
        std::vector<Key> v;
        std::size_t head = 0; ///< next key to pop (earlier are spent)
        bool sorted = false;  ///< v[head..) is in ascending fire order
    };

    /** Move @p fn into a free slot (reused LIFO) and return its index. */
    std::uint32_t
    park(EventFn &&fn) HMCSIM_REQUIRES(mu_)
    {
        if (freeSlots_.empty())
            return parkNew(std::move(fn));
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(fn);
        return slot;
    }

    /** Grow the slab by one slot holding @p fn. */
    std::uint32_t parkNew(EventFn &&fn) HMCSIM_REQUIRES(mu_);
    /** Clamped-to-now and beyond-horizon inserts. */
    void calendarPushSlow(const Key &k) HMCSIM_REQUIRES(mu_);
    /** Rare out-of-order insert into the sorted current bucket. */
    void calendarInsertSorted(Bucket &b, const Key &k) HMCSIM_REQUIRES(mu_);
    /** Earliest pending key; advances the ring to its bucket. */
    const Key *calendarPeek() HMCSIM_REQUIRES(mu_);
    /** Move far-future keys now below the ring horizon into it. */
    void pullFar() HMCSIM_REQUIRES(mu_);
    /** Re-anchor an empty ring at the earliest far-future key. */
    void jumpToFar() HMCSIM_REQUIRES(mu_);

    Tick
    ringSpan() const HMCSIM_REQUIRES(mu_)
    {
        return Tick(ring_.size()) << shift_;
    }

    [[noreturn]] static void panicNullEvent();
    [[noreturn]] static void panicEmptyExecute();

    /**
     * The queue's capability.  Assert-only, because one thread runs
     * the whole simulation; mutable so const queries can acquire it.
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
    /** Pending keys resident in the ring. */
    std::size_t ringCount_ HMCSIM_GUARDED_BY(mu_) = 0;
    /** Min-heap of keys beyond the ring. */
    std::vector<Key> far_ HMCSIM_GUARDED_BY(mu_);

    /**
     * The slot slab: every pending event's closure, indexed by
     * Key::slot.  Free slots hold empty closures and are listed in
     * freeSlots_; the slab grows only when the pending population
     * reaches a new peak, so steady state never allocates.
     */
    std::vector<InlineEvent> slots_ HMCSIM_GUARDED_BY(mu_);
    std::vector<std::uint32_t> freeSlots_ HMCSIM_GUARDED_BY(mu_);
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_EVENT_QUEUE_H_
