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
 * advances.  Buckets collect unsorted and sort lazily only when a
 * bucket becomes current, so schedule() is O(1) and executeNext() is
 * amortized O(k log k) over the handful of events sharing a bucket.
 *
 * Each event's closure is moved once into a queue-owned slot slab when
 * it is scheduled and moved out when it fires.  Beside the closure the
 * slab keeps the event's ordering key (time, priority, seq) and a
 * `next` slot index, and a future bucket is just the head of a singly
 * linked list threaded through those links (Brown's calendar queue,
 * CACM 31(10), 1988): the ring is one 32-bit head per bucket and needs
 * no storage of its own, so a fresh queue runs at full speed from its
 * first lap.  When a bucket becomes current its list is gathered into
 * one reused vector of 24-byte trivially copyable keys (time,
 * priority, seq and the slot index), sorted once and drained through
 * a cursor.  Sorting, heap sifts and ring migration copy plain keys
 * and never touch a capture.
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
     * horizon linking into its bucket -- compiles to a handful of
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
            const std::size_t idx =
                static_cast<std::size_t>(when >> shift_) & ringMask_;
            ++ringCount_;
            if (idx != curIdx_ || cur_.empty()) {
                linkIntoBucket(idx, k);
                return;
            }
            pushCurrent(k);
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
        if (!cur_.empty())
            return cur_[curHead_].when;
        // calendarPeek lazily advances the ring and gathers the
        // current bucket -- internal bookkeeping that never changes
        // the abstract queue state, so nextTime stays logically const.
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
            if (cur_.empty())
                calendarPeek();  // advance + gather + sort
            const Key head = cur_[curHead_];
            when = head.when;
            // Move the closure out and free its slot before invoking
            // it: a handler that schedules may reuse the slot or grow
            // the slab.
            fn = std::move(slots_[head.slot]);
            links_[head.slot].next = freeHead_;
            freeHead_ = head.slot;
            if (++curHead_ == cur_.size()) {
                cur_.clear();
                curHead_ = 0;
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

    /**
     * A slot's list link.  While the slot's event waits in a future
     * bucket, the link holds its key (less the slot index, which is
     * the link's own index) and `next` is the bucket's next slot;
     * while the slot is free, `next` chains the free list.  Keys in
     * the current bucket or the far heap leave the link unused.
     */
    struct Link {
        Tick when;
        int priority;
        std::uint32_t next;
        std::uint64_t seq;
    };
    static_assert(sizeof(Link) == 24, "links must stay key-sized");

    /** End of a bucket list or of the free list. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

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

    /** Move @p fn into a free slot (reused LIFO) and return its index. */
    std::uint32_t
    park(EventFn &&fn) HMCSIM_REQUIRES(mu_)
    {
        if (freeHead_ == kNil)
            return parkNew(std::move(fn));
        const std::uint32_t slot = freeHead_;
        freeHead_ = links_[slot].next;
        slots_[slot] = std::move(fn);
        return slot;
    }

    /** Push @p k onto future bucket @p idx's list (order is free:
     *  the bucket is sorted when it becomes current). */
    void
    linkIntoBucket(std::size_t idx, const Key &k) HMCSIM_REQUIRES(mu_)
    {
        links_[k.slot] = Link{k.when, k.priority, ring_[idx], k.seq};
        ring_[idx] = k.slot;
    }

    /**
     * Insert @p k into the gathered current bucket.  Keys scheduled
     * there almost always carry the largest (when, priority, seq) in
     * it -- fresh events at the current tick get monotonically
     * increasing seq -- so they append in O(1); the rare out-of-order
     * insert shifts into place.
     */
    void
    pushCurrent(const Key &k) HMCSIM_REQUIRES(mu_)
    {
        if (Earlier{}(cur_.back(), k)) {
            cur_.push_back(k);
            return;
        }
        insertCurrentSorted(k);
    }

    /** Grow the slab by one slot holding @p fn. */
    std::uint32_t parkNew(EventFn &&fn) HMCSIM_REQUIRES(mu_);
    /** Clamped-to-now and beyond-horizon inserts. */
    void calendarPushSlow(const Key &k) HMCSIM_REQUIRES(mu_);
    /** Rare out-of-order insert into the sorted current bucket. */
    void insertCurrentSorted(const Key &k) HMCSIM_REQUIRES(mu_);
    /** Earliest pending key; advances the ring to its bucket and
     *  gathers that bucket's list into cur_. */
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

    /**
     * The bucket ring: the first slot of each future bucket's list
     * (kNil when empty).  The current bucket's list is empty once it
     * has been gathered into cur_.
     */
    std::vector<std::uint32_t> ring_ HMCSIM_GUARDED_BY(mu_);
    std::size_t ringMask_ HMCSIM_GUARDED_BY(mu_) = 0;
    /** log2(bucket width in ticks). */
    unsigned shift_ HMCSIM_GUARDED_BY(mu_) = 0;
    std::size_t curIdx_ HMCSIM_GUARDED_BY(mu_) = 0;
    /** Inclusive start of the current bucket. */
    Tick curBucketStart_ HMCSIM_GUARDED_BY(mu_) = 0;
    /** Pending keys resident in the ring (lists and cur_). */
    std::size_t ringCount_ HMCSIM_GUARDED_BY(mu_) = 0;
    /**
     * The gathered current bucket: cur_[curHead_..) in ascending fire
     * order (pop is O(1), no key ever moves).  Non-empty exactly while
     * the current bucket is gathered: a drained bucket is cleared, and
     * later inserts into it link into its list again until the next
     * peek gathers it.
     */
    std::vector<Key> cur_ HMCSIM_GUARDED_BY(mu_);
    std::size_t curHead_ HMCSIM_GUARDED_BY(mu_) = 0;
    /** Min-heap of keys beyond the ring. */
    std::vector<Key> far_ HMCSIM_GUARDED_BY(mu_);

    /**
     * The slot slab: every pending event's closure, indexed by
     * Key::slot, and beside it (same index) the slot's list link.
     * Free slots hold empty closures and are chained from freeHead_
     * through their links; the slab grows only when the pending
     * population reaches a new peak, so steady state never allocates.
     */
    std::vector<InlineEvent> slots_ HMCSIM_GUARDED_BY(mu_);
    std::vector<Link> links_ HMCSIM_GUARDED_BY(mu_);
    std::uint32_t freeHead_ HMCSIM_GUARDED_BY(mu_) = kNil;
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_EVENT_QUEUE_H_
