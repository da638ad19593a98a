#include "sim/event_queue.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/log.h"

namespace hmcsim {

namespace {

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

}  // namespace

EventQueue::EventQueue(std::uint64_t bucketWidth, std::uint64_t numBuckets)
{
    if (!isPowerOfTwo(bucketWidth) || !isPowerOfTwo(numBuckets) ||
        numBuckets < 2)
        panic("EventQueue: calendar geometry must be powers of two with "
              ">= 2 buckets");
    PartitionLock lock(mu_);
    while ((Tick(1) << shift_) < bucketWidth)
        ++shift_;
    ring_.assign(static_cast<std::size_t>(numBuckets), kNil);
    ringMask_ = static_cast<std::size_t>(numBuckets) - 1;
}

void
EventQueue::panicNullEvent()
{
    panic("EventQueue::schedule: null event function");
}

void
EventQueue::panicEmptyExecute()
{
    panic("EventQueue::executeNext on empty queue");
}

void
EventQueue::clear()
{
    PartitionLock lock(mu_);
    std::fill(ring_.begin(), ring_.end(), kNil);
    cur_.clear();
    curHead_ = 0;
    far_.clear();
    // Destroys every parked closure; free slots are already empty.
    slots_.clear();
    links_.clear();
    freeHead_ = kNil;
    ringCount_ = 0;
    curIdx_ = 0;
    curBucketStart_ = 0;
    size_ = 0;
}

std::uint32_t
EventQueue::parkNew(EventFn &&fn)
{
    // kNil marks list ends, so it can never be a slot index.
    if (slots_.size() >= kNil)
        panic("EventQueue: more than 2^32 - 1 pending events");
    slots_.push_back(std::move(fn));
    links_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::calendarPushSlow(const Key &k)
{
    if (k.when > curBucketStart_) {
        // Beyond the ring horizon: hold in the far-future min-heap.
        far_.push_back(k);
        std::push_heap(far_.begin(), far_.end(), Later{});
        return;
    }
    // Past or current-bucket-start times clamp into the current
    // bucket; ordering within the bucket is still exact, and every
    // later bucket holds strictly later times.
    ++ringCount_;
    if (!cur_.empty())
        pushCurrent(k);
    else
        linkIntoBucket(curIdx_, k);
}

void
EventQueue::insertCurrentSorted(const Key &k)
{
    // Rare out-of-order insert (e.g. a default-priority event
    // scheduled at now while a stats-priority event is still pending
    // at the same tick): shift into place.
    const auto pos =
        std::upper_bound(cur_.begin() + static_cast<std::ptrdiff_t>(curHead_),
                         cur_.end(), k, Earlier{});
    cur_.insert(pos, k);
}

const EventQueue::Key *
EventQueue::calendarPeek()
{
    for (;;) {
        if (ringCount_ == 0)
            jumpToFar();
        std::uint32_t s = ring_[curIdx_];
        if (s != kNil) {
            ring_[curIdx_] = kNil;
            do {
                const Link &n = links_[s];
                cur_.push_back(Key{n.when, n.priority, s, n.seq});
                s = n.next;
            } while (s != kNil);
            // The list runs newest first.  Restoring insertion order
            // before the sort measured slower than sorting as is.
            std::sort(cur_.begin(), cur_.end(), Earlier{});
            return &cur_[curHead_];
        }
        curIdx_ = (curIdx_ + 1) & ringMask_;
        curBucketStart_ += Tick(1) << shift_;
        pullFar();
    }
}

void
EventQueue::pullFar()
{
    // Ring advance opened a new bucket at the horizon; migrate every
    // far-future key that now falls inside it.  Far keys are always
    // > curBucketStart_, so the subtraction cannot wrap.  The ring is
    // never gathered here (it only advances past an empty current
    // bucket), so every migrated key links into a bucket list.
    const Tick span = ringSpan();
    while (!far_.empty() && far_.front().when - curBucketStart_ < span) {
        std::pop_heap(far_.begin(), far_.end(), Later{});
        const Key k = far_.back();
        far_.pop_back();
        linkIntoBucket(
            static_cast<std::size_t>(k.when >> shift_) & ringMask_, k);
        ++ringCount_;
    }
}

void
EventQueue::jumpToFar()
{
    // Ring is empty: re-anchor it at the earliest far-future key
    // instead of stepping bucket-by-bucket across the idle gap.
    if (far_.empty())
        panic("EventQueue: internal accounting error (empty calendar)");
    const Tick t = far_.front().when;
    curBucketStart_ = (t >> shift_) << shift_;
    curIdx_ = static_cast<std::size_t>(t >> shift_) & ringMask_;
    pullFar();
}

}  // namespace hmcsim
