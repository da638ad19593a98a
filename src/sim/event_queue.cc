#include "sim/event_queue.h"

#include <algorithm>
#include <iterator>
#include <limits>
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
    ring_.resize(static_cast<std::size_t>(numBuckets));
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
    for (Bucket &b : ring_) {
        b.v.clear();
        b.head = 0;
        b.sorted = false;
    }
    far_.clear();
    // Destroys every parked closure; free slots are already empty.
    slots_.clear();
    freeSlots_.clear();
    ringCount_ = 0;
    curIdx_ = 0;
    curBucketStart_ = 0;
    size_ = 0;
}

std::uint32_t
EventQueue::parkNew(EventFn &&fn)
{
    if (slots_.size() > std::numeric_limits<std::uint32_t>::max())
        panic("EventQueue: more than 2^32 pending events");
    slots_.push_back(std::move(fn));
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
    Bucket &b = ring_[curIdx_];
    ++ringCount_;
    if (b.sorted && !Earlier{}(b.v.back(), k)) {
        calendarInsertSorted(b, k);
        return;
    }
    b.v.push_back(k);
}

void
EventQueue::calendarInsertSorted(Bucket &b, const Key &k)
{
    // Rare out-of-order insert (e.g. a default-priority event
    // scheduled at now while a stats-priority event is still pending
    // at the same tick): shift into place.
    const auto pos =
        std::upper_bound(b.v.begin() + static_cast<std::ptrdiff_t>(b.head),
                         b.v.end(), k, Earlier{});
    b.v.insert(pos, k);
}

const EventQueue::Key *
EventQueue::calendarPeek()
{
    for (;;) {
        if (ringCount_ == 0)
            jumpToFar();
        Bucket &b = ring_[curIdx_];
        if (!b.v.empty()) {
            if (!b.sorted) {
                std::sort(b.v.begin(), b.v.end(), Earlier{});
                b.sorted = true;
            }
            return &b.v[b.head];
        }
        b.sorted = false;
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
    // > curBucketStart_, so the subtraction cannot wrap.
    const Tick span = ringSpan();
    while (!far_.empty() && far_.front().when - curBucketStart_ < span) {
        std::pop_heap(far_.begin(), far_.end(), Later{});
        const Key k = far_.back();
        far_.pop_back();
        ring_[static_cast<std::size_t>(k.when >> shift_) & ringMask_]
            .v.push_back(k);
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
