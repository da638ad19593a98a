/**
 * @file
 * The capability object guarding the simulator's mutable state.
 *
 * PartitionMutex is the lock type named by the thread-safety
 * annotations on the event queue, the kernel clock, the trace ring,
 * the metrics registry and the sampler.  It is deliberately NOT a real
 * mutex: one thread runs the whole simulation, so lock()/unlock()
 * compile to nothing in release builds and to a single-owner
 * re-entrancy assertion in debug builds.  The assertion is the
 * contract that matters: a path that re-acquires a capability it
 * already holds (e.g. an event callback scheduling from inside the
 * queue's locked region) would deadlock a real mutex, so it fails
 * fast instead.
 */

#ifndef HMCSIM_COMMON_PARTITION_MUTEX_H_
#define HMCSIM_COMMON_PARTITION_MUTEX_H_

#include <cassert>

#include "common/thread_annotations.h"

namespace hmcsim {

class HMCSIM_CAPABILITY("partition mutex") PartitionMutex
{
  public:
    PartitionMutex() = default;

    PartitionMutex(const PartitionMutex &) = delete;
    PartitionMutex &operator=(const PartitionMutex &) = delete;

    void
    lock() HMCSIM_ACQUIRE()
    {
#ifndef NDEBUG
        assert(!held_ && "PartitionMutex: re-entrant acquire -- this "
                         "path would deadlock a real mutex");
        held_ = true;
#endif
    }

    void
    unlock() HMCSIM_RELEASE()
    {
#ifndef NDEBUG
        assert(held_ && "PartitionMutex: unlock without lock");
        held_ = false;
#endif
    }

  private:
#ifndef NDEBUG
    bool held_ = false;
#endif
};

/** RAII guard for a PartitionMutex. */
class HMCSIM_SCOPED_CAPABILITY PartitionLock
{
  public:
    explicit PartitionLock(PartitionMutex &mu) HMCSIM_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }

    ~PartitionLock() HMCSIM_RELEASE() { mu_.unlock(); }

    PartitionLock(const PartitionLock &) = delete;
    PartitionLock &operator=(const PartitionLock &) = delete;

  private:
    PartitionMutex &mu_;
};

}  // namespace hmcsim

#endif  // HMCSIM_COMMON_PARTITION_MUTEX_H_
