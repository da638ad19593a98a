/**
 * @file
 * The capability objects guarding the simulator's shared state.
 *
 * PartitionMutex is the lock type named by the thread-safety
 * annotations on per-partition mutable state (event queue, trace ring
 * shard, metrics set).  It is deliberately NOT a real mutex, even
 * under the partitioned-parallel core: the core's design gives every
 * such object exactly one executing thread per lookahead window (a
 * partition's queue and clock belong to one worker; a trace shard to
 * one partition; cross-partition readers only run at quiescent
 * barriers), so lock()/unlock() compile to nothing in release builds
 * and to a single-owner re-entrancy assertion in debug builds.  The
 * assertion is the contract that matters: any path that re-acquires a
 * capability it already holds (e.g. an event callback scheduling from
 * inside the queue's locked region) would deadlock if the mutex were
 * real, so it fails fast now.
 *
 * RealMutex is the annotated wrapper over std::mutex for the few
 * surfaces the parallel core genuinely shares across threads at the
 * same instant: the partition mailboxes.  It exists because clang's
 * thread-safety analysis can only track capabilities that carry the
 * attribute -- a bare std::mutex would silence the GUARDED_BY checks.
 */

#ifndef HMCSIM_COMMON_PARTITION_MUTEX_H_
#define HMCSIM_COMMON_PARTITION_MUTEX_H_

#include <cassert>
#include <mutex>

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
                         "path deadlocks under the parallel core");
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

/** Annotated real mutex for surfaces that genuinely cross threads
 *  (partition mailboxes). */
class HMCSIM_CAPABILITY("mutex") RealMutex
{
  public:
    RealMutex() = default;

    RealMutex(const RealMutex &) = delete;
    RealMutex &operator=(const RealMutex &) = delete;

    void lock() HMCSIM_ACQUIRE() { mu_.lock(); }
    void unlock() HMCSIM_RELEASE() { mu_.unlock(); }

  private:
    std::mutex mu_;
};

/** RAII guard for a RealMutex. */
class HMCSIM_SCOPED_CAPABILITY RealLock
{
  public:
    explicit RealLock(RealMutex &mu) HMCSIM_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }

    ~RealLock() HMCSIM_RELEASE() { mu_.unlock(); }

    RealLock(const RealLock &) = delete;
    RealLock &operator=(const RealLock &) = delete;

  private:
    RealMutex &mu_;
};

}  // namespace hmcsim

#endif  // HMCSIM_COMMON_PARTITION_MUTEX_H_
