#include "sim/kernel.h"

#include "common/log.h"
#include "sim/parallel_scheduler.h"

namespace hmcsim {

Kernel::Kernel() = default;

Kernel::~Kernel() = default;

void
Kernel::scheduleAt(Tick when, EventFn fn, int priority)
{
    const Tick current = now();
    if (when < current)
        panic("Kernel::scheduleAt: time " + std::to_string(when) +
              " is in the past (now " + std::to_string(current) + ")");
    targetQueue().schedule(when, std::move(fn), priority);
}

void
Kernel::enableParallel(std::uint32_t partitions, std::uint32_t threads,
                       Tick lookahead)
{
    if (sched_)
        panic("Kernel::enableParallel: already enabled");
    if (queue_.size() != 0)
        panic("Kernel::enableParallel: events already scheduled on the "
              "serial queue");
    sched_ = std::make_unique<ParallelScheduler>(*this, partitions,
                                                 threads, lookahead);
    globalPart_ = sched_->globalPartition();
}

Partition *
Kernel::partition(std::uint32_t id)
{
    return sched_ ? sched_->partition(id) : nullptr;
}

std::uint64_t
Kernel::eventsExecuted() const
{
    return sched_ ? sched_->eventsExecuted() : queue_.executedCount();
}

void
Kernel::postCross(Partition *dst, Tick when, EventFn fn, int priority)
{
    Partition *src = t_schedPartition;
    if (dst == nullptr || src == nullptr || dst == src) {
        scheduleAt(when, std::move(fn), priority);
        return;
    }
    dst->post(when, priority, src->id(), src->nextCrossSeq(),
              std::move(fn));
}

std::uint64_t
Kernel::run(Tick until)
{
    clearStop();
    if (sched_)
        return sched_->run(until);
    std::uint64_t executed = 0;
    while (!queue_.empty() && !stopRequested()) {
        const Tick next = queue_.nextTime();
        if (next > until)
            break;
        setNow(next);
        queue_.executeNext();
        ++executed;
    }
    // Advance time to the requested horizon so back-to-back windows
    // measure contiguous intervals even if the queue went idle early.
    if (until != kTickNever && now() < until && !stopRequested())
        setNow(until);
    return executed;
}

std::uint64_t
// hmcsim-lint: allow(std-function) one predicate per run(), not per-event
Kernel::runUntil(const std::function<bool()> &pred, Tick until)
{
    clearStop();
    if (sched_)
        return sched_->runUntil(pred, until);
    std::uint64_t executed = 0;
    bool predHit = false;
    while (!queue_.empty() && !stopRequested()) {
        if (pred()) {
            predHit = true;
            break;
        }
        const Tick next = queue_.nextTime();
        if (next > until)
            break;
        setNow(next);
        queue_.executeNext();
        ++executed;
    }
    // Same idle-horizon semantics as run(): an early drain (or an
    // event horizon past @p until) still advances the clock to the
    // requested horizon, so back-to-back measurement windows stay
    // contiguous.  A satisfied predicate does not advance -- its
    // firing time is the result the caller is after.
    if (until != kTickNever && now() < until && !stopRequested() &&
        !predHit && !pred())
        setNow(until);
    return executed;
}

}  // namespace hmcsim
