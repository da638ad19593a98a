#include "sim/parallel_scheduler.h"

#include <algorithm>

#include "common/log.h"
#include "sim/kernel.h"

namespace hmcsim {

namespace {

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
}

}  // namespace

void
SpinBarrier::arriveAndWait()
{
    const std::uint32_t gen = gen_.load(std::memory_order_acquire);
    if (pending_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
        pending_.store(0, std::memory_order_relaxed);
        gen_.store(gen + 1, std::memory_order_release);
        return;
    }
    std::uint32_t spins = 0;
    while (gen_.load(std::memory_order_acquire) == gen) {
        if (spins++ < spinLimit_)
            cpuRelax();
        else
            std::this_thread::yield();
    }
}

ParallelScheduler::ParallelScheduler(Kernel &kernel, std::uint32_t partitions,
                                     std::uint32_t threads, Tick lookahead)
    : kernel_(kernel), lookahead_(lookahead),
      threads_(std::max<std::uint32_t>(
          1, std::min(threads, partitions))),
      barrier_(std::max<std::uint32_t>(
                   1, std::min(threads, partitions)),
               std::min(threads, partitions) <=
                       std::thread::hardware_concurrency()
                   ? 4096
                   : 0),
      localMin_(std::max<std::uint32_t>(
          1, std::min(threads, partitions)))
{
    if (partitions < 1)
        panic("ParallelScheduler: need at least one partition");
    if (lookahead_ == 0)
        panic("ParallelScheduler: zero lookahead (no conservative "
              "window exists)");
    for (std::uint32_t p = 0; p < partitions; ++p)
        parts_.push_back(std::make_unique<Partition>(p));
    global_ = std::make_unique<Partition>(partitions);
    for (std::uint32_t tid = 1; tid < threads_; ++tid)
        workers_.emplace_back([this, tid] { workerMain(tid); });
}

ParallelScheduler::~ParallelScheduler()
{
    {
        std::lock_guard<std::mutex> lock(runMu_);
        exit_ = true;
    }
    runCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

Partition *
ParallelScheduler::partition(std::uint32_t id)
{
    if (id >= parts_.size())
        panic("ParallelScheduler::partition: id out of range");
    return parts_[id].get();
}

std::uint64_t
ParallelScheduler::eventsExecuted() const
{
    std::uint64_t n = global_->queue().executedCount();
    for (const auto &p : parts_)
        n += p->queue().executedCount();
    return n;
}

void
ParallelScheduler::workerMain(std::uint32_t tid)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(runMu_);
            runCv_.wait(lock,
                        [this, seen] { return exit_ || runGen_ != seen; });
            if (exit_)
                return;
            seen = runGen_;
        }
        windowLoop(tid);
    }
}

void
ParallelScheduler::executeWindow(Partition *p, Tick end)
{
    ScopedSchedulePartition scope(p);
    EventQueue &q = p->queue();
    for (;;) {
        const Tick next = q.nextTime();
        if (next >= end)
            break;
        p->setLocalNow(next);
        q.executeNext();
    }
}

void
ParallelScheduler::windowLoop(std::uint32_t tid)
{
    const std::uint32_t np = static_cast<std::uint32_t>(parts_.size());
    for (;;) {
        // Phase A: publish the earliest pending time over this
        // thread's partitions (thread 0 also covers the global one).
        Tick m = kTickNever;
        for (std::uint32_t p = tid; p < np; p += threads_)
            m = std::min(m, parts_[p]->queue().nextTime());
        if (tid == 0)
            m = std::min(m, global_->queue().nextTime());
        localMin_[tid].v = m;
        barrier_.arriveAndWait();

        // Phase B: thread 0 reduces the window while everyone else
        // waits; the whole tree is quiesced here, so the predicate
        // sees a consistent state.
        if (tid == 0) {
            Tick tmin = kTickNever;
            for (const PaddedTick &t : localMin_)
                tmin = std::min(tmin, t.v);
            bool done = false;
            if (kernel_.stopRequested()) {
                done = true;
            } else if (pred_ && (*pred_)()) {
                done = true;
                predHit_ = true;
            } else if (tmin == kTickNever || tmin > until_) {
                done = true;
            }
            doneFlag_ = done;
            if (!done) {
                Tick end = lookahead_ > kTickNever - tmin
                               ? kTickNever
                               : tmin + lookahead_;
                if (until_ != kTickNever)
                    end = std::min(end, until_ + 1);
                // Clip to the next whole-tree observer event: it must
                // fire with every partition quiesced at its tick.
                const Tick tg = global_->queue().nextTime();
                if (tg != kTickNever)
                    end = std::min(end, tg + 1);
                windowEndExcl_ = end;
            }
        }
        barrier_.arriveAndWait();
        if (doneFlag_) {
            // Exit consensus: one more barrier AFTER every thread has
            // read doneFlag_.  Without it thread 0 could return, start
            // the next run, and reset doneFlag_ while a slow worker is
            // still about to read it -- the worker would then sail
            // into a stale window and desynchronize the barrier
            // phases permanently.
            barrier_.arriveAndWait();
            return;
        }

        // Phase C: the parallel part -- every partition executes its
        // window slice lock-free on its own clock.
        const Tick end = windowEndExcl_;
        for (std::uint32_t p = tid; p < np; p += threads_)
            executeWindow(parts_[p].get(), end);
        barrier_.arriveAndWait();

        // Phase D: drain the cross-partition mailboxes in canonical
        // order, then let thread 0 run any due global events against
        // the quiesced tree.  (Observers only read model counters, so
        // they can overlap the other threads' queue-only drains.)
        for (std::uint32_t p = tid; p < np; p += threads_)
            parts_[p]->drainMailbox();
        if (tid == 0 && global_->queue().nextTime() < end)
            executeWindow(global_.get(), end);
    }
}

std::uint64_t
// hmcsim-lint: allow(std-function) one predicate per run(), not per-event
ParallelScheduler::runCommon(const std::function<bool()> *pred, Tick until)
{
    const std::uint64_t before = eventsExecuted();
    until_ = until;
    pred_ = pred;
    doneFlag_ = false;
    predHit_ = false;
    {
        std::lock_guard<std::mutex> lock(runMu_);
        ++runGen_;
    }
    runCv_.notify_all();
    windowLoop(0);

    // Mirror the serial kernel's idle-horizon semantics: back-to-back
    // measurement windows see contiguous time even when the schedule
    // drains early -- unless a stop or a satisfied predicate ended the
    // run at a meaningful earlier time.
    Tick final_now = global_->localNow();
    for (const auto &p : parts_)
        final_now = std::max(final_now, p->localNow());
    if (until != kTickNever && final_now < until &&
        !kernel_.stopRequested() && !predHit_)
        final_now = until;
    global_->setLocalNow(final_now);
    for (const auto &p : parts_)
        p->setLocalNow(final_now);
    kernel_.setNow(final_now);
    return eventsExecuted() - before;
}

std::uint64_t
ParallelScheduler::run(Tick until)
{
    return runCommon(nullptr, until);
}

std::uint64_t
// hmcsim-lint: allow(std-function) one predicate per run(), not per-event
ParallelScheduler::runUntil(const std::function<bool()> &pred, Tick until)
{
    return runCommon(&pred, until);
}

}  // namespace hmcsim
