/**
 * @file
 * Differential determinism tests: the calendar queue must execute
 * every workload in exactly the order a plain priority queue over
 * (time, priority, seq) does.  The simulator's figures are pinned
 * bit-for-bit to that execution order, so any divergence here is a
 * correctness bug in the calendar, not a tuning matter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace hmcsim {
namespace {

/** Deterministic xorshift64 PRNG, seeded per scenario. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed ? seed : 1) {}

    std::uint64_t
    next()
    {
        s_ ^= s_ << 13;
        s_ ^= s_ >> 7;
        s_ ^= s_ << 17;
        return s_;
    }

    /** Uniform in [0, n). */
    std::uint64_t next(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

/** One scheduled event in a replayable workload. */
struct Op {
    Tick when;
    int priority;
    int id;
};

/**
 * Deliberately small calendar geometry (64 ps x 256 buckets = 16 ns
 * span) so the workloads exercise ring wrap, far-future migration, and
 * empty-ring re-anchoring, not just the happy path.
 */
class SmallCalendar : public EventQueue
{
  public:
    SmallCalendar() : EventQueue(64, 256) {}
};

/**
 * The reference order: a std::priority_queue over (when, priority,
 * seq, id), with the callbacks held beside it by id.  Same API subset
 * as EventQueue, so every scenario runs unchanged on both.
 */
class ReferenceQueue
{
  public:
    void
    schedule(Tick when, std::function<void()> fn, int priority = 0)
    {
        const int id = static_cast<int>(fns_.size());
        fns_.push_back(std::move(fn));
        heap_.emplace(when, priority, nextSeq_++, id);
    }

    bool empty() const { return heap_.empty(); }

    Tick
    executeNext()
    {
        const Key top = heap_.top();
        heap_.pop();
        // Moved out first: the callback may schedule, which can
        // reallocate fns_ under it.
        const std::function<void()> fn =
            std::move(fns_[static_cast<std::size_t>(std::get<3>(top))]);
        fn();
        return std::get<0>(top);
    }

    void
    clear()
    {
        heap_ = {};
        fns_.clear();
    }

  private:
    using Key = std::tuple<Tick, int, std::uint64_t, int>;

    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap_;
    std::vector<std::function<void()>> fns_;
    std::uint64_t nextSeq_ = 0;
};

/** Run @p ops through a fresh queue @p Q; return execution order. */
template <typename Q>
std::vector<int>
execute(const std::vector<Op> &ops)
{
    Q q;
    std::vector<int> order;
    order.reserve(ops.size());
    for (const Op &op : ops)
        q.schedule(op.when, [&order, id = op.id] { order.push_back(id); },
                   op.priority);
    while (!q.empty())
        q.executeNext();
    return order;
}

/** The calendar must match the reference order of @p ops exactly. */
void
expectIdenticalOrder(const std::vector<Op> &ops)
{
    const std::vector<int> ref = execute<ReferenceQueue>(ops);
    const std::vector<int> cal = execute<SmallCalendar>(ops);
    ASSERT_EQ(ref.size(), ops.size());
    ASSERT_EQ(ref.size(), cal.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], cal[i]) << "divergence at event " << i;
}

TEST(QueueDifferential, RandomInterleavings)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed * 0x9e3779b97f4a7c15ull);
        std::vector<Op> ops;
        for (int i = 0; i < 500; ++i) {
            Op op;
            op.when = rng.next(5000);
            op.priority = 0;
            op.id = i;
            ops.push_back(op);
        }
        expectIdenticalOrder(ops);
    }
}

TEST(QueueDifferential, SameTickSamePriorityIsFifo)
{
    // Many events at few distinct (time, priority) keys: order within
    // a key must be schedule order.
    std::vector<Op> ops;
    for (int i = 0; i < 300; ++i) {
        Op op;
        op.when = static_cast<Tick>((i * 7) % 3) * 100;
        op.priority = 0;
        op.id = i;
        ops.push_back(op);
    }
    expectIdenticalOrder(ops);
}

TEST(QueueDifferential, CrossPriorityTies)
{
    // Interleave priorities at shared ticks, including events pushed
    // "behind" an already-pending higher-priority event at the same
    // tick (the calendar's rare rotate-insert path).
    const int prios[] = {EventPriority::kStop, EventPriority::kDefault,
                         EventPriority::kStats, EventPriority::kDefault};
    std::vector<Op> ops;
    Rng rng(42);
    for (int i = 0; i < 400; ++i) {
        Op op;
        op.when = rng.next(50) * 10;
        op.priority = prios[i % 4];
        op.id = i;
        ops.push_back(op);
    }
    expectIdenticalOrder(ops);
}

TEST(QueueDifferential, FarFutureInserts)
{
    // Times far beyond the calendar ring horizon force the far-future
    // heap and the empty-ring jump; mix them with near times so the
    // migration boundary is crossed repeatedly.
    Rng rng(7);
    std::vector<Op> ops;
    for (int i = 0; i < 400; ++i) {
        Op op;
        op.when = (i % 3 == 0) ? 1000000 + rng.next(1000000)
                               : rng.next(2000);
        op.priority = 0;
        op.id = i;
        ops.push_back(op);
    }
    expectIdenticalOrder(ops);
}

/**
 * Events scheduling events: replay the same self-scheduling program
 * on the calendar and the reference and compare the full execution
 * trace.  Delays are drawn from a PRNG stream keyed only by the
 * executing event's id, so both queues see identical programs.
 */
template <typename Q>
std::vector<std::pair<Tick, int>>
runSelfScheduling()
{
    Q q;
    std::vector<std::pair<Tick, int>> trace;
    int nextId = 0;
    // Seed events; each execution re-schedules up to two children
    // derived deterministically from its own id, so both queues see
    // the identical program.
    std::function<void(int, int, Tick)> fire = [&](int id, int depth,
                                                   Tick when) {
        trace.emplace_back(when, id);
        if (depth >= 6)
            return;
        Rng rng(static_cast<std::uint64_t>(id) * 2654435761u + 1);
        const int children = 1 + static_cast<int>(rng.next(2));
        for (int c = 0; c < children; ++c) {
            const int cid = nextId++;
            // Mix of short, bucket-crossing, and far-future delays;
            // zero-delay children exercise the same-tick path.
            const Tick delay =
                rng.next(4) == 0
                    ? 0
                    : rng.next(3) == 0 ? 100000 + rng.next(9999)
                                       : rng.next(700);
            const int prio = rng.next(5) == 0 ? EventPriority::kStats
                                              : EventPriority::kDefault;
            const Tick cwhen = when + delay;
            q.schedule(cwhen,
                       [&fire, cid, depth, cwhen] {
                           fire(cid, depth + 1, cwhen);
                       },
                       prio);
        }
    };
    for (int i = 0; i < 8; ++i) {
        const int id = nextId++;
        const Tick when = static_cast<Tick>(i) * 37;
        q.schedule(when, [&fire, id, when] { fire(id, 0, when); });
    }
    while (!q.empty())
        q.executeNext();
    return trace;
}

TEST(QueueDifferential, ScheduleFromWithinEvents)
{
    const auto ref = runSelfScheduling<ReferenceQueue>();
    const auto cal = runSelfScheduling<SmallCalendar>();
    ASSERT_EQ(ref.size(), cal.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i].first, cal[i].first) << "time diverged at " << i;
        ASSERT_EQ(ref[i].second, cal[i].second) << "id diverged at " << i;
    }
}

/**
 * Execute half a workload, clear(), then replay a second workload on
 * the same queue object; return the combined execution order.
 * Exercises the clear()-then-reuse path: the ring anchor, the
 * far-future heap, and the FIFO sequence counter must all reset so the
 * second life of the queue behaves exactly like a fresh one.
 */
template <typename Q>
std::vector<int>
executeWithClear(const std::vector<Op> &first, const std::vector<Op> &second)
{
    Q q;
    std::vector<int> order;
    for (const Op &op : first)
        q.schedule(op.when, [&order, id = op.id] { order.push_back(id); },
                   op.priority);
    for (std::size_t i = 0; i < first.size() / 2 && !q.empty(); ++i)
        q.executeNext();
    q.clear();
    EXPECT_TRUE(q.empty());
    for (const Op &op : second)
        q.schedule(op.when, [&order, id = op.id] { order.push_back(id); },
                   op.priority);
    while (!q.empty())
        q.executeNext();
    return order;
}

TEST(QueueDifferential, ClearThenReuse)
{
    // First life: a mix of near and far-future times so clear() has to
    // discard state in both the ring and the overflow heap.  Second
    // life: small times again (behind the discarded far-future ones),
    // same-key runs to check the FIFO counter, and a far insert.
    Rng rng(99);
    std::vector<Op> first;
    for (int i = 0; i < 200; ++i) {
        Op op;
        op.when = (i % 4 == 0) ? 500000 + rng.next(100000) : rng.next(3000);
        op.priority = 0;
        op.id = i;
        first.push_back(op);
    }
    std::vector<Op> second;
    for (int i = 0; i < 200; ++i) {
        Op op;
        // Many same-(time, priority) keys: FIFO order within a key
        // must restart cleanly after clear().
        op.when = rng.next(8) * 100;
        op.priority = (i % 5 == 0) ? EventPriority::kStats
                                   : EventPriority::kDefault;
        op.id = 1000 + i;
        second.push_back(op);
    }
    Op far;
    far.when = 2000000;
    far.priority = 0;
    far.id = 9999;
    second.push_back(far);

    const auto ref = executeWithClear<ReferenceQueue>(first, second);
    const auto cal = executeWithClear<SmallCalendar>(first, second);
    ASSERT_EQ(ref.size(), cal.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], cal[i]) << "divergence at event " << i;
}

/**
 * A production-shaped event capture: 56 B with the context pointer,
 * owning a shared_ptr like the SerDes link's packet-carrying lambdas.
 * Non-trivial to move, and large enough that a closure parked in the
 * wrong slot shows up as a corrupted payload, not only as a
 * reordering.
 */
struct BigPayload {
    /** Shared by every live capture: use_count() counts them. */
    std::shared_ptr<int> owner;
    /** Derived from id; checked when the event fires. */
    std::uint64_t check[2];
    int id;
    int depth;
    Tick when;
};

std::uint64_t
checkWord(int id, int k)
{
    return (static_cast<std::uint64_t>(id) + 1) * 0x9e3779b97f4a7c15ull +
           static_cast<std::uint64_t>(k);
}

/** One fired event: time, id, and whether its payload arrived intact. */
using BigFire = std::tuple<Tick, int, bool>;

/**
 * Rounds of large-capture events on one queue object: each round
 * schedules a batch of near, bucket-crossing and far-future roots,
 * drains about half the pending set while events spawn children, and
 * every other round clear()s the rest.  Slots are therefore recycled
 * while older closures stay parked, keys migrate out of the far heap
 * with their closures left in place, and clear() must destroy every
 * parked capture.  @p live receives the tracker's use_count after
 * each clear() and at the end (1 means no capture leaked).
 */
template <typename Q>
std::vector<BigFire>
runLargeCaptures(std::vector<long> &live)
{
    struct Ctx {
        Q q;
        std::shared_ptr<int> tracker = std::make_shared<int>(0);
        std::vector<BigFire> trace;
        int nextId = 0;

        void
        schedule(Tick when, int depth, int priority)
        {
            const int id = nextId++;
            BigPayload p{tracker, {checkWord(id, 0), checkWord(id, 1)},
                         id, depth, when};
            q.schedule(when,
                       [this, p = std::move(p)] { fire(p); },
                       priority);
        }

        void
        fire(const BigPayload &p)
        {
            const bool intact = p.check[0] == checkWord(p.id, 0) &&
                                p.check[1] == checkWord(p.id, 1);
            trace.emplace_back(p.when, p.id, intact);
            if (p.depth >= 3)
                return;
            Rng rng(static_cast<std::uint64_t>(p.id) * 2654435761u + 7);
            const int children = static_cast<int>(rng.next(3));
            for (int c = 0; c < children; ++c) {
                const Tick delay = rng.next(4) == 0
                                       ? 0
                                       : rng.next(3) == 0
                                             ? 50000 + rng.next(9999)
                                             : rng.next(900);
                schedule(p.when + delay, p.depth + 1,
                         rng.next(5) == 0 ? EventPriority::kStats
                                          : EventPriority::kDefault);
            }
        }
    };
    static_assert(sizeof(BigPayload) + sizeof(void *) == 56,
                  "capture should stay production-sized");

    Ctx ctx;
    Rng rng(2024);
    Tick now = 0;
    for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < 80; ++i) {
            const Tick delay = i % 5 == 0 ? 200000 + rng.next(400000)
                                          : rng.next(3000);
            ctx.schedule(now + delay, 0,
                         i % 7 == 0 ? EventPriority::kStats
                                    : EventPriority::kDefault);
        }
        for (int n = 0; n < 60 && !ctx.q.empty(); ++n)
            now = ctx.q.executeNext();
        if (round % 2 == 1) {
            ctx.q.clear();
            live.push_back(ctx.tracker.use_count());
        }
    }
    while (!ctx.q.empty())
        ctx.q.executeNext();
    live.push_back(ctx.tracker.use_count());
    return ctx.trace;
}

TEST(QueueDifferential, LargeCapturesWithClearAndReuse)
{
    std::vector<long> refLive;
    std::vector<long> calLive;
    const auto ref = runLargeCaptures<ReferenceQueue>(refLive);
    const auto cal = runLargeCaptures<SmallCalendar>(calLive);
    ASSERT_GT(ref.size(), 400u);
    ASSERT_EQ(ref.size(), cal.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i], cal[i]) << "divergence at event " << i;
        ASSERT_TRUE(std::get<2>(cal[i])) << "corrupt capture at " << i;
    }
    EXPECT_EQ(calLive, std::vector<long>(5, 1));
    EXPECT_EQ(refLive, calLive);
}

/** Fire times executeNext reports for a random in-order workload. */
template <typename Q>
std::vector<Tick>
fireTimes()
{
    Q q;
    Rng rng(1234);
    for (int i = 0; i < 1000; ++i)
        q.schedule(rng.next(30000), [] {});
    std::vector<Tick> times;
    while (!q.empty())
        times.push_back(q.executeNext());
    return times;
}

TEST(QueueDifferential, MonotoneNonDecreasingFireTimes)
{
    // The calendar clamps past-times into the current bucket; fire
    // times reported by executeNext must still be non-decreasing for
    // in-order workloads on both the calendar and the reference.
    const std::vector<Tick> ref = fireTimes<ReferenceQueue>();
    const std::vector<Tick> cal = fireTimes<SmallCalendar>();
    EXPECT_EQ(ref, cal);
    for (std::size_t i = 1; i < cal.size(); ++i)
        EXPECT_GE(cal[i], cal[i - 1]);
}

}  // namespace
}  // namespace hmcsim
