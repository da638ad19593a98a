#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/log.h"
#include "sim/event_queue.h"

namespace hmcsim {
namespace {

TEST(EventQueue, EmptyInitially)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextTime(), kTickNever);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFifoOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.executeNext();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(2); }, EventPriority::kStats);
    q.schedule(5, [&] { order.push_back(1); }, EventPriority::kDefault);
    q.schedule(5, [&] { order.push_back(3); }, EventPriority::kStop);
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ExecuteReturnsEventTime)
{
    EventQueue q;
    q.schedule(42, [] {});
    EXPECT_EQ(q.executeNext(), 42u);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(2, [&] { ++fired; });
    });
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ExecutedCount)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(i, [] {});
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(q.executedCount(), 5u);
}

TEST(EventQueue, Clear)
{
    EventQueue q;
    q.schedule(1, [] { FAIL() << "cleared event must not run"; });
    q.clear();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NullEventPanics)
{
    EventQueue q;
    EXPECT_THROW(q.schedule(1, EventFn{}), PanicError);
}

TEST(EventQueue, ExecuteEmptyPanics)
{
    EventQueue q;
    EXPECT_THROW(q.executeNext(), PanicError);
}

TEST(EventQueue, RandomTimesFireInOrder)
{
    EventQueue q;
    // Insert pseudo-random times, verify monotone execution.
    std::uint64_t s = 99;
    for (int i = 0; i < 2000; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        q.schedule(s % 100000, [] {});
    }
    Tick last = 0;
    while (!q.empty()) {
        const Tick t = q.executeNext();
        EXPECT_GE(t, last);
        last = t;
    }
}

TEST(EventQueue, FiredClosureIsDestroyed)
{
    EventQueue q;
    const auto token = std::make_shared<int>(0);
    for (Tick t = 1; t <= 3; ++t) {
        q.schedule(t * 1000, [token] { ++*token; });
        EXPECT_EQ(token.use_count(), 2);
        q.executeNext();
        EXPECT_EQ(token.use_count(), 1) << "capture outlived its event";
    }
    EXPECT_EQ(*token, 3);
}

TEST(EventQueue, ClearDestroysPendingClosures)
{
    EventQueue q;
    const auto token = std::make_shared<int>(0);
    // Near times land in ring buckets, the last one beyond the ring
    // horizon in the far-future heap; clear() must release both.
    for (Tick t : {Tick(0), Tick(10), Tick(700), Tick(1) << 40})
        q.schedule(t, [token] { ++*token; });
    q.executeNext();
    EXPECT_EQ(token.use_count(), 4);
    q.clear();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 1);

    // The queue stays usable after clear().
    q.schedule(5, [token] { ++*token; });
    q.executeNext();
    EXPECT_EQ(*token, 2);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, DestructorDestroysPendingClosures)
{
    const auto token = std::make_shared<int>(0);
    {
        EventQueue q;
        for (Tick t : {Tick(3), Tick(3), Tick(900), Tick(1) << 40})
            q.schedule(t, [token] { ++*token; });
        q.executeNext();
        EXPECT_EQ(token.use_count(), 4);
    }
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 1);
}

TEST(EventQueue, RecycledSlotsKeepTheirOwnCaptures)
{
    // Many schedule/execute rounds with a partly drained queue, so
    // freed slots are reused while older events are still parked.
    // Each event's capture carries its id twice (by value and behind
    // a shared_ptr); at fire time both must name the event that was
    // scheduled for that time.
    EventQueue q;
    std::vector<int> fired;
    int nextId = 0;
    Tick now = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 40; ++i) {
            const int id = nextId++;
            const auto owner = std::make_shared<const int>(id);
            // Unique time per id: fire order is id order.
            q.schedule(Tick(id) * 37 + 1,
                       [&fired, id, owner] {
                           EXPECT_EQ(*owner, id);
                           fired.push_back(id);
                       });
        }
        for (int i = 0; i < 30; ++i)
            now = q.executeNext();
    }
    while (!q.empty())
        now = q.executeNext();
    EXPECT_EQ(now, Tick(nextId - 1) * 37 + 1);
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(nextId));
    for (int i = 0; i < nextId; ++i)
        EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace hmcsim
