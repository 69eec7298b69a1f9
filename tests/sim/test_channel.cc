/** @file Tests for the fixed-latency channel (delay line) and the ring
 *  queue it keeps its in-flight items in. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/channel.hh"
#include "sim/ring.hh"

using namespace pdr::sim;

TEST(ChannelTest, DeliversAfterLatency)
{
    Channel<int> c(3);
    c.push(42, 10);
    EXPECT_FALSE(c.pop(10).has_value());
    EXPECT_FALSE(c.pop(12).has_value());
    auto v = c.pop(13);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 42);
}

TEST(ChannelTest, ExtraDelayAdds)
{
    Channel<int> c(1);
    c.push(7, 5, 2);    // Ready at 5 + 1 + 2 = 8.
    EXPECT_FALSE(c.pop(7).has_value());
    ASSERT_TRUE(c.pop(8).has_value());
}

TEST(ChannelTest, FifoOrderPreserved)
{
    Channel<int> c(1);
    for (int i = 0; i < 5; i++)
        c.push(i, Cycle(i));
    for (int i = 0; i < 5; i++) {
        auto v = c.pop(Cycle(i + 1));
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
}

TEST(ChannelTest, PopOnlyMatured)
{
    Channel<int> c(2);
    c.push(1, 0);
    c.push(2, 1);
    EXPECT_EQ(*c.pop(2), 1);
    EXPECT_FALSE(c.pop(2).has_value());  // Second not ready until 3.
    EXPECT_EQ(*c.pop(3), 2);
}

TEST(ChannelTest, InFlightCount)
{
    Channel<int> c(4);
    EXPECT_TRUE(c.empty());
    c.push(1, 0);
    c.push(2, 1);
    EXPECT_EQ(c.inFlight(), 2u);
    (void)c.pop(4);
    EXPECT_EQ(c.inFlight(), 1u);
}

TEST(ChannelTest, LatencyOneMinimum)
{
    EXPECT_DEATH(Channel<int>(0), "");
}

TEST(ChannelTest, OutOfOrderPushPanics)
{
    Channel<int> c(1);
    c.push(1, 10, 5);   // Ready 16.
    EXPECT_DEATH(c.push(2, 11, 0), "");  // Ready 12 < 16.
}

TEST(RingTest, PushesAndPopsWrapPastCapacity)
{
    // Never more than 3 queued, so the ring stays at its first
    // allocation while the head laps the buffer many times.
    Ring<int> r;
    EXPECT_EQ(r.capacity(), 0u);
    int next = 0, expect = 0;
    for (int round = 0; round < 20; round++) {
        for (int i = 0; i < 1 + round % 3; i++)
            r.push_back(next++);
        EXPECT_EQ(r.back(), next - 1);
        while (!r.empty()) {
            EXPECT_EQ(r.front(), expect++);
            r.pop_front();
        }
    }
    EXPECT_EQ(expect, next);
    EXPECT_EQ(r.capacity(), Ring<int>::kMinCapacity);
}

TEST(RingTest, GrowsFromAWrappedStateKeepingOrder)
{
    Ring<int> r;
    for (int i = 0; i < 4; i++)
        r.push_back(i);
    for (int i = 0; i < 3; i++)
        r.pop_front();
    // Head is now at slot 3; these pushes wrap to slots 0..2.
    for (int i = 4; i < 7; i++)
        r.push_back(i);
    ASSERT_EQ(r.capacity(), 4u);
    // Full and wrapped: the next pushes double the buffer twice.
    for (int i = 7; i < 19; i++)
        r.push_back(i);
    EXPECT_EQ(r.capacity(), 16u);
    ASSERT_EQ(r.size(), 16u);
    for (std::size_t i = 0; i < r.size(); i++)
        EXPECT_EQ(r[i], int(i) + 3);
    std::vector<int> seen;
    r.forEach([&seen](int x) { seen.push_back(x); });
    ASSERT_EQ(seen.size(), 16u);
    EXPECT_EQ(seen.front(), 3);
    EXPECT_EQ(seen.back(), 18);
    for (int i = 3; i < 19; i++) {
        EXPECT_EQ(r.front(), i);
        r.pop_front();
    }
    EXPECT_TRUE(r.empty());
}

TEST(RingDeathTest, EmptyAccessPanics)
{
    Ring<int> r;
    EXPECT_DEATH(r.pop_front(), "");
    EXPECT_DEATH((void)r.front(), "");
    EXPECT_DEATH((void)r.back(), "");
    r.push_back(1);
    EXPECT_DEATH((void)r[1], "");
}

TEST(ChannelTest, GrowthWithItemsInFlightKeepsOrderAndReadyCycles)
{
    // Latency 3: lap the ring first, so the growth below starts from a
    // wrapped buffer, then queue far more than the first allocation.
    Channel<int> c(3);
    for (int i = 0; i < 9; i++) {
        c.push(i, Cycle(i));
        auto v = c.pop(Cycle(i + 3));
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    for (int i = 0; i < 40; i++)
        c.push(100 + i, Cycle(20 + i));
    EXPECT_EQ(c.inFlight(), 40u);
    EXPECT_EQ(c.nextReady(), Cycle(23));
    for (int i = 0; i < 40; i++) {
        const Cycle ready = Cycle(23 + i);
        EXPECT_EQ(c.nextReady(), ready);
        EXPECT_FALSE(c.pop(ready - 1).has_value());
        auto v = c.pop(ready);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, 100 + i);
    }
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(c.nextReady(), CycleNever);
}

TEST(ChannelTest, StagedPushesDrainIntoAWrappedRing)
{
    std::vector<Cycle> wake(2, CycleNever);
    Channel<int> c(2);
    c.watch(&wake, 1);
    // Lap the ring so its head sits mid-buffer.
    for (int i = 0; i < 6; i++) {
        c.push(i, Cycle(i));
        EXPECT_EQ(*c.pop(Cycle(i + 2)), i);
    }
    wake[1] = CycleNever;
    c.push(10, 10);             // Live: ready 12.
    c.setStaged(true);
    EXPECT_TRUE(c.staged());
    c.push(11, 11);             // Staged: ready 13.
    c.push(12, 12, 1);          // Staged: ready 15.
    // Staged items are invisible until the drain.
    EXPECT_EQ(c.inFlight(), 1u);
    EXPECT_EQ(wake[1], Cycle(12));
    EXPECT_EQ(*c.pop(12), 10);
    wake[1] = CycleNever;
    c.drainStaged();
    EXPECT_EQ(wake[1], Cycle(13));
    EXPECT_EQ(c.inFlight(), 2u);
    c.setStaged(false);
    c.push(13, 14);             // Live again: ready 16.
    EXPECT_FALSE(c.pop(12).has_value());
    EXPECT_EQ(*c.pop(13), 11);
    EXPECT_FALSE(c.pop(14).has_value());
    EXPECT_EQ(*c.pop(15), 12);
    EXPECT_EQ(*c.pop(16), 13);
    EXPECT_TRUE(c.empty());
}

TEST(ChannelTest, ForEachInFlightVisitsOldestFirst)
{
    Channel<int> c(4);
    for (int i = 0; i < 3; i++)
        c.push(i, Cycle(i));
    (void)c.pop(4);
    (void)c.pop(5);
    // Wrap past the first allocation and grow while two are queued.
    for (int i = 3; i < 9; i++)
        c.push(i, Cycle(i));
    std::vector<std::pair<Cycle, int>> seen;
    c.forEachInFlight(
        [&seen](Cycle ready, int v) { seen.emplace_back(ready, v); });
    ASSERT_EQ(seen.size(), 7u);
    for (std::size_t i = 0; i < seen.size(); i++) {
        EXPECT_EQ(seen[i].second, int(i) + 2);
        EXPECT_EQ(seen[i].first, Cycle(i + 2 + 4));
    }
}
