/** @file Tests for the fixed-latency channel (delay line), the ring
 *  queue it keeps its in-flight items in, and the arrival calendar its
 *  consumer reads due channels from. */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/calendar.hh"
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
    c.drainStaged(12);
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

TEST(ChannelCalendarTest, PushMarksTheReadySlot)
{
    ArrivalCalendar cal;
    Channel<int> flits(3), credits(2);
    flits.attach(&cal, ArrivalCalendar::Flit, 4);
    credits.attach(&cal, ArrivalCalendar::Credit, 1);
    flits.push(1, 10);          // Ready 13.
    credits.push(2, 10, 1);     // Ready 13.
    credits.push(3, 11, 1);     // Ready 14.
    EXPECT_TRUE(flits.frontMarked());
    EXPECT_TRUE(credits.frontMarked());
    EXPECT_EQ(cal.next(11), Cycle(13));
    const auto early = cal.take(12);
    EXPECT_EQ(early.flit | early.credit, 0u);
    const auto due = cal.take(13);
    EXPECT_EQ(due.flit, std::uint64_t(1) << 4);
    EXPECT_EQ(due.credit, std::uint64_t(1) << 1);
    EXPECT_EQ(*flits.pop(13), 1);
    EXPECT_EQ(*credits.pop(13), 2);
    EXPECT_EQ(cal.next(14), Cycle(14));
    EXPECT_EQ(cal.take(14).credit, std::uint64_t(1) << 1);
    EXPECT_TRUE(cal.empty());
    EXPECT_EQ(cal.next(15), CycleNever);
}

TEST(ChannelCalendarTest, DrainStagedMarksTheReadySlot)
{
    ArrivalCalendar cal;
    Channel<int> c(2);
    c.attach(&cal, ArrivalCalendar::Flit, 0);
    c.setStaged(true);
    c.push(7, 5);               // Staged: ready 7.
    c.push(8, 6);               // Staged: ready 8.
    // The mark travels with the item: nothing until the drain.
    EXPECT_TRUE(cal.empty());
    c.drainStaged(6);
    EXPECT_TRUE(c.frontMarked());
    EXPECT_EQ(cal.next(6), Cycle(7));
    EXPECT_EQ(cal.take(7).flit, 1u);
    EXPECT_EQ(*c.pop(7), 7);
    EXPECT_EQ(cal.take(8).flit, 1u);
    EXPECT_EQ(*c.pop(8), 8);
    EXPECT_TRUE(cal.empty());
}

TEST(ChannelCalendarTest, RemarkCarriesItemsPastOneCalendarTurn)
{
    // Latency 70 is more than the 64 slots, so no item may mark its
    // slot when pushed: the slot also stands for the cycle 64 earlier.
    // Such items wait in the far word until the consumer, which ticks
    // only when its wake entry or its calendar says so, re-marks them
    // within a turn.  Every item must be popped on its ready cycle and
    // no visit may be early.
    const Cycle lat = ArrivalCalendar::kSlots + 6;
    std::vector<Cycle> wake(1, CycleNever);
    ArrivalCalendar cal;
    Channel<int> c(lat);
    c.watch(&wake, 0);
    c.attach(&cal, ArrivalCalendar::Credit, 3);

    // The producer acts first in each cycle, so the second burst is in
    // flight while the consumer drains the first one.
    auto pushes = [](Cycle t) { return t < 10 || (t >= 75 && t < 85); };
    int popped = 0, visits = 0, far_ticks = 0;
    for (Cycle now = 0; now < 300; now++) {
        if (pushes(now))
            c.push(int(now), now);
        if (wake[0] <= now) {
            if (cal.hasFar()) {
                far_ticks++;
                EXPECT_EQ(cal.takeFar().credit, 1u << 3);
                c.remark(now);
            }
            const auto due = cal.take(now);
            if (due.credit & (1u << 3)) {
                visits++;
                bool got = false;
                while (auto v = c.pop(now)) {
                    EXPECT_EQ(Cycle(*v) + lat, now);
                    popped++;
                    got = true;
                }
                EXPECT_TRUE(got) << "early visit at cycle " << now;
                c.remark(now);
            }
            EXPECT_TRUE(c.frontMarked()) << "cycle " << now;
            wake[0] = std::min(cal.next(now + 1),
                               cal.hasFar() ? c.nextReady() : CycleNever);
        }
    }
    EXPECT_EQ(popped, 20);
    EXPECT_EQ(visits, popped);
    EXPECT_GT(far_ticks, 0);
    EXPECT_TRUE(c.empty());
    EXPECT_TRUE(cal.empty());
}

TEST(ChannelCalendarTest, ATurnAheadNeverMarksTheCurrentSlot)
{
    // Ready exactly one turn after the push: its slot is the current
    // cycle's, which the consumer may not have taken yet.  The item
    // goes to the far word, so taking the current slot finds nothing,
    // whether the push came before or after the take.
    const Cycle lat = ArrivalCalendar::kSlots;
    for (bool push_first : {true, false}) {
        ArrivalCalendar cal;
        Channel<int> c(lat);
        c.attach(&cal, ArrivalCalendar::Flit, 2);
        const Cycle now = 100;
        if (push_first)
            c.push(1, now);
        const auto due = cal.take(now);
        EXPECT_EQ(due.flit | due.credit, 0u);
        if (!push_first)
            c.push(1, now);
        EXPECT_TRUE(cal.hasFar());
        EXPECT_TRUE(c.frontMarked());
        EXPECT_EQ(cal.next(now + 1), CycleNever);
        // One cycle later it is within a turn: re-marking puts it in
        // its own slot.
        EXPECT_EQ(cal.takeFar().flit, 1u << 2);
        c.remark(now + 1);
        EXPECT_FALSE(cal.hasFar());
        EXPECT_EQ(cal.next(now + 1), now + lat);
        EXPECT_EQ(cal.take(now + lat).flit, 1u << 2);
        EXPECT_EQ(*c.pop(now + lat), 1);
        EXPECT_TRUE(cal.empty());
    }
}

TEST(ChannelCalendarTest, UnattachedChannelMarksNothing)
{
    // Sources and sinks read their one channel through pop() and
    // nextReady(); such a channel leaves every calendar untouched.
    ArrivalCalendar cal;
    Channel<int> attached(1), plain(1);
    attached.attach(&cal, ArrivalCalendar::Flit, 2);
    plain.push(1, 0);
    plain.setStaged(true);
    plain.push(2, 1);
    plain.drainStaged(1);
    plain.setStaged(false);
    plain.remark(1);
    EXPECT_TRUE(cal.empty());
    EXPECT_TRUE(plain.frontMarked());   // Nothing to mark: vacuous.
    EXPECT_EQ(*plain.pop(1), 1);
    EXPECT_EQ(*plain.pop(2), 2);
    attached.push(3, 0);
    EXPECT_FALSE(cal.empty());
}
