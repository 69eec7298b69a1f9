/** @file Tests for the flit storage pool and fixed-capacity FIFO. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/flit_pool.hh"

using namespace pdr::sim;

TEST(FlitPoolTest, AllocGrowsSlabOnDemand)
{
    FlitPool pool;
    EXPECT_EQ(pool.capacity(), 0u);
    FlitRef a = pool.alloc();
    FlitRef b = pool.alloc();
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.capacity(), 2u);
    EXPECT_EQ(pool.liveCount(), 2u);
}

TEST(FlitPoolTest, FreedSlotsAreReusedLifo)
{
    FlitPool pool;
    FlitRef a = pool.alloc();
    FlitRef b = pool.alloc();
    pool.free(a);
    pool.free(b);
    // LIFO: the most recently freed slot comes back first, and no new
    // slots are created while freed ones exist.
    EXPECT_EQ(pool.alloc(), b);
    EXPECT_EQ(pool.alloc(), a);
    EXPECT_EQ(pool.capacity(), 2u);
}

TEST(FlitPoolTest, NeverHandsOutALiveSlot)
{
    // The reuse invariant: across an arbitrary alloc/free interleaving
    // the pool never returns a handle that is still live.
    FlitPool pool;
    std::set<FlitRef> live;
    unsigned lcg = 12345;
    for (int i = 0; i < 2000; i++) {
        lcg = lcg * 1103515245 + 12345;
        bool do_alloc = live.empty() || (lcg >> 16) % 3 != 0;
        if (do_alloc) {
            FlitRef r = pool.alloc();
            EXPECT_EQ(live.count(r), 0u) << "live slot recycled";
            live.insert(r);
        } else {
            FlitRef r = *live.begin();
            live.erase(live.begin());
            pool.free(r);
        }
        EXPECT_EQ(pool.liveCount(), live.size());
    }
}

TEST(FlitPoolTest, PayloadSurvivesOtherSlotsChurning)
{
    FlitPool pool;
    FlitRef keep = pool.alloc();
    pool.get(keep).packet = 42;
    pool.get(keep).dest = 7;
    for (int i = 0; i < 100; i++)
        pool.free(pool.alloc());
    EXPECT_EQ(pool.get(keep).packet, 42u);
    EXPECT_EQ(pool.get(keep).dest, 7);
}

TEST(FlitPoolTest, DeterministicHandleSequence)
{
    // Two pools driven by the same alloc/free sequence hand out the
    // same handles -- pooling cannot perturb simulation determinism.
    FlitPool a, b;
    std::vector<FlitRef> ha, hb;
    for (int round = 0; round < 50; round++) {
        for (int i = 0; i < 7; i++) {
            ha.push_back(a.alloc());
            hb.push_back(b.alloc());
        }
        for (int i = 0; i < 5; i++) {
            a.free(ha[ha.size() - 1 - i]);
            b.free(hb[hb.size() - 1 - i]);
        }
        ha.resize(ha.size() - 5);
        hb.resize(hb.size() - 5);
    }
    EXPECT_EQ(ha, hb);
}

TEST(FlitPoolTest, AliveQuery)
{
    FlitPool pool;
    EXPECT_FALSE(pool.alive(0));
    EXPECT_FALSE(pool.alive(NullFlit));
    FlitRef r = pool.alloc();
    EXPECT_TRUE(pool.alive(r));
    pool.free(r);
    EXPECT_FALSE(pool.alive(r));
}

TEST(FlitPoolDeathTest, DoubleFreePanics)
{
    FlitPool pool;
    FlitRef r = pool.alloc();
    pool.free(r);
    EXPECT_DEATH(pool.free(r), "");
}

TEST(FlitPoolDeathTest, UseAfterFreePanics)
{
    FlitPool pool;
    FlitRef r = pool.alloc();
    pool.free(r);
    EXPECT_DEATH(pool.get(r), "");
}

TEST(FlitPoolShardTest, ShardsAllocAndFreeIndependently)
{
    FlitPool pool;
    pool.shardFreelists(3, 64);
    EXPECT_EQ(pool.numShards(), 3);

    FlitRef a = pool.alloc(0);
    FlitRef b = pool.alloc(1);
    FlitRef c = pool.alloc(2);
    EXPECT_EQ(pool.liveCount(), 3u);

    // Cross-shard life cycle: allocated in shard 1, freed into shard
    // 2, re-allocated only by shard 2 (LIFO).
    pool.free(b, 2);
    EXPECT_EQ(pool.alloc(2), b);

    pool.free(a, 0);
    pool.free(b, 2);
    pool.free(c, 2);
    EXPECT_EQ(pool.liveCount(), 0u);
}

TEST(FlitPoolShardTest, CollapseReturnsEverySlotToShardZero)
{
    FlitPool pool;
    pool.shardFreelists(4, 64);
    std::vector<FlitRef> refs;
    for (int s = 0; s < 4; s++)
        for (int i = 0; i < 5; i++)
            refs.push_back(pool.alloc(s));
    for (std::size_t i = 0; i < refs.size(); i++)
        pool.free(refs[i], int(i % 4));

    pool.collapseFreelists();
    EXPECT_EQ(pool.numShards(), 1);
    EXPECT_EQ(pool.liveCount(), 0u);

    // All 20 slots must be reachable from the serial freelist again
    // without growing the slab.
    std::size_t cap = pool.capacity();
    for (int i = 0; i < 20; i++)
        pool.alloc();
    EXPECT_EQ(pool.capacity(), cap);
    EXPECT_EQ(pool.liveCount(), 20u);
}

TEST(FlitPoolShardTest, EmptyShardRefillsFromSpilledSlots)
{
    // Exceed the spill threshold (512, batch 128) in shard 1 so its
    // surplus lands in the global list, then allocate from bone-dry
    // shard 0: it must refill from the spilled slots instead of
    // growing the slab.  700 frees cross the threshold twice, so at
    // least 2 x 128 slots reach the global list.
    FlitPool pool;
    pool.shardFreelists(2, 4096);
    std::vector<FlitRef> refs;
    for (int i = 0; i < 700; i++)
        refs.push_back(pool.alloc(0));
    std::size_t cap = pool.capacity();
    for (FlitRef r : refs)
        pool.free(r, 1);

    for (int i = 0; i < 256; i++)
        pool.alloc(0);
    EXPECT_EQ(pool.capacity(), cap) << "refill should not grow";
    EXPECT_EQ(pool.liveCount(), 256u);
}

TEST(FlitPoolShardTest, SerialBehaviorUnchangedByDefaultShard)
{
    // A default-constructed pool and one that was sharded and
    // collapsed both serve the canonical LIFO sequence.
    FlitPool pool;
    FlitRef a = pool.alloc();
    FlitRef b = pool.alloc();
    pool.free(a);
    pool.free(b);
    EXPECT_EQ(pool.alloc(), b);
    EXPECT_EQ(pool.alloc(), a);
}

TEST(FlitFifoTest, FifoOrderAndWraparound)
{
    FlitFifo f;
    f.init(3);
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.capacity(), 3);
    // Push/pop past the capacity several times to exercise the wrap.
    FlitRef next = 0;
    FlitRef expect = 0;
    for (int round = 0; round < 5; round++) {
        f.push(next, Cycle(next));
        next++;
        f.push(next, Cycle(next));
        next++;
        EXPECT_EQ(f.size(), 2);
        EXPECT_EQ(f.front(), expect);
        EXPECT_EQ(f.pop(), expect++);
        EXPECT_EQ(f.pop(), expect++);
        EXPECT_TRUE(f.empty());
    }
}

TEST(FlitFifoTest, FillsToCapacity)
{
    FlitFifo f;
    f.init(4);
    for (FlitRef i = 0; i < 4; i++)
        f.push(i, 0);
    EXPECT_EQ(f.size(), 4);
    for (FlitRef i = 0; i < 4; i++)
        EXPECT_EQ(f.pop(), i);
}

TEST(FlitFifoDeathTest, OverflowPanics)
{
    FlitFifo f;
    f.init(2);
    f.push(0, 0);
    f.push(1, 0);
    EXPECT_DEATH(f.push(2, 0), "");
}

TEST(FlitFifoTest, EligibleCyclesFollowTheirFlitsAcrossWraps)
{
    // Capacity 3 with a varying fill level: the head walks every slot
    // several times, and each front's eligible cycle must be the one
    // pushed with that handle.
    FlitFifo f;
    f.init(3);
    FlitRef next = 0;
    FlitRef expect = 0;
    auto eligible_of = [](FlitRef r) { return Cycle(100 + 7 * r); };
    for (int round = 0; round < 12; round++) {
        const int fill = 1 + round % 3;
        for (int i = 0; i < fill; i++) {
            f.push(next, eligible_of(next));
            next++;
        }
        while (!f.empty()) {
            EXPECT_EQ(f.front(), expect);
            EXPECT_EQ(f.frontEligible(), eligible_of(expect));
            EXPECT_EQ(f.pop(), expect);
            expect++;
        }
    }
    EXPECT_EQ(expect, next);

    // Partially drained ring: forEach still visits front to back.
    f.push(50, 1);
    f.push(51, 2);
    (void)f.pop();
    f.push(52, 3);
    f.push(53, 4);
    std::vector<FlitRef> seen;
    f.forEach([&seen](FlitRef r) { seen.push_back(r); });
    EXPECT_EQ(seen, (std::vector<FlitRef>{51, 52, 53}));
    EXPECT_EQ(f.frontEligible(), Cycle(2));
}

TEST(FlitFifoDeathTest, FrontEligibleOfEmptyPanics)
{
    FlitFifo f;
    f.init(2);
    EXPECT_DEATH((void)f.frontEligible(), "");
}

TEST(FlitFifoDeathTest, PopEmptyPanics)
{
    FlitFifo f;
    f.init(2);
    EXPECT_DEATH(f.pop(), "");
}
