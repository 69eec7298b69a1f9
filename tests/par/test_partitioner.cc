/**
 * @file
 * Partitioner unit tests: block bounds, plane alignment, the even
 * weighted start, re-cuts from explicit costs, worker clamping, and
 * owner lookups.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "par/partition.hh"
#include "topo/lattice.hh"

using namespace pdr;
using par::Partitioner;
using par::Scheme;

namespace {

/** Blocks must tile [0, numRouters) and [0, numNodes) contiguously. */
void
expectCovers(const Partitioner &part, const topo::Lattice &lat)
{
    const auto &blocks = part.blocks();
    ASSERT_FALSE(blocks.empty());
    EXPECT_EQ(blocks.front().routerLo, 0);
    EXPECT_EQ(blocks.front().nodeLo, 0);
    EXPECT_EQ(blocks.back().routerHi, lat.numRouters());
    EXPECT_EQ(blocks.back().nodeHi, lat.numNodes());
    for (std::size_t i = 0; i < blocks.size(); i++) {
        EXPECT_GT(blocks[i].numRouters(), 0) << "block " << i;
        EXPECT_EQ(blocks[i].numNodes(),
                  blocks[i].numRouters() * lat.concentration());
        EXPECT_EQ(blocks[i].nodeLo,
                  blocks[i].routerLo * lat.concentration());
        if (i > 0) {
            EXPECT_EQ(blocks[i].routerLo, blocks[i - 1].routerHi);
            EXPECT_EQ(blocks[i].nodeLo, blocks[i - 1].nodeHi);
        }
    }
}

} // namespace

TEST(PartitionerTest, OneWorkerIsTheWholeLattice)
{
    auto lat = topo::Lattice::mesh2D(8);
    Partitioner part(lat, 1);
    EXPECT_EQ(part.workers(), 1);
    expectCovers(part, lat);
    EXPECT_EQ(part.blocks()[0].numRouters(), 64);
    EXPECT_EQ(part.ownerOfRouter(0), 0);
    EXPECT_EQ(part.ownerOfRouter(63), 0);
}

TEST(PartitionerTest, PlanesAreAlignedAndBalanced)
{
    // 8x8 mesh: 8 planes of 8 routers along the highest dimension.
    auto lat = topo::Lattice::mesh2D(8);
    Partitioner part(lat, 4, Scheme::Planes);
    EXPECT_EQ(part.workers(), 4);
    expectCovers(part, lat);
    for (const auto &b : part.blocks()) {
        EXPECT_EQ(b.numRouters(), 16);      // 2 planes each.
        EXPECT_EQ(b.routerLo % 8, 0);       // Plane-aligned.
    }
}

TEST(PartitionerTest, UnevenPlaneCountsSpreadByAtMostOne)
{
    auto lat = topo::Lattice::mesh2D(8);    // 8 planes.
    Partitioner part(lat, 3, Scheme::Planes);
    EXPECT_EQ(part.workers(), 3);
    expectCovers(part, lat);
    int min_planes = 9, max_planes = 0;
    for (const auto &b : part.blocks()) {
        EXPECT_EQ(b.routerLo % 8, 0);
        int planes = b.numRouters() / 8;
        min_planes = std::min(min_planes, planes);
        max_planes = std::max(max_planes, planes);
    }
    EXPECT_LE(max_planes - min_planes, 1);
}

TEST(PartitionerTest, WorkersClampToPlaneCount)
{
    // 4x4 mesh has 4 planes: more workers than planes collapse.
    auto lat = topo::Lattice::mesh2D(4);
    Partitioner part(lat, 16, Scheme::Planes);
    EXPECT_EQ(part.workers(), 4);
    expectCovers(part, lat);
}

TEST(PartitionerTest, WeightedBalancesAtRouterGranularity)
{
    // cmesh 4x4 c=4 (16 routers, 64 nodes), 3 workers.  Plane-aligned
    // blocks can only be 4/4/8 or 4/8/4 routers; the weighted scheme
    // may split mid-plane and must balance within one router.
    auto lat = topo::Lattice::cmesh(4, 4);
    Partitioner planes(lat, 3, Scheme::Planes);
    Partitioner weighted(lat, 3, Scheme::Weighted);
    expectCovers(planes, lat);
    expectCovers(weighted, lat);

    int wmin = lat.numRouters(), wmax = 0;
    for (const auto &b : weighted.blocks()) {
        wmin = std::min(wmin, b.numRouters());
        wmax = std::max(wmax, b.numRouters());
    }
    EXPECT_LE(wmax - wmin, 1);

    int pmax = 0;
    for (const auto &b : planes.blocks())
        pmax = std::max(pmax, b.numRouters());
    EXPECT_GT(pmax, wmax);  // Plane alignment costs balance here.
}

TEST(PartitionerTest, WeightedClampsToRouterCount)
{
    auto lat = topo::Lattice::mesh2D(2);    // 4 routers.
    Partitioner part(lat, 64, Scheme::Weighted);
    EXPECT_EQ(part.workers(), 4);
    expectCovers(part, lat);
}

TEST(PartitionerTest, KAry3CubeSlicesAlongHighestDim)
{
    auto lat = topo::Lattice::kAryNCube(3, 4);  // 64 routers, 4 planes
    Partitioner part(lat, 2, Scheme::Planes);
    EXPECT_EQ(part.workers(), 2);
    expectCovers(part, lat);
    EXPECT_EQ(part.blocks()[0].numRouters(), 32);
    EXPECT_EQ(part.blocks()[0].routerLo % 16, 0);  // 16 routers/plane.
}

TEST(PartitionerTest, OwnerLookupsMatchBlocks)
{
    auto lat = topo::Lattice::cmesh(4, 2);  // 16 routers, 32 nodes.
    Partitioner part(lat, 3, Scheme::Weighted);
    for (int r = 0; r < lat.numRouters(); r++) {
        int owner = part.ownerOfRouter(r);
        const auto &b = part.blocks()[std::size_t(owner)];
        EXPECT_GE(r, b.routerLo);
        EXPECT_LT(r, b.routerHi);
    }
    int nodes = lat.numNodes(), routers = lat.numRouters();
    for (int n = 0; n < nodes; n++) {
        int owner = part.ownerOfNode(n);
        EXPECT_EQ(owner, part.ownerOfRouter(lat.routerOf(n)));
        // Component-id space: [sources | routers | sinks].
        EXPECT_EQ(part.ownerOfComp(std::size_t(n)), owner);
        EXPECT_EQ(part.ownerOfComp(std::size_t(nodes + routers + n)),
                  owner);
    }
    for (int r = 0; r < routers; r++) {
        EXPECT_EQ(part.ownerOfComp(std::size_t(nodes + r)),
                  part.ownerOfRouter(r));
    }
}

namespace {

/** Router ranges tile [0, numRouters) with >= 1 router per block, and
 *  node ranges are exactly `keep`'s. */
void
expectRecutOf(const Partitioner &cut, const Partitioner &keep,
              int routers)
{
    ASSERT_EQ(cut.workers(), keep.workers());
    EXPECT_EQ(cut.blocks().front().routerLo, 0);
    EXPECT_EQ(cut.blocks().back().routerHi, routers);
    for (std::size_t i = 0; i < cut.blocks().size(); i++) {
        const auto &b = cut.blocks()[i];
        EXPECT_GT(b.numRouters(), 0) << "block " << i;
        if (i > 0) {
            EXPECT_EQ(b.routerLo, cut.blocks()[i - 1].routerHi);
        }
        EXPECT_EQ(b.nodeLo, keep.blocks()[i].nodeLo) << "block " << i;
        EXPECT_EQ(b.nodeHi, keep.blocks()[i].nodeHi) << "block " << i;
    }
}

std::vector<sim::NodeId>
routerHis(const Partitioner &part)
{
    std::vector<sim::NodeId> out;
    for (const auto &b : part.blocks())
        out.push_back(b.routerHi);
    return out;
}

} // namespace

TEST(PartitionerTest, RecutBalancesExplicitCosts)
{
    // 8x8 mesh, 4 workers; one hot row of routers (ids 24..31).
    auto lat = topo::Lattice::mesh2D(8);
    Partitioner start(lat, 4, Scheme::Weighted);
    std::vector<std::uint64_t> cost(64, 10);
    for (int r = 24; r < 32; r++)
        cost[std::size_t(r)] = 100;
    Partitioner cut(start, cost, std::vector<std::uint64_t>(4, 0));
    expectRecutOf(cut, start, 64);
    // Total 56 * 10 + 8 * 100 = 1360, 340 per block.
    const std::vector<std::uint64_t> noTerm(4, 0);
    EXPECT_LT(cut.maxBlockCost(cost, noTerm),
              start.maxBlockCost(cost, noTerm));
    EXPECT_LE(cut.maxBlockCost(cost, noTerm), 340u + 100u);
    // The hot row is split across blocks, and nodes did not move: a
    // node's owner is its node block's, not its router's.
    EXPECT_NE(cut.ownerOfRouter(24), cut.ownerOfRouter(31));
    bool moved = false;
    for (int n = 0; n < lat.numNodes(); n++) {
        EXPECT_EQ(cut.ownerOfNode(n), start.ownerOfNode(n));
        moved |= cut.ownerOfNode(n) != cut.ownerOfRouter(n);
    }
    EXPECT_TRUE(moved);
}

TEST(PartitionerTest, RecutPicksTheNearerBoundary)
{
    // Costs 1 1 1 10 1 1, 2 workers: the exact half (7.5) falls
    // inside router 3.  Cutting before it leaves 3 | 12 (4.5 short),
    // after it 13 | 2 (5.5 over): the nearer boundary is before.
    auto lat6 = topo::Lattice::kAryNMesh(1, 6);
    Partitioner start(lat6, 2, Scheme::Weighted);
    Partitioner cut(start, {1, 1, 1, 10, 1, 1}, {0, 0});
    expectRecutOf(cut, start, 6);
    EXPECT_EQ(routerHis(cut), (std::vector<sim::NodeId>{3, 6}));

    // Uniform costs, 16 routers, 3 workers: shares 5.33 and 10.67
    // round to the nearer 5 and 11 (rounding up would give 6 and 11).
    auto lat16 = topo::Lattice::kAryNMesh(1, 16);
    Partitioner start3(lat16, 3, Scheme::Weighted);
    EXPECT_EQ(routerHis(start3), (std::vector<sim::NodeId>{5, 11, 16}));
    Partitioner cut3(start3, std::vector<std::uint64_t>(16, 7),
                     {0, 0, 0});
    EXPECT_EQ(routerHis(cut3), (std::vector<sim::NodeId>{5, 11, 16}));
}

TEST(PartitionerTest, RecutCountsTheKeptTerminals)
{
    // 8 routers of cost 1; block 0's terminals cost 4, so its share
    // of the 12 total (6) leaves room for only 2 routers.
    auto lat = topo::Lattice::kAryNMesh(1, 8);
    Partitioner start(lat, 2, Scheme::Weighted);
    Partitioner cut(start, std::vector<std::uint64_t>(8, 1), {4, 0});
    expectRecutOf(cut, start, 8);
    EXPECT_EQ(routerHis(cut), (std::vector<sim::NodeId>{2, 8}));
    EXPECT_EQ(cut.maxBlockCost(std::vector<std::uint64_t>(8, 1),
                               {4, 0}),
              6u);
    // Terminal cost per block: kSinkFlitCost per ejected flit.
    std::vector<std::uint64_t> sink(std::size_t(lat.numNodes()), 0);
    sink[0] = 3;
    sink[std::size_t(lat.numNodes()) - 1] = 5;
    EXPECT_EQ(start.termCost(sink),
              (std::vector<std::uint64_t>{3 * par::kSinkFlitCost,
                                          5 * par::kSinkFlitCost}));
    EXPECT_EQ(start.termCost({}), (std::vector<std::uint64_t>{0, 0}));
}

TEST(PartitionerTest, RecutKeepsOneRouterPerBlock)
{
    // All cost on the first router, or none anywhere: every block
    // still gets a router.
    auto lat = topo::Lattice::mesh2D(4);    // 16 routers.
    Partitioner start(lat, 4, Scheme::Weighted);
    std::vector<std::uint64_t> front(16, 0);
    front[0] = 1000;
    expectRecutOf(Partitioner(start, front, {0, 0, 0, 0}), start, 16);
    std::vector<std::uint64_t> back(16, 0);
    back[15] = 1000;
    expectRecutOf(Partitioner(start, back, {0, 0, 0, 0}), start, 16);
    expectRecutOf(Partitioner(start, std::vector<std::uint64_t>(16, 0),
                              {0, 0, 0, 0}),
                  start, 16);
    // Heavy terminals on the last block push its routers away, down
    // to one.
    Partitioner cut(start, std::vector<std::uint64_t>(16, 1),
                    {0, 0, 0, 1000});
    expectRecutOf(cut, start, 16);
    EXPECT_EQ(cut.blocks().back().numRouters(), 1);
}

TEST(PartitionerTest, RejectsNonPositiveWorkerCounts)
{
    auto lat = topo::Lattice::mesh2D(4);
    EXPECT_THROW(Partitioner(lat, 0), std::invalid_argument);
    EXPECT_THROW(Partitioner(lat, -3), std::invalid_argument);
}

TEST(PartitionerTest, SchemeNamesRoundTrip)
{
    EXPECT_EQ(par::schemeFromString("planes"), Scheme::Planes);
    EXPECT_EQ(par::schemeFromString("weighted"), Scheme::Weighted);
    EXPECT_STREQ(par::toString(Scheme::Planes), "planes");
    EXPECT_STREQ(par::toString(Scheme::Weighted), "weighted");
    EXPECT_THROW(par::schemeFromString("hilbert"),
                 std::invalid_argument);
}
