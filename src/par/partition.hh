/**
 * @file
 * Spatial domain decomposition of one Network across worker threads.
 *
 * A Partitioner slices the lattice's router set into W contiguous
 * blocks of router ids, and the terminal nodes into W contiguous blocks
 * of node ids.  Router ids are numbered with the highest dimension
 * varying slowest, so a contiguous id range is a slab of consecutive
 * hyperplanes ("planes") along that dimension -- the classic
 * minimal-surface cut for k-ary n-cubes.  Initially every node block
 * is exactly its router block's hosted terminals, so only
 * inter-router links cross a boundary.
 *
 * Two schemes:
 *
 *   planes   - block boundaries aligned to whole planes, plane counts
 *              as equal as possible.  Fewest boundary links; the wrap
 *              links of a torus still cross at most two boundaries.
 *              The layout never changes.
 *   weighted - boundaries at router granularity, starting from an even
 *              router split, then re-cut by measured cost while the
 *              network runs (par::ParallelStepper): the router
 *              boundaries move to balance routerCost() per block plus
 *              the terminal cost of the node block the worker keeps.
 *              Node blocks never move (see docs/ARCHITECTURE.md for
 *              why), so after a re-cut the injection and ejection
 *              channels of a moved router cross a boundary too.
 *
 * The partition only ever affects which thread executes a component;
 * simulated behavior is bit-identical for any worker count, scheme or
 * re-cut sequence (see par::ParallelStepper).
 */

#ifndef PDR_PAR_PARTITION_HH
#define PDR_PAR_PARTITION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "topo/lattice.hh"

namespace pdr::par {

/** Partitioning scheme (the par.scheme experiment key). */
enum class Scheme
{
    Planes,     //!< Fixed plane-aligned blocks (fewest boundary links).
    Weighted,   //!< Router blocks re-cut by measured cost.
};

/** Parse "planes" / "weighted"; throws std::invalid_argument. */
Scheme schemeFromString(const std::string &name);
const char *toString(Scheme scheme);

// ----- the cost model the weighted re-cut balances ------------------
//
// Costs come only from simulated counters, so every run takes the same
// sequence of cuts.  The unit is about 90 ns of host time.  Least-
// squares fits of per-window worker tick wall time against per-block
// router ticks and forwarded flits on 16x16 hotspot and uniform meshes
// (4 workers, 4-vCPU x86 host) gave 270-330 ns per tick and 500-520 ns
// per flit, so a forwarded flit costs about two ticks (kappa = 2;
// kappa = 1.5 balanced no better).  On the saturated 8x8 mesh the
// sinks took about 85 ns per ejected flit; the fits could not resolve
// a sink term, and weighting it 6x or 18x higher balanced no better.

/** Cost of one router tick (about 270 ns). */
constexpr std::uint64_t kTickCost = 3;
/** Cost of one flit forwarded by a router (about 520 ns). */
constexpr std::uint64_t kFlitCost = 2 * kTickCost;
/** Cost of one flit ejected at a sink (about 85 ns). */
constexpr std::uint64_t kSinkFlitCost = 1;

/** A router's cost over a window: its ticks plus its flits. */
inline std::uint64_t
routerCost(std::uint64_t ticks, std::uint64_t flits)
{
    return kTickCost * ticks + kFlitCost * flits;
}

/** One worker's slice: contiguous router and node id ranges. */
struct Block
{
    sim::NodeId routerLo = 0;
    sim::NodeId routerHi = 0;   //!< Exclusive.
    sim::NodeId nodeLo = 0;
    sim::NodeId nodeHi = 0;     //!< Exclusive.

    int numRouters() const { return routerHi - routerLo; }
    int numNodes() const { return nodeHi - nodeLo; }
};

/** Slices a lattice into per-worker blocks. */
class Partitioner
{
  public:
    /**
     * Initial partition for (up to) `workers` workers.  The effective
     * worker count may be lower: a block must hold at least one plane
     * (planes) or one router (weighted).  Node blocks follow their
     * routers.  Throws std::invalid_argument for workers < 1.
     */
    Partitioner(const topo::Lattice &lat, int workers,
                Scheme scheme = Scheme::Planes);

    /**
     * Re-cut `keep`'s router boundaries by cost, keeping its worker
     * count and node blocks.  Block i's router range is placed so
     * that its router cost (sum of `routerCost`, one entry per router)
     * plus `termCost[i]` (the cost of node block i) is as near an even
     * share of the total as router granularity allows: each boundary
     * goes to whichever of the two routers around the exact share is
     * nearer, and every block keeps at least one router.
     */
    Partitioner(const Partitioner &keep,
                const std::vector<std::uint64_t> &routerCost,
                const std::vector<std::uint64_t> &termCost);

    /** Effective worker count (== blocks().size()). */
    int workers() const { return int(blocks_.size()); }
    Scheme scheme() const { return scheme_; }

    const std::vector<Block> &blocks() const { return blocks_; }

    /**
     * Each block's terminal cost: kSinkFlitCost per flit ejected at
     * the sinks of its node block (`sinkFlits` per node; empty means
     * nothing measured, all zero).
     */
    std::vector<std::uint64_t>
    termCost(const std::vector<std::uint64_t> &sinkFlits) const;

    /**
     * The heaviest block's cost under `routerCost` (per router) and
     * `termCost` (per block), as re-cutting measures it.
     */
    std::uint64_t
    maxBlockCost(const std::vector<std::uint64_t> &routerCost,
                 const std::vector<std::uint64_t> &termCost) const;

    int ownerOfRouter(sim::NodeId router) const;
    int ownerOfNode(sim::NodeId node) const;

    /**
     * Owner of a wake-table component id (the [sources | routers |
     * sinks] index space of Network).
     */
    int ownerOfComp(std::size_t comp) const;

  private:
    std::vector<Block> blocks_;
    Scheme scheme_;
    int numRouters_;
    int numNodes_;
};

} // namespace pdr::par

#endif // PDR_PAR_PARTITION_HH
