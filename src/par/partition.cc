#include "par/partition.hh"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hh"

namespace pdr::par {

Scheme
schemeFromString(const std::string &name)
{
    if (name == "planes")
        return Scheme::Planes;
    if (name == "weighted")
        return Scheme::Weighted;
    throw std::invalid_argument("unknown partition scheme '" + name +
                                "' (known: planes, weighted)");
}

const char *
toString(Scheme scheme)
{
    return scheme == Scheme::Planes ? "planes" : "weighted";
}

namespace {

/**
 * Router boundaries b[0] = 0 < b[1] < ... < b[W] = cost.size() that
 * bring each block's router cost plus its terminal cost nearest an
 * even share of the total.  Every comparison is scaled by W, so the
 * arithmetic stays exact in integers.
 */
std::vector<sim::NodeId>
cutByCost(const std::vector<std::uint64_t> &cost,
          const std::vector<std::uint64_t> &term)
{
    const auto W = static_cast<long long>(term.size());
    const int routers = int(cost.size());
    pdr_assert(W >= 1 && W <= routers);
    std::vector<long long> cum(cost.size() + 1, 0);
    for (std::size_t r = 0; r < cost.size(); r++)
        cum[r + 1] = cum[r] + static_cast<long long>(cost[r]);
    long long total = cum.back();
    for (auto t : term)
        total += static_cast<long long>(t);

    std::vector<sim::NodeId> bounds{0};
    long long termCum = 0;
    int lo = 0;
    for (int i = 0; i + 1 < W; i++) {
        // Blocks 0..i should carry (i + 1) / W of the total; their
        // terminals already carry termCum of it.
        termCum += static_cast<long long>(term[std::size_t(i)]);
        const long long target = total * (i + 1) - W * termCum;
        // At least one router here and one for each later block.
        const int minHi = lo + 1;
        const int maxHi = routers - int(W - 1 - i);
        int hi = minHi;
        while (hi < maxHi && W * cum[std::size_t(hi)] < target)
            hi++;
        // hi is the first boundary reaching the target; the one below
        // it falls short.  Take the nearer (the lower one on a tie).
        if (hi > minHi &&
            target - W * cum[std::size_t(hi) - 1] <=
                W * cum[std::size_t(hi)] - target) {
            hi--;
        }
        bounds.push_back(hi);
        lo = hi;
    }
    bounds.push_back(routers);
    return bounds;
}

} // namespace

Partitioner::Partitioner(const topo::Lattice &lat, int workers,
                         Scheme scheme)
    : scheme_(scheme), numRouters_(lat.numRouters()),
      numNodes_(lat.numNodes())
{
    if (workers < 1) {
        throw std::invalid_argument(csprintf(
            "par.workers must be >= 1, got %d", workers));
    }

    const int conc = lat.concentration();
    auto add_block = [&](int router_lo, int router_hi) {
        pdr_assert(router_lo < router_hi);
        blocks_.push_back({router_lo, router_hi, router_lo * conc,
                           router_hi * conc});
    };

    if (scheme == Scheme::Planes) {
        // The highest dimension has the largest id stride, so plane p
        // is the contiguous router range [p, p + 1) * planeRouters.
        int planes = lat.radix(lat.dims() - 1);
        int plane_routers = numRouters_ / planes;
        int w = std::min(workers, planes);
        for (int i = 0; i < w; i++) {
            int lo = planes * i / w;
            int hi = planes * (i + 1) / w;
            add_block(lo * plane_routers, hi * plane_routers);
        }
    } else {
        // Nothing measured yet: every router costs the same, so this
        // is an even split at router granularity.
        int w = std::min(workers, numRouters_);
        const auto bounds =
            cutByCost(std::vector<std::uint64_t>(
                          std::size_t(numRouters_), 1),
                      std::vector<std::uint64_t>(std::size_t(w), 0));
        for (int i = 0; i < w; i++)
            add_block(bounds[std::size_t(i)],
                      bounds[std::size_t(i) + 1]);
    }
}

Partitioner::Partitioner(const Partitioner &keep,
                         const std::vector<std::uint64_t> &routerCost,
                         const std::vector<std::uint64_t> &termCost)
    : blocks_(keep.blocks_), scheme_(keep.scheme_),
      numRouters_(keep.numRouters_), numNodes_(keep.numNodes_)
{
    pdr_assert(routerCost.size() == std::size_t(numRouters_));
    pdr_assert(termCost.size() == blocks_.size());
    const auto bounds = cutByCost(routerCost, termCost);
    for (std::size_t i = 0; i < blocks_.size(); i++) {
        blocks_[i].routerLo = bounds[i];
        blocks_[i].routerHi = bounds[i + 1];
    }
}

std::vector<std::uint64_t>
Partitioner::termCost(const std::vector<std::uint64_t> &sinkFlits) const
{
    std::vector<std::uint64_t> cost(blocks_.size(), 0);
    if (sinkFlits.empty())
        return cost;
    pdr_assert(sinkFlits.size() == std::size_t(numNodes_));
    for (std::size_t i = 0; i < blocks_.size(); i++) {
        for (sim::NodeId n = blocks_[i].nodeLo; n < blocks_[i].nodeHi;
             n++) {
            cost[i] += kSinkFlitCost * sinkFlits[std::size_t(n)];
        }
    }
    return cost;
}

std::uint64_t
Partitioner::maxBlockCost(const std::vector<std::uint64_t> &routerCost,
                          const std::vector<std::uint64_t> &termCost)
    const
{
    pdr_assert(termCost.size() == blocks_.size());
    std::uint64_t heaviest = 0;
    for (std::size_t i = 0; i < blocks_.size(); i++) {
        std::uint64_t c = termCost[i];
        for (sim::NodeId r = blocks_[i].routerLo;
             r < blocks_[i].routerHi; r++) {
            c += routerCost[std::size_t(r)];
        }
        heaviest = std::max(heaviest, c);
    }
    return heaviest;
}

int
Partitioner::ownerOfRouter(sim::NodeId router) const
{
    pdr_assert(router >= 0 && router < numRouters_);
    // W is small; a forward scan beats binary search in practice.
    for (std::size_t i = 0; i < blocks_.size(); i++) {
        if (router < blocks_[i].routerHi)
            return int(i);
    }
    pdr_panic("router %d not covered by any block", int(router));
}

int
Partitioner::ownerOfNode(sim::NodeId node) const
{
    pdr_assert(node >= 0 && node < numNodes_);
    for (std::size_t i = 0; i < blocks_.size(); i++) {
        if (node < blocks_[i].nodeHi)
            return int(i);
    }
    pdr_panic("node %d not covered by any block", int(node));
}

int
Partitioner::ownerOfComp(std::size_t comp) const
{
    std::size_t n = std::size_t(numNodes_);
    std::size_t r = std::size_t(numRouters_);
    if (comp < n)
        return ownerOfNode(sim::NodeId(comp));            // Source.
    if (comp < n + r)
        return ownerOfRouter(sim::NodeId(comp - n));      // Router.
    pdr_assert(comp < 2 * n + r);
    return ownerOfNode(sim::NodeId(comp - n - r));        // Sink.
}

} // namespace pdr::par
