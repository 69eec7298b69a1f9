#include "prof/report.hh"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <stdexcept>

#include "common/logging.hh"
#include "par/partition.hh"

namespace pdr::prof {

namespace {

/** Per-block weight shares of a plane-aligned split. */
std::vector<std::uint64_t>
planeBlockWeights(const std::vector<std::uint64_t> &weights,
                  const topo::Lattice &lat, int workers)
{
    par::Partitioner part(lat, workers, par::Scheme::Planes);
    std::vector<std::uint64_t> blockW(
        std::size_t(part.workers()), 0);
    for (int b = 0; b < part.workers(); b++) {
        const par::Block &blk = part.blocks()[std::size_t(b)];
        for (sim::NodeId r = blk.routerLo; r < blk.routerHi; r++)
            blockW[std::size_t(b)] += weights[std::size_t(r)];
    }
    return blockW;
}

/** Per-router re-cut cost (par::routerCost) of a capture; flits
 *  count zero when the capture has none. */
std::vector<std::uint64_t>
routerCosts(const Capture &cap)
{
    std::vector<std::uint64_t> cost(cap.weights.size());
    for (std::size_t r = 0; r < cost.size(); r++) {
        cost[r] = par::routerCost(
            cap.weights[r], r < cap.flits.size() ? cap.flits[r] : 0);
    }
    return cost;
}

std::string
coordsOf(const topo::Lattice &lat, sim::NodeId r)
{
    std::string s = "(";
    for (int d = 0; d < lat.dims(); d++)
        s += csprintf("%s%d", d ? "," : "", lat.coordOf(r, d));
    return s + ")";
}

// ----- NDJSON parsing helpers ------------------------------------------

bool
extractU64(const std::string &line, const char *key,
           std::uint64_t &out)
{
    const std::string pat = std::string("\"") + key + "\": ";
    const auto pos = line.find(pat);
    if (pos == std::string::npos)
        return false;
    out = std::strtoull(line.c_str() + pos + pat.size(), nullptr, 10);
    return true;
}

bool
extractArray(const std::string &line, const char *key,
             std::vector<std::uint64_t> &out)
{
    const std::string pat = std::string("\"") + key + "\": [";
    const auto pos = line.find(pat);
    if (pos == std::string::npos)
        return false;
    out.clear();
    const char *p = line.c_str() + pos + pat.size();
    while (*p && *p != ']') {
        char *end = nullptr;
        out.push_back(std::strtoull(p, &end, 10));
        if (end == p)
            break;
        p = end;
        if (*p == ',')
            p++;
    }
    return true;
}

/** Add `delta` into `total` slot by slot, growing it as needed. */
void
accumulate(std::vector<std::uint64_t> &total,
           const std::vector<std::uint64_t> &delta)
{
    if (total.size() < delta.size())
        total.resize(delta.size(), 0);
    for (std::size_t i = 0; i < delta.size(); i++)
        total[i] += delta[i];
}

} // namespace

double
weightImbalance(const std::vector<std::uint64_t> &weights,
                const topo::Lattice &lat, int workers)
{
    const auto blockW = planeBlockWeights(weights, lat, workers);
    std::uint64_t total = 0, maxW = 0;
    for (auto w : blockW) {
        total += w;
        maxW = std::max(maxW, w);
    }
    if (!total)
        return 0.0;
    return double(maxW) * double(blockW.size()) / double(total);
}

std::string
buildReport(const Capture &cap, const topo::Lattice &lat,
            const Config &cfg)
{
    std::string out;
    out += csprintf(
        "profile: %zu window(s) over %llu cycles, %d worker(s)\n",
        cap.epochs.size(), (unsigned long long)cap.cycles,
        cap.workers);

    // ----- per-worker utilization (host wall clock) ------------------
    const auto W = std::size_t(std::max(cap.workers, 1));
    std::vector<std::uint64_t> tick(W, 0), drain(W, 0), barrier(W, 0),
        idle(W, 0);
    for (const auto &e : cap.epochs) {
        for (std::size_t w = 0; w < W && w < e.tickUs.size(); w++) {
            tick[w] += e.tickUs[w];
            drain[w] += e.drainUs[w];
            barrier[w] += e.barrierUs[w];
            idle[w] += e.idleUs[w];
        }
    }
    out += "\nper-worker phase wall time (whole run):\n";
    out += "  worker     tick_ms    drain_ms  barrier_ms   util%\n";
    std::uint64_t sumTick = 0, maxTick = 0, sumBar = 0, sumAll = 0;
    for (std::size_t w = 0; w < W; w++) {
        const std::uint64_t busy = tick[w] + drain[w] + barrier[w];
        const std::uint64_t all = busy + idle[w];
        out += csprintf(
            "  %6zu  %10.1f  %10.1f  %10.1f  %6.1f\n", w,
            double(tick[w]) / 1000.0, double(drain[w]) / 1000.0,
            double(barrier[w]) / 1000.0,
            all ? 100.0 * double(tick[w] + drain[w]) / double(all)
                : 0.0);
        sumTick += tick[w];
        maxTick = std::max(maxTick, tick[w]);
        sumBar += barrier[w];
        sumAll += all;
    }
    out += csprintf(
        "  load max/mean (tick): %.2f   barrier-wait fraction: "
        "%.1f%%\n",
        sumTick ? double(maxTick) * double(W) / double(sumTick) : 0.0,
        sumAll ? 100.0 * double(sumBar) / double(sumAll) : 0.0);

    // ----- per-window wall imbalance ---------------------------------
    out += "\nper-window wall imbalance (max/mean worker tick):\n";
    for (const auto &e : cap.epochs) {
        std::uint64_t s = 0, m = 0;
        for (std::size_t w = 0; w < e.tickUs.size(); w++) {
            s += e.tickUs[w];
            m = std::max(m, e.tickUs[w]);
        }
        out += csprintf(
            "  cycle %8llu  window %6llu  imbalance %.2f\n",
            (unsigned long long)e.cycle, (unsigned long long)e.window,
            s ? double(m) * double(e.tickUs.size()) / double(s)
              : 0.0);
    }

    // ----- hottest routers (deterministic tick weights) --------------
    std::uint64_t total = 0;
    for (auto w : cap.weights)
        total += w;
    std::vector<sim::NodeId> order(cap.weights.size());
    for (std::size_t r = 0; r < order.size(); r++)
        order[r] = sim::NodeId(r);
    std::stable_sort(order.begin(), order.end(),
                     [&](sim::NodeId a, sim::NodeId b) {
                         return cap.weights[std::size_t(a)] >
                                cap.weights[std::size_t(b)];
                     });
    const auto top =
        std::min(order.size(), std::size_t(std::max(cfg.top, 1)));
    out += csprintf(
        "\nhottest routers by cycles ticked (top %zu of %zu):\n", top,
        order.size());
    for (std::size_t i = 0; i < top; i++) {
        const sim::NodeId r = order[i];
        out += csprintf(
            "  router %4d  %-12s  %10llu ticks  %5.1f%%\n", int(r),
            coordsOf(lat, r).c_str(),
            (unsigned long long)cap.weights[std::size_t(r)],
            total ? 100.0 * double(cap.weights[std::size_t(r)]) /
                        double(total)
                  : 0.0);
    }

    // ----- partition quality (deterministic verdict) -----------------
    // Tick weight (the historical, parseable weight_imbalance line)
    // and the cost the weighted re-cut balances: router ticks plus
    // flits forwarded, plus the flits each block's sinks eject.
    const auto blockW =
        planeBlockWeights(cap.weights, lat, cfg.reportWorkers);
    const auto cost = routerCosts(cap);
    const par::Partitioner planes(lat, cfg.reportWorkers,
                                  par::Scheme::Planes);
    const auto &blocks = planes.blocks();
    const auto planesTerm = planes.termCost(cap.sinkFlits);
    std::uint64_t totalCost = 0;
    for (auto c : cost)
        totalCost += c;
    for (auto c : planesTerm)
        totalCost += c;
    out += csprintf(
        "\npartition quality (planes split, %zu analysis workers):\n",
        blockW.size());
    std::size_t heaviest = 0;
    for (std::size_t b = 0; b < blockW.size(); b++) {
        std::uint64_t blockCost = planesTerm[b];
        for (sim::NodeId r = blocks[b].routerLo; r < blocks[b].routerHi;
             r++) {
            blockCost += cost[std::size_t(r)];
        }
        out += csprintf(
            "  worker %zu  routers [%4d,%4d)  weight %5.1f%%  cost "
            "%5.1f%%\n",
            b, int(blocks[b].routerLo), int(blocks[b].routerHi),
            total ? 100.0 * double(blockW[b]) / double(total) : 0.0,
            totalCost ? 100.0 * double(blockCost) / double(totalCost)
                      : 0.0);
        if (blockW[b] > blockW[heaviest])
            heaviest = b;
    }
    out += csprintf("weight_imbalance %.4f\n",
                    weightImbalance(cap.weights, lat,
                                    cfg.reportWorkers));
    out += csprintf(
        "cost_imbalance %.4f\n",
        totalCost ? double(planes.maxBlockCost(cost, planesTerm)) *
                        double(planes.workers()) / double(totalCost)
                  : 0.0);

    out += csprintf(
        "verdict: planes split puts %.1f%% of tick weight on worker "
        "%zu",
        total ? 100.0 * double(blockW[heaviest]) / double(total)
              : 0.0,
        heaviest);
    // The cut the stepper's re-cut would choose over the whole run:
    // from its starting split, terminals kept in place.
    const par::Partitioner start(lat, cfg.reportWorkers,
                                 par::Scheme::Weighted);
    if (totalCost && start.workers() > 1) {
        const auto startTerm = start.termCost(cap.sinkFlits);
        const par::Partitioner cut(start, cost, startTerm);
        std::string cutStr;
        for (int b = 0; b + 1 < cut.workers(); b++) {
            cutStr += csprintf(
                "%s%d", b ? ", " : "",
                int(cut.blocks()[std::size_t(b)].routerHi) - 1);
        }
        out += csprintf(
            "; a weighted split would cut after router%s %s (max cost "
            "share %.1f%%)",
            cut.workers() > 2 ? "s" : "", cutStr.c_str(),
            100.0 * double(cut.maxBlockCost(cost, startTerm)) /
                double(totalCost));
    }
    out += ".\n";
    return out;
}

Capture
parseStream(std::istream &in)
{
    Capture cap;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"type\": \"worker_window\"") !=
            std::string::npos) {
            Epoch e;
            std::uint64_t v = 0;
            if (extractU64(line, "cycle", v))
                e.cycle = sim::Cycle(v);
            if (extractU64(line, "window", v))
                e.window = sim::Cycle(v);
            if (extractU64(line, "workers", v))
                cap.workers = int(v);
            extractArray(line, "tick_us", e.tickUs);
            extractArray(line, "drain_us", e.drainUs);
            extractArray(line, "barrier_us", e.barrierUs);
            extractArray(line, "idle_us", e.idleUs);
            cap.cycles = std::max(cap.cycles, e.cycle);
            cap.epochs.push_back(std::move(e));
        } else if (line.find("\"type\": \"weight_heatmap\"") !=
                   std::string::npos) {
            std::vector<std::uint64_t> weights, flits, sinkFlits;
            extractArray(line, "weights", weights);
            extractArray(line, "flits", flits);
            extractArray(line, "sink_flits", sinkFlits);
            std::uint64_t cycle = 0;
            extractU64(line, "cycle", cycle);
            // Deltas attach to the worker_window of the same cycle
            // (emitted immediately before) and telescope into the
            // end-of-run totals.
            for (auto &e : cap.epochs) {
                if (e.cycle == sim::Cycle(cycle) && e.weights.empty()) {
                    e.weights = weights;
                    e.flits = flits;
                    e.sinkFlits = sinkFlits;
                }
            }
            accumulate(cap.weights, weights);
            accumulate(cap.flits, flits);
            accumulate(cap.sinkFlits, sinkFlits);
        }
    }
    if (cap.epochs.empty() && cap.weights.empty()) {
        throw std::runtime_error(
            "no worker_window / weight_heatmap records found (was "
            "the stream written with prof.enable=true?)");
    }
    if (!cap.workers && !cap.epochs.empty())
        cap.workers = int(cap.epochs.front().tickUs.size());
    return cap;
}

} // namespace pdr::prof
