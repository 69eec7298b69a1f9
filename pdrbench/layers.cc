#include "layers.hh"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "arb/switch_allocator.hh"
#include "arb/vc_allocator.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "net/network.hh"
#include "prof/profiler.hh"
#include "prof/report.hh"

namespace pdrbench {

using namespace pdr;

PhaseTimes &
PhaseTimes::operator+=(const PhaseTimes &o)
{
    skipNs += o.skipNs;
    sourceNs += o.sourceNs;
    routerNs += o.routerNs;
    sinkNs += o.sinkNs;
    finishNs += o.finishNs;
    cycles += o.cycles;
    stepped += o.stepped;
    routerTicks += o.routerTicks;
    flitHops += o.flitHops;
    specAttempts += o.specAttempts;
    specUseful += o.specUseful;
    return *this;
}

namespace {

double
ns(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

} // namespace

api::SimResults
replay(const api::SimConfig &cfg, PhaseTimes &times)
{
    if (cfg.mode != "sample" && cfg.mode != "fixed")
        throw std::invalid_argument("unknown sim.mode '" + cfg.mode + "'");
    net::Network net(cfg.net);
    if (net.auditEnabled()) {
        // The audited step path checks invariants between phases; the
        // phase calls below would bypass it.
        throw std::runtime_error("the timed replay needs the auditor "
                                 "off (unset PDR_AUDIT)");
    }
    // Attached for the deterministic per-router tick counts only; the
    // replay marks no phases on it.
    prof::Profiler prof(net, 1);
    const auto nodes = net.lattice().numNodes();
    const auto routers = net.lattice().numRouters();
    PhaseTimes t;

    // One iteration of runSimulation's loops: jump over idle cycles,
    // then tick one cycle unless the jump reached `limit`.
    auto advance = [&](sim::Cycle limit) {
        auto t0 = Clock::now();
        net.skipIdle(limit);
        auto t1 = Clock::now();
        t.skipNs += ns(t0, t1);
        if (net.now() >= limit)
            return false;
        net.tickSources(0, nodes);
        auto t2 = Clock::now();
        net.tickRouters(0, routers);
        auto t3 = Clock::now();
        net.tickSinks(0, nodes);
        auto t4 = Clock::now();
        net.finishCycle();
        auto t5 = Clock::now();
        t.sourceNs += ns(t1, t2);
        t.routerNs += ns(t2, t3);
        t.sinkNs += ns(t3, t4);
        t.finishNs += ns(t4, t5);
        t.stepped++;
        return true;
    };
    auto step_to = [&](sim::Cycle limit) {
        while (net.now() < limit && advance(limit)) {
        }
    };

    auto &ctrl = net.controller();
    if (cfg.mode == "fixed") {
        step_to(net.now() + cfg.horizon);
    } else {
        step_to(net.now() + cfg.net.warmup);
        while (!ctrl.done() && net.now() < cfg.maxCycles &&
               advance(cfg.maxCycles)) {
        }
    }
    prof.finish(net.now());
    for (auto w : prof.capture().weights)
        t.routerTicks += w;

    // The result fields exactly as runSimulation fills them.
    api::SimResults res;
    res.offeredFraction = cfg.net.offeredFraction();
    res.acceptedFraction = net.acceptedFraction();
    auto lat = net.latency();
    res.avgLatency = lat.mean();
    res.p99Latency = lat.percentile(99.0);
    res.sampleReceived = ctrl.received();
    res.sampleSize = ctrl.sampleSize();
    res.drained = cfg.mode == "fixed" || ctrl.done();
    res.cycles = net.now();
    res.routers = net.routerTotals();

    t.cycles = res.cycles;
    t.flitHops = res.routers.flitsOut;
    t.specAttempts = res.routers.specSaAttempts;
    t.specUseful = res.routers.specSaUseful;
    times += t;
    return res;
}

void
addPhaseMetrics(const PhaseTimes &t, Report &rep)
{
    auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double cycles = double(t.cycles);
    rep.add("net.skip_ns_per_cycle", per(t.skipNs, cycles), "ns/cycle");
    rep.add("traffic.source_ns_per_cycle", per(t.sourceNs, cycles),
            "ns/cycle");
    rep.add("router.tick_ns_per_cycle", per(t.routerNs, cycles),
            "ns/cycle");
    rep.add("traffic.sink_ns_per_cycle", per(t.sinkNs, cycles),
            "ns/cycle");
    rep.add("net.skipped_cycle_frac", 1.0 - per(double(t.stepped), cycles),
            "frac");
    rep.add("router.ticks_per_cycle", per(double(t.routerTicks), cycles),
            "ticks/cycle");
    rep.add("router.ns_per_tick", per(t.routerNs, double(t.routerTicks)),
            "ns/tick");
    rep.add("router.flit_hops", double(t.flitHops), "count");
    rep.add("net.ns_per_flit_hop", per(t.totalNs(), double(t.flitHops)),
            "ns/hop");
    rep.add("router.spec_useful_frac",
            per(double(t.specUseful), double(t.specAttempts)), "frac");
}

// ------------------------------------------------------------------
// Allocator rounds, after tools/bench_alloc.cc: one seeded request
// stream per shape, identical for every pass; a fresh allocator per
// pass so the grant checksum must repeat exactly; an untimed warm-up
// pass first.

namespace {

struct Round
{
    std::vector<arb::SaRequest> sa;
    std::vector<arb::VaRequest> va;
    std::vector<std::uint64_t> freeVcs;
};

std::vector<Round>
makeStream(int p, int v, int rounds, bool spec, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Round> stream(static_cast<std::size_t>(rounds));
    for (auto &r : stream) {
        // Saturation-flavoured density: half the input VCs bid.
        for (int in = 0; in < p; in++) {
            for (int vc = 0; vc < v; vc++) {
                if (rng.bernoulli(0.5)) {
                    r.sa.push_back({in, vc, int(rng.range(std::uint32_t(p))),
                                    spec && rng.bernoulli(0.5)});
                }
                if (rng.bernoulli(0.5)) {
                    auto vc_mask = std::uint32_t(
                        rng.range((1u << v) - 1) + 1);
                    r.va.push_back({in, vc, int(rng.range(std::uint32_t(p))),
                                    vc_mask});
                }
            }
        }
        r.freeVcs.resize(std::size_t(p));
        for (auto &w : r.freeVcs) {
            for (int ov = 0; ov < v; ov++) {
                if (rng.bernoulli(0.6))
                    w |= std::uint64_t(1) << ov;
            }
        }
    }
    return stream;
}

std::uint64_t
fold(std::uint64_t sum, const arb::SaGrant &g)
{
    return sum * 1099511628211ull +
           std::uint64_t(g.inPort * 4096 + g.inVc * 64 + g.outPort +
                         (g.spec ? 1 << 20 : 0));
}

std::uint64_t
fold(std::uint64_t sum, const arb::VaGrant &g)
{
    return sum * 1099511628211ull +
           std::uint64_t(((g.inPort * 64 + g.inVc) * 64 + g.outPort) *
                             64 + g.outVc);
}

/**
 * Median ns per round of `passes` timed passes of `pass(sum)`, each on
 * a fresh allocator; fails the report when a pass's grant checksum
 * differs from the warm-up's.
 */
template <typename Make, typename Pass>
double
timeRounds(const char *name, int rounds, int passes, Report &rep,
           Make &&make, Pass &&pass)
{
    const std::uint64_t basis = 14695981039346656037ull;
    std::uint64_t expect = basis;
    {
        auto warm = make();
        pass(warm, expect);
    }
    std::vector<double> ns_per_round;
    for (int i = 0; i < passes; i++) {
        auto alloc = make();
        std::uint64_t sum = basis;
        auto t0 = Clock::now();
        pass(alloc, sum);
        ns_per_round.push_back(secondsSince(t0) * 1e9 / rounds);
        if (sum != expect) {
            rep.fail(csprintf("%s: grant checksum %llx differs from the "
                              "warm-up pass's %llx", name,
                              (unsigned long long)sum,
                              (unsigned long long)expect));
        }
    }
    return median(ns_per_round);
}

template <typename Alloc>
double
switchRow(const char *name, int p, int v, bool spec, std::uint64_t seed,
          int rounds, int passes, Report &rep)
{
    const auto stream = makeStream(p, v, rounds, spec, seed);
    auto make = [&] {
        if constexpr (std::is_constructible_v<Alloc, int, int>)
            return Alloc(p, v);
        else
            return Alloc(p);
    };
    return timeRounds(name, rounds, passes, rep, make,
                      [&](Alloc &a, std::uint64_t &sum) {
                          for (const auto &r : stream)
                              for (const auto &g : a.allocate(r.sa))
                                  sum = fold(sum, g);
                      });
}

} // namespace

void
addAllocatorMetrics(std::uint64_t seed, bool smoke, Report &rep)
{
    const int rounds = smoke ? 500 : 40000;
    const int passes = smoke ? 2 : 9;
    // Every workload's routers have 5 ports; the VC models use 2 VCs.
    rep.add("arb.sa_spec_p5v2",
            switchRow<arb::SpeculativeSwitchAllocator>(
                "sa_spec_p5v2", 5, 2, true, seed * 4 + 0, rounds, passes,
                rep),
            "ns/round");
    rep.add("arb.sa_sep_p5v2",
            switchRow<arb::SeparableSwitchAllocator>(
                "sa_sep_p5v2", 5, 2, false, seed * 4 + 1, rounds, passes,
                rep),
            "ns/round");
    {
        const auto stream = makeStream(5, 2, rounds, false, seed * 4 + 2);
        rep.add("arb.va_p5v2",
                timeRounds("va_p5v2", rounds, passes, rep,
                           [] { return arb::VcAllocator(5, 2); },
                           [&](arb::VcAllocator &a, std::uint64_t &sum) {
                               for (const auto &r : stream)
                                   for (const auto &g :
                                        a.allocate(r.va, r.freeVcs.data()))
                                       sum = fold(sum, g);
                           }),
                "ns/round");
    }
    rep.add("arb.sa_wh_p5",
            switchRow<arb::WormholeSwitchArbiter>(
                "sa_wh_p5", 5, 1, false, seed * 4 + 3, rounds, passes, rep),
            "ns/round");
}

void
setParShares(const prof::Capture &cap, const net::NetworkConfig &net,
             ParMetrics &m)
{
    // Same sums as the `pdr profile` report: whole-run phase time per
    // worker, as shares of all worker time.
    const auto W = std::size_t(std::max(cap.workers, 1));
    std::vector<double> tick(W, 0.0);
    double drain = 0, barrier = 0, all = 0;
    for (const auto &e : cap.epochs) {
        for (std::size_t w = 0; w < W && w < e.tickUs.size(); w++) {
            tick[w] += double(e.tickUs[w]);
            drain += double(e.drainUs[w]);
            barrier += double(e.barrierUs[w]);
            all += double(e.tickUs[w] + e.drainUs[w] + e.barrierUs[w] +
                          e.idleUs[w]);
        }
    }
    double tick_sum = 0, tick_max = 0;
    for (double t : tick) {
        tick_sum += t;
        tick_max = std::max(tick_max, t);
    }
    m.barrierFrac = all > 0 ? barrier / all : 0.0;
    m.drainFrac = all > 0 ? drain / all : 0.0;
    m.tickImbalance = tick_sum > 0 ? tick_max * double(W) / tick_sum : 0.0;
    m.weightImbalance =
        prof::weightImbalance(cap.weights, net.makeLattice(), int(W));
}

void
addParMetrics(const ParMetrics &m, Report &rep)
{
    rep.add("par.barrier_frac", m.barrierFrac, "frac");
    rep.add("par.drain_frac", m.drainFrac, "frac");
    rep.add("par.tick_imbalance", m.tickImbalance, "max/mean");
    rep.add("par.weight_imbalance", m.weightImbalance, "max/mean");
    rep.add("par.cross_channels", m.crossChannels, "count");
    rep.add("par.speedup_w2", m.speedupW2, "x");
    rep.add("par.speedup_w4", m.speedupW4, "x");
}

void
addExecMetrics(const exec::SweepResults *sweep,
               const std::vector<double> &done_at_s, double wall_s,
               Report &rep)
{
    double util = 0, tail = 0;
    std::vector<double> point_ms;
    if (sweep && wall_s > 0) {
        double busy_s = 0;
        for (const auto &p : sweep->points) {
            busy_s += p.wallMs / 1000.0;
            point_ms.push_back(p.wallMs);
        }
        const auto T = std::size_t(std::max(sweep->threads, 1));
        util = busy_s / (double(T) * wall_s);
        // Once every point has started, the next completion leaves its
        // worker nothing to take: completion number n - T + 1.
        const std::size_t n = done_at_s.size();
        if (n > 0)
            tail = wall_s - done_at_s[n > T ? n - T : 0];
    }
    rep.add("exec.pool_util", util, "frac");
    rep.add("exec.tail_s", tail, "s");
    rep.add("exec.point_ms_p50", quantile(point_ms, 0.5), "ms");
    rep.add("exec.point_ms_p75", quantile(point_ms, 0.75), "ms");
    rep.add("exec.point_ms_max", quantile(point_ms, 1.0), "ms");
}

} // namespace pdrbench
