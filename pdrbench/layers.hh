/**
 * @file
 * Per-layer measurements, all taken from outside libpdr:
 *
 *  - replay(): runSimulation's stepping loop rebuilt from Network's
 *    public phase calls (skipIdle / tickSources / tickRouters /
 *    tickSinks / finishCycle), each call timed, with an engine
 *    profiler attached only for its per-router tick counts.  It must
 *    end in results identical to runSimulation's, which the callers
 *    check, so the per-layer numbers describe the measured program.
 *  - allocator rounds over pre-generated seeded request streams.
 *  - partitioned-stepper phase shares from a prof::Capture.
 */

#ifndef PDRBENCH_LAYERS_HH
#define PDRBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/simulation.hh"
#include "exec/sweep.hh"
#include "bench.hh"
#include "prof/config.hh"

namespace pdrbench {

/** Host time per network phase, summed over one or more replays. */
struct PhaseTimes
{
    double skipNs = 0, sourceNs = 0, routerNs = 0, sinkNs = 0,
           finishNs = 0;
    std::uint64_t cycles = 0;       //!< Simulated cycles.
    std::uint64_t stepped = 0;      //!< Cycles actually ticked.
    std::uint64_t routerTicks = 0;  //!< From the profiler's tick weights.
    std::uint64_t flitHops = 0;     //!< routerTotals().flitsOut.
    std::uint64_t specAttempts = 0, specUseful = 0;

    PhaseTimes &operator+=(const PhaseTimes &o);
    double totalNs() const
    {
        return skipNs + sourceNs + routerNs + sinkNs + finishNs;
    }
};

/** Serial timed replay of runSimulation(cfg) (cfg.parWorkers is
 *  ignored: results are identical at every worker count). */
pdr::api::SimResults replay(const pdr::api::SimConfig &cfg,
                            PhaseTimes &times);

/** The net/router/traffic rows derived from replay times. */
void addPhaseMetrics(const PhaseTimes &t, Report &rep);

/** arb.* rows: ns per allocate() round at the p=5, v=2 shapes. */
void addAllocatorMetrics(std::uint64_t seed, bool smoke, Report &rep);

/** Phase shares, imbalance and scaling of the partitioned stepper;
 *  all zero for a workload that does not step partitions. */
struct ParMetrics
{
    double barrierFrac = 0, drainFrac = 0, tickImbalance = 0,
           weightImbalance = 0, crossChannels = 0, speedupW2 = 0,
           speedupW4 = 0;
};

/** Fill the phase shares and imbalances from one profiled run. */
void setParShares(const pdr::prof::Capture &cap,
                  const pdr::net::NetworkConfig &net, ParMetrics &m);

/** The par.* rows. */
void addParMetrics(const ParMetrics &m, Report &rep);

/**
 * The exec.* rows of one sweep: pool utilisation, the tail from the
 * first idle pool worker to the sweep's end, and point wall-time
 * quantiles.  `done_at_s` holds point completion times from the
 * sweep's start, in completion order.  A null sweep (a workload with
 * no pool) reports zeros.
 */
void addExecMetrics(const pdr::exec::SweepResults *sweep,
                    const std::vector<double> &done_at_s, double wall_s,
                    Report &rep);

} // namespace pdrbench

#endif // PDRBENCH_LAYERS_HH
