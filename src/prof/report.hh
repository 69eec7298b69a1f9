/**
 * @file
 * Offline profile analysis: turn a prof::Capture into the `pdr
 * profile` report, and parse a previously written NDJSON stream back
 * into a Capture (`pdr profile --from FILE`).
 *
 * The report mixes two kinds of data with different guarantees:
 * per-worker utilization comes from host wall clocks and varies run
 * to run, while everything derived from simulated counters (hottest
 * routers, partition shares, the weight_imbalance and cost_imbalance
 * ratios and the weighted-cut verdict) is deterministic -- identical
 * across runs and execution worker counts, because the counters are a
 * pure function of the simulated schedule and the verdict partition
 * size is prof.report_workers, not par.workers.
 *
 * weight_imbalance splits router ticks alone; cost_imbalance splits
 * the cost the weighted re-cut balances (par::routerCost per router
 * plus par::kSinkFlitCost per ejected flit), and the verdict names the
 * cut that re-cut would choose over the whole run.
 */

#ifndef PDR_PROF_REPORT_HH
#define PDR_PROF_REPORT_HH

#include <iosfwd>
#include <string>

#include "prof/config.hh"
#include "topo/lattice.hh"

namespace pdr::prof {

/**
 * Tick-weight imbalance of a plane-aligned split into (up to)
 * `workers` blocks: max block weight / mean block weight.  1.0 is a
 * perfect split; W means one block carries everything.  Returns 0
 * when no router ever ticked.
 */
double weightImbalance(const std::vector<std::uint64_t> &weights,
                       const topo::Lattice &lat, int workers);

/** Render the full `pdr profile` report (see file comment). */
std::string buildReport(const Capture &cap, const topo::Lattice &lat,
                        const Config &cfg);

/**
 * Rebuild a Capture from an NDJSON stream containing worker_window /
 * weight_heatmap records (other record types are skipped).  Throws
 * std::runtime_error when no profiler records are present.
 */
Capture parseStream(std::istream &in);

} // namespace pdr::prof

#endif // PDR_PROF_REPORT_HH
