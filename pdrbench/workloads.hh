/**
 * @file
 * The benchmark's workloads.  Each fills a Report with the end-to-end
 * metrics (untraced) or the per-layer metrics (traced) and counts its
 * operations.  Every workload prints every metric name so runs are
 * comparable row by row; a layer the workload does not exercise
 * reports 0 (README.md lists which).
 *
 *  - fig14_sweep: experiments/fig14.exp through Experiment::load and
 *    exec::SweepRunner; one operation is one sweep point.
 *  - sat8_w1, hotspot16_w4: one fixed-horizon runSimulation of the
 *    config in pdrbench/<name>.params; one operation is one run.
 */

#ifndef PDRBENCH_WORKLOADS_HH
#define PDRBENCH_WORKLOADS_HH

#include <string>

#include "bench.hh"

namespace pdrbench {

void runSweepWorkload(const Options &opt, Report &rep);
void runSingleWorkload(const Options &opt, Report &rep);

/** The digests reference.txt records: results at seed 1, single runs
 *  executed with one worker. */
std::string recordSweepDigest(const std::string &root);
std::string recordSingleDigest(const std::string &root,
                               const std::string &workload);

} // namespace pdrbench

#endif // PDRBENCH_WORKLOADS_HH
