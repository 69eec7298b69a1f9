/**
 * @file
 * pdrbench: the pdr benchmark program.  Normally started through
 * `python3 pdrbench/run.py`, which builds it first; see README.md.
 *
 *   pdrbench --root DIR --workload NAME [--seed N] [--seconds S]
 *            [--trace 0|1] [--smoke]
 *   pdrbench --root DIR --record
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed and the metrics (end to end with --trace 0, per
 * layer with --trace 1).  --record prints a fresh reference.txt.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hh"
#include "workloads.hh"

using namespace pdrbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
        "usage: pdrbench --root DIR --workload "
        "fig14_sweep|sat8_w1|hotspot16_w4\n"
        "                [--seed N] [--seconds S] [--trace 0|1] "
        "[--smoke]\n"
        "       pdrbench --root DIR --record\n");
    return 2;
}

int
record(const std::string &root)
{
    std::printf(
        "# FNV-1a 64 digests of each workload's deterministic results at\n"
        "# --seed 1: the sweep's toTable() CSV, or a single run's\n"
        "# SimResults and routerTotals() (pdrbench/bench.cc,\n"
        "# resultsText).  Single runs are recorded with one worker, so\n"
        "# hotspot16_w4's four-worker run also proves worker-count\n"
        "# identity.  Re-record with `python3 pdrbench/run.py --record`\n"
        "# only when a change is meant to alter simulated results.\n"
        "fig14_sweep = %s\n"
        "sat8_w1 = %s\n"
        "hotspot16_w4 = %s\n",
        recordSweepDigest(root).c_str(),
        recordSingleDigest(root, "sat8_w1").c_str(),
        recordSingleDigest(root, "hotspot16_w4").c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool do_record = false;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "pdrbench: %s needs a value\n",
                             arg.c_str());
                std::exit(usage());
            }
            return argv[++i];
        };
        if (arg == "--root") {
            opt.root = value();
        } else if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::atof(value().c_str());
        } else if (arg == "--trace") {
            opt.trace = value() != "0";
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--record") {
            do_record = true;
        } else {
            return usage();
        }
    }
    if (opt.root.empty() || opt.seconds <= 0)
        return usage();
    if (do_record)
        return record(opt.root);

    const bool sweep = opt.workload == "fig14_sweep";
    if (!sweep && opt.workload != "sat8_w1" &&
        opt.workload != "hotspot16_w4") {
        return usage();
    }

    std::printf("pdrbench %s seed %llu, %s, nproc %u%s\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                opt.trace ? "per layer (traced)" : "end to end",
                std::thread::hardware_concurrency(),
                opt.smoke ? ", smoke" : "");
    Report rep;
    try {
        if (sweep)
            runSweepWorkload(opt, rep);
        else
            runSingleWorkload(opt, rep);
    } catch (const std::exception &e) {
        if (rep.attempted == 0)
            rep.attempted = 1;
        rep.fail(e.what());
    }
    rep.print();
    return rep.correct ? 0 : 1;
}
