/**
 * @file
 * fig14_sweep: regenerate the paper's Figure 14 the way a user does,
 * experiments/fig14.exp through Experiment::load and
 * exec::SweepRunner at min(4, nproc) threads.  One operation is one
 * sweep point; sweep_s is the wall time of the whole 48-point sweep.
 */

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "api/params.hh"
#include "common/logging.hh"
#include "exec/sweep.hh"
#include "exec/thread_pool.hh"
#include "layers.hh"
#include "workloads.hh"

namespace pdrbench {

using namespace pdr;

namespace {

const char *const kName = "fig14_sweep";

int
sweepThreads()
{
    return int(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

/** The api layer: load, expand and validate the experiment. */
std::vector<exec::SweepPoint>
expand(const std::string &root, bool smoke)
{
    auto exp = api::Experiment::load(root + "/experiments/fig14.exp");
    if (smoke) {
        exp.set("sweep.loads", "0.05 0.3 0.6");
        exp.set("sim.warmup", "300");
        exp.set("sim.sample_packets", "200");
        exp.set("sim.max_cycles", "5000");
    }
    exp.validate();
    return exp.points();
}

/** Setup: the api layer plus the sweep pool's construction. */
double
setupOnce(const Options &opt)
{
    auto t0 = Clock::now();
    auto points = expand(opt.root, opt.smoke);
    exec::ThreadPool pool(sweepThreads());
    return secondsSince(t0);
}

struct Pass
{
    exec::SweepResults sweep;
    double wallS = 0;
    std::vector<double> doneAtS;    //!< Completion times, in order.
    std::string table;              //!< toTable() CSV.
};

Pass
runPass(const std::vector<exec::SweepPoint> &points, const Options &opt,
        const exec::SweepRunner::RunFn *fn)
{
    Pass p;
    exec::SweepOptions so;
    so.threads = sweepThreads();
    so.baseSeed = opt.seed;
    Clock::time_point t0;
    // Called under the runner's progress mutex, in completion order.
    so.onPointDone = [&](std::size_t, std::size_t, double) {
        p.doneAtS.push_back(secondsSince(t0));
    };
    exec::SweepRunner runner(so);
    t0 = Clock::now();
    p.sweep = fn ? runner.run(points, *fn) : runner.run(points);
    p.wallS = secondsSince(t0);
    p.table = p.sweep.toTable().toCsv();
    return p;
}

void
countPoints(const Pass &p, Report &rep)
{
    for (const auto &pt : p.sweep.points) {
        rep.attempted++;
        if (!pt.ok)
            rep.fail("point '" + pt.label + "': " + pt.error);
    }
}

double
simulatedCycles(const exec::SweepResults &sweep)
{
    double cycles = 0;
    for (const auto &pt : sweep.points)
        cycles += double(pt.res.cycles);
    return cycles;
}

/**
 * Per-model and maximum errors against the paper's Figure 14 values,
 * read from pdrbench/paper_fig14.txt along with the saturation rule.
 * Simulated statistics: identical on every run of one seed.
 */
void
notePaperErrors(const Options &opt, const exec::SweepResults &sweep,
                Report &rep)
{
    auto kv = readKeyValues(opt.root + "/pdrbench/paper_fig14.txt");
    auto number = [&](const char *key) {
        auto it = kv.find(key);
        if (it == kv.end())
            throw std::runtime_error(std::string("paper_fig14.txt: no ") +
                                     key);
        return std::stod(it->second);
    };
    const double zl_load = number("zero_load_load");
    const double limit = number("sat_latency_limit");

    double zl_err = 0, sat_err = 0;
    auto [first, last] = kv.equal_range("curve");
    for (auto it = first; it != last; ++it) {
        // "label | zero-load cycles | saturation fraction"
        const std::string &v = it->second;
        auto a = v.find('|'), b = v.rfind('|');
        if (a == std::string::npos || a == b)
            throw std::runtime_error("paper_fig14.txt: bad curve '" + v +
                                     "'");
        std::string label = v.substr(0, a);
        label.erase(label.find_last_not_of(' ') + 1);
        const double paper_zl = std::stod(v.substr(a + 1, b - a - 1));
        const double paper_sat = std::stod(v.substr(b + 1));

        std::vector<const exec::PointResult *> curve;
        for (const auto &pt : sweep.points) {
            if (pt.label.substr(0, pt.label.rfind('@')) == label)
                curve.push_back(&pt);
        }
        double zl = 0;
        for (const auto *pt : curve) {
            if (std::fabs(pt->res.offeredFraction - zl_load) < 1e-9)
                zl = pt->res.avgLatency;
        }
        if (zl <= 0) {
            rep.fail("fig14 has no zero-load point for curve '" + label +
                     "'");
            continue;
        }
        double sat = 0;
        for (const auto *pt : curve) {
            if (pt->ok && pt->res.drained &&
                pt->res.avgLatency <= limit * zl) {
                sat = std::max(sat, pt->res.offeredFraction);
            }
        }
        const double e_zl = std::fabs(zl - paper_zl);
        const double e_sat = std::fabs(sat - paper_sat);
        zl_err = std::max(zl_err, e_zl);
        sat_err = std::max(sat_err, e_sat);
        rep.note(csprintf("%-14s zero-load %6.2f cycles (paper %g, err "
                          "%.2f)  saturation %.2f (paper %.2f, err %.2f)",
                          label.c_str(), zl, paper_zl, e_zl, sat,
                          paper_sat, e_sat));
    }
    rep.note(csprintf("paper_zero_load_err %.4f cycles", zl_err));
    rep.note(csprintf("paper_sat_err %.4f frac", sat_err));
}

void
endToEnd(const Options &opt, Report &rep)
{
    const auto points = expand(opt.root, opt.smoke);
    std::vector<double> setups, walls, rates;
    std::string first;
    const auto start = Clock::now();
    do {
        for (int i = 0; i < setupRepeats(opt); i++)
            setups.push_back(setupOnce(opt));
        Pass p = runPass(points, opt, nullptr);
        countPoints(p, rep);
        if (walls.empty()) {
            first = p.table;
            checkReference(opt, kName, p.table, rep);
            notePaperErrors(opt, p.sweep, rep);
        } else if (p.table != first) {
            rep.fail("sweep results differ between repeats");
        }
        walls.push_back(p.wallS);
        rates.push_back(simulatedCycles(p.sweep) / p.wallS);
    } while (anotherPass(walls.size(), opt.smoke ? 1 : 2,
                         secondsSince(start), walls.back(), opt.seconds));

    rep.add("sweep_s", median(walls), "s");
    rep.add("cycles_per_s", median(rates), "1/s");
    rep.add("setup_s", median(setups), "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
}

void
traced(const Options &opt, Report &rep)
{
    std::vector<double> loads;
    for (int i = 0; i < (opt.smoke ? 3 : 30); i++) {
        auto t0 = Clock::now();
        expand(opt.root, opt.smoke);
        loads.push_back(secondsSince(t0) * 1e3);
    }
    rep.add("api.load_ms", median(loads), "ms");

    const auto points = expand(opt.root, opt.smoke);
    Pass plain = runPass(points, opt, nullptr);
    countPoints(plain, rep);
    checkReference(opt, kName, plain.table, rep);
    addExecMetrics(&plain.sweep, plain.doneAtS, plain.wallS, rep);

    // The same sweep with every point stepped by the timed replay.
    PhaseTimes times;
    std::mutex times_mutex;
    exec::SweepRunner::RunFn fn = [&](const api::SimConfig &cfg) {
        PhaseTimes t;
        auto res = replay(cfg, t);
        std::lock_guard<std::mutex> lock(times_mutex);
        times += t;
        return res;
    };
    Pass replayed = runPass(points, opt, &fn);
    countPoints(replayed, rep);
    if (replayed.table != plain.table)
        rep.fail("the traced sweep's results differ from the untraced "
                 "sweep's");
    addPhaseMetrics(times, rep);
    addAllocatorMetrics(opt.seed, opt.smoke, rep);
    addParMetrics(ParMetrics{}, rep);   // Points step serially.
    rep.add("trace.overhead_frac", replayed.wallS / plain.wallS - 1.0,
            "frac");
}

} // namespace

void
runSweepWorkload(const Options &opt, Report &rep)
{
    if (opt.trace)
        traced(opt, rep);
    else
        endToEnd(opt, rep);
}

std::string
recordSweepDigest(const std::string &root)
{
    Options opt;
    opt.root = root;
    Pass p = runPass(expand(root, false), opt, nullptr);
    p.sweep.throwIfFailed();
    return digest(p.table);
}

} // namespace pdrbench
