/**
 * @file
 * sat8_w1 and hotspot16_w4: one fixed-horizon runSimulation from an
 * empty network, configured by pdrbench/<workload>.params.  One
 * operation is one run; sweep_s is its wall time (a one-point sweep)
 * and cycles_per_s its simulated cycles per host second.
 */

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <thread>

#include "api/params.hh"
#include "common/logging.hh"
#include "net/network.hh"
#include "par/stepper.hh"
#include "layers.hh"
#include "workloads.hh"

namespace pdrbench {

using namespace pdr;

namespace {

std::string
configText(const std::string &root, const std::string &workload)
{
    return readFile(root + "/pdrbench/" + workload + ".params");
}

/** Worker requests beyond the host's cores are clamped; results do
 *  not depend on the worker count. */
int
clampWorkers(int requested)
{
    return std::min(requested,
                    int(std::max(std::thread::hardware_concurrency(), 1u)));
}

/** The api layer: parse and validate. */
api::SimConfig
parseConfig(const std::string &text, bool smoke)
{
    auto cfg = api::params::parse(text);
    if (smoke) {
        api::params::set(cfg, "sim.warmup", "100");
        api::params::set(cfg, "sim.horizon", "400");
    }
    api::params::validate(cfg);
    cfg.parWorkers = clampWorkers(cfg.parWorkers);
    return cfg;
}

par::ParConfig
parConfig(const api::SimConfig &cfg)
{
    par::ParConfig pc;
    pc.workers = par::resolveWorkers(cfg.parWorkers);
    pc.scheme = par::schemeFromString(cfg.parScheme);
    return pc;
}

/** Setup: the api layer, the Network and its stepper, up to the first
 *  simulated cycle. */
double
setupOnce(const std::string &text, bool smoke)
{
    auto t0 = Clock::now();
    auto cfg = parseConfig(text, smoke);
    net::Network net(cfg.net);
    par::ParallelStepper stepper(net, parConfig(cfg));
    return secondsSince(t0);
}

struct Run
{
    api::SimResults res;
    double wallS = 0;
    std::string text;   //!< resultsText(res).
};

Run
timedRun(const api::SimConfig &cfg, Report &rep)
{
    Run r;
    rep.attempted++;
    auto t0 = Clock::now();
    r.res = api::runSimulation(cfg);
    r.wallS = secondsSince(t0);
    r.text = resultsText(r.res);
    return r;
}

void
endToEnd(const Options &opt, Report &rep)
{
    const std::string text = configText(opt.root, opt.workload);
    const auto cfg = parseConfig(text, opt.smoke);
    std::vector<double> setups, walls, rates;
    std::string first;
    // A one-worker run is single-threaded: give each pass the next CPU.
    std::optional<CpuRotation> rotation;
    if (cfg.parWorkers == 1)
        rotation.emplace();
    const auto start = Clock::now();
    do {
        if (rotation)
            rotation->next();
        for (int i = 0; i < setupRepeats(opt); i++)
            setups.push_back(setupOnce(text, opt.smoke));
        Run r = timedRun(cfg, rep);
        if (walls.empty()) {
            first = r.text;
            checkReference(opt, opt.workload, r.text, rep);
        } else if (r.text != first) {
            rep.fail("results differ between repeats");
        }
        walls.push_back(r.wallS);
        rates.push_back(double(r.res.cycles) / r.wallS);
    } while (anotherPass(walls.size(), 3, secondsSince(start),
                         walls.back(), opt.seconds));

    rep.add("sweep_s", median(walls), "s");
    rep.add("cycles_per_s", median(rates), "1/s");
    rep.add("setup_s", median(setups), "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
}

void
traced(const Options &opt, Report &rep)
{
    const std::string text = configText(opt.root, opt.workload);
    std::vector<double> loads;
    for (int i = 0; i < (opt.smoke ? 3 : 30); i++) {
        auto t0 = Clock::now();
        parseConfig(text, opt.smoke);
        loads.push_back(secondsSince(t0) * 1e3);
    }
    rep.add("api.load_ms", median(loads), "ms");

    const auto cfg = parseConfig(text, opt.smoke);
    const Run plain = timedRun(cfg, rep);
    checkReference(opt, opt.workload, plain.text, rep);
    auto same = [&](const api::SimResults &res, const char *what) {
        if (resultsText(res) != plain.text) {
            rep.fail(csprintf("%s: results differ from the untraced "
                              "run's", what));
        }
    };

    // Serial replay with every network phase timed.
    PhaseTimes times;
    rep.attempted++;
    auto t0 = Clock::now();
    same(replay(cfg, times), "timed replay");
    const double replay_s = secondsSince(t0);
    addPhaseMetrics(times, rep);

    // Partitioned stepper: phase shares from the engine profiler at the
    // workload's worker count, scaling from untraced runs at 1/2/4.
    ParMetrics par;
    {
        auto profiled = cfg;
        profiled.prof.enable = true;
        rep.attempted++;
        auto res = api::runSimulation(profiled);
        same(res, "profiled run");
        if (!res.prof)
            throw std::runtime_error("the profiled run returned no profile");
        setParShares(*res.prof, cfg.net, par);
        net::Network net(cfg.net);
        par::ParallelStepper stepper(net, parConfig(cfg));
        par.crossChannels = double(stepper.crossChannels());
    }
    double wall_w1 = 0;
    for (int w : {1, 2, 4}) {
        auto scaled = cfg;
        scaled.parWorkers = clampWorkers(w);
        const Run r = timedRun(scaled, rep);
        same(r.res, "scaling run");
        if (w == 1)
            wall_w1 = r.wallS;
        else
            (w == 2 ? par.speedupW2 : par.speedupW4) = wall_w1 / r.wallS;
    }
    addParMetrics(par, rep);
    addExecMetrics(nullptr, {}, 0.0, rep);   // No sweep pool.
    addAllocatorMetrics(opt.seed, opt.smoke, rep);
    // Against the untraced one-worker run: the replay steps serially.
    rep.add("trace.overhead_frac", replay_s / wall_w1 - 1.0, "frac");
}

} // namespace

void
runSingleWorkload(const Options &opt, Report &rep)
{
    if (opt.trace)
        traced(opt, rep);
    else
        endToEnd(opt, rep);
}

std::string
recordSingleDigest(const std::string &root, const std::string &workload)
{
    auto cfg = parseConfig(configText(root, workload), false);
    cfg.parWorkers = 1;
    return digest(resultsText(api::runSimulation(cfg)));
}

} // namespace pdrbench
