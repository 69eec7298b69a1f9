/**
 * @file
 * Shared pieces of the pdr benchmark (pdrbench): options, the result
 * report, order statistics, host clocks, result digests and the
 * benchmark's data files (reference digests, paper values).
 *
 * pdrbench measures pdr from outside: every number is a host-clock
 * reading around calls into libpdr's public API, or a count the API
 * already returns.  Nothing here changes what the simulator computes.
 */

#ifndef PDRBENCH_BENCH_HH
#define PDRBENCH_BENCH_HH

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/simulation.hh"

namespace pdrbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one benchmark invocation. */
struct Options
{
    std::string root;           //!< Repository checkout (data, experiments).
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;      //!< Measurement budget of the run.
    bool trace = false;         //!< Per-layer run instead of end to end.
    bool smoke = false;         //!< Tiny configurations (smoke test).
};

/**
 * What one run prints: the end-to-end or per-layer metrics, the
 * operation counts, and human-readable notes (per-model paper errors,
 * failure reasons) that precede the JSON result line.
 */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    std::vector<Metric> metrics;
    std::vector<std::string> notes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False once any check failed; the run then counts as wrong. */
    bool correct = true;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void note(const std::string &line) { notes.push_back(line); }

    /** Record one failed operation and why. */
    void fail(const std::string &why);

    /** Notes, a metric table, then the one-line JSON result. */
    void print() const;
};

/** Median (mean of the middle pair for an even count); 0 if empty. */
double median(std::vector<double> v);

/** Linearly interpolated quantile, q in [0, 1]; 0 if empty. */
double quantile(std::vector<double> v, double q);

/** 64-bit FNV-1a, printed as 16 hex digits. */
std::string digest(const std::string &text);

/** Every deterministic field of one run's results, one per line. */
std::string resultsText(const pdr::api::SimResults &res);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** Read a whole file; throws std::runtime_error when unreadable. */
std::string readFile(const std::string &path);

/**
 * `key = value` lines of a benchmark data file (blank lines and
 * #-comments skipped).  A key may repeat; every value is kept in file
 * order.
 */
std::multimap<std::string, std::string>
readKeyValues(const std::string &path);

/**
 * Check `text` against the digest recorded for `workload` in
 * pdrbench/reference.txt.  References are recorded at seed 1 only, so
 * other seeds and smoke runs are checked for repeat identity alone.
 * A mismatch fails one operation.
 */
void checkReference(const Options &opt, const std::string &workload,
                    const std::string &text, Report &rep);

/**
 * Moves the calling thread to the next CPU of its original affinity set
 * on every next() call, and restores the set on destruction.  A
 * single-threaded run otherwise stays on the CPU it started on, and on
 * a shared host one virtual CPU can run 40% slower than another for
 * minutes, so the run's median would report where it landed.  Threads
 * created while pinned inherit the pin, so use it only around
 * single-threaded work.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void next();

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
};

/** Setups timed before each end-to-end pass: setup_s is their median,
 *  so it samples the same stretch of the run as the passes. */
inline int
setupRepeats(const Options &opt)
{
    return opt.smoke ? 3 : 25;
}

/** Shared by the end-to-end loops: run another pass while the next one
 *  (assumed as long as the last) fits in the budget, and always at
 *  least `min_passes`. */
bool anotherPass(std::size_t done, std::size_t min_passes, double elapsed,
                 double last, double budget);

} // namespace pdrbench

#endif // PDRBENCH_BENCH_HH
