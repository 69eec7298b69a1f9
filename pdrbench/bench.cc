#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"

namespace pdrbench {

void
Report::fail(const std::string &why)
{
    failed++;
    correct = false;
    notes.push_back("FAILED: " + why);
}

void
Report::print() const
{
    for (const auto &n : notes)
        std::printf("  %s\n", n.c_str());
    for (const auto &m : metrics) {
        std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    // Carried by the result's failed/attempted fields, not a metric:
    // it is 0 on every correct run.
    std::printf("  %-30s %16.6g %s\n", "failed_frac",
                attempted ? double(failed) / double(attempted) : 0.0,
                "failed/attempted");
    // A non-finite value is not valid JSON; it marks the run wrong
    // instead.
    bool finite = true;
    for (const auto &m : metrics)
        finite = finite && std::isfinite(m.value);
    std::string json = pdr::csprintf(
        "{\"correct\": %s, \"attempted\": %" PRIu64
        ", \"failed\": %" PRIu64 ", \"metrics\": {",
        correct && finite ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); i++) {
        const auto &m = metrics[i];
        json += pdr::csprintf(
            "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
            i ? ", " : "", m.name.c_str(),
            std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    auto lo = std::size_t(pos);
    if (lo + 1 >= v.size())
        return v.back();
    return v[lo] + (pos - double(lo)) * (v[lo + 1] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

std::string
digest(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return pdr::csprintf("%016" PRIx64, h);
}

std::string
resultsText(const pdr::api::SimResults &res)
{
    const auto &r = res.routers;
    return pdr::csprintf(
        "offered %.17g\naccepted %.17g\navg_latency %.17g\n"
        "p99_latency %.17g\nsample %" PRIu64 "/%" PRIu64 "\n"
        "drained %d\ncycles %" PRIu64 "\n"
        "flits_in %" PRIu64 "\nflits_out %" PRIu64 "\n"
        "head_grants %" PRIu64 "\nva_grants %" PRIu64 "\n"
        "spec_sa %" PRIu64 "/%" PRIu64 "/%" PRIu64 "\n"
        "credit_stall_cycles %" PRIu64 "\nbuf_occupancy %" PRIu64 "\n",
        res.offeredFraction, res.acceptedFraction, res.avgLatency,
        res.p99Latency, res.sampleReceived, res.sampleSize,
        int(res.drained), std::uint64_t(res.cycles), r.flitsIn,
        r.flitsOut, r.headGrants, r.vaGrants, r.specSaAttempts,
        r.specSaWins, r.specSaUseful, r.creditStallCycles,
        r.bufOccupancy);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // Linux reports KiB.
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

namespace {

std::string
trim(const std::string &s)
{
    auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

} // namespace

std::multimap<std::string, std::string>
readKeyValues(const std::string &path)
{
    std::multimap<std::string, std::string> kv;
    std::istringstream in(readFile(path));
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        lineno++;
        line = trim(line);
        if (line.empty() || line[0] == '#')
            continue;
        auto eq = line.find('=');
        if (eq == std::string::npos) {
            throw std::runtime_error(pdr::csprintf(
                "%s:%d: expected 'key = value'", path.c_str(), lineno));
        }
        kv.emplace(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
    }
    return kv;
}

void
checkReference(const Options &opt, const std::string &workload,
               const std::string &text, Report &rep)
{
    if (opt.smoke || opt.seed != 1)
        return;
    auto refs = readKeyValues(opt.root + "/pdrbench/reference.txt");
    auto it = refs.find(workload);
    if (it == refs.end()) {
        rep.fail("no reference digest for " + workload);
        return;
    }
    std::string got = digest(text);
    if (got != it->second) {
        rep.fail(workload + " results digest " + got +
                 " differs from the reference " + it->second);
    }
}

CpuRotation::CpuRotation()
{
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0)
        return;     // Unknown set: next() leaves the thread alone.
    for (int c = 0; c < CPU_SETSIZE; c++) {
        if (CPU_ISSET(c, &original_))
            cpus_.push_back(c);
    }
}

CpuRotation::~CpuRotation()
{
    if (!cpus_.empty())
        sched_setaffinity(0, sizeof(original_), &original_);
}

void
CpuRotation::next()
{
    if (cpus_.empty())
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
}

bool
anotherPass(std::size_t done, std::size_t min_passes, double elapsed,
            double last, double budget)
{
    return done < min_passes || elapsed + last <= budget;
}

} // namespace pdrbench
