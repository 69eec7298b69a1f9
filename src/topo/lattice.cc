#include "topo/lattice.hh"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "common/logging.hh"

namespace pdr::topo {

Lattice::Lattice(std::vector<int> radices, std::vector<bool> wraps,
                 int concentration)
    : radix_(std::move(radices)), wrap_(std::move(wraps)),
      conc_(concentration)
{
    if (radix_.empty() || int(radix_.size()) > kMaxDims) {
        throw std::invalid_argument(csprintf(
            "net.topology: lattice needs 1..%d dimensions, got %zu",
            kMaxDims, radix_.size()));
    }
    if (wrap_.size() != radix_.size()) {
        throw std::invalid_argument(
            "net.topology: one wrap flag per dimension required");
    }
    for (int k : radix_) {
        if (k < 2) {
            throw std::invalid_argument(csprintf(
                "net.k: lattice radix must be >= 2, got %d", k));
        }
    }
    if (conc_ < 1) {
        throw std::invalid_argument(csprintf(
            "net.topology: concentration must be >= 1, got %d", conc_));
    }
    stride_.resize(radix_.size());
    long long routers = 1;
    for (std::size_t d = 0; d < radix_.size(); d++) {
        stride_[d] = int(routers);
        routers *= radix_[d];
        if (routers * conc_ > (1 << 24)) {
            throw std::invalid_argument(
                "net.topology: lattice too large (> 2^24 nodes)");
        }
    }
    numRouters_ = int(routers);
    anyWrap_ = std::find(wrap_.begin(), wrap_.end(), true) != wrap_.end();
}

Lattice
Lattice::kAryNMesh(int n, int k)
{
    return Lattice(std::vector<int>(std::size_t(std::max(n, 1)), k),
                   std::vector<bool>(std::size_t(std::max(n, 1)), false));
}

Lattice
Lattice::kAryNCube(int n, int k)
{
    return Lattice(std::vector<int>(std::size_t(std::max(n, 1)), k),
                   std::vector<bool>(std::size_t(std::max(n, 1)), true));
}

Lattice
Lattice::cmesh(int k, int c)
{
    return Lattice({k, k}, {false, false}, c);
}

int
Lattice::opposite(int port) const
{
    pdr_assert(isDirectional(port));
    return (port + dims()) % (2 * dims());
}

std::string
Lattice::portName(int port) const
{
    if (isLocalPort(port)) {
        int j = localIndexOfPort(port);
        pdr_assert(j >= 0 && j < conc_);
        return conc_ == 1 ? "L" : csprintf("L%d", j);
    }
    int d = dimOfPort(port);
    bool plus = isPlusPort(port);
    switch (d) {
      case 0: return plus ? "E" : "W";
      case 1: return plus ? "N" : "S";
      case 2: return plus ? "U" : "D";
    }
    return csprintf("%c%d", plus ? 'P' : 'M', d);
}

sim::NodeId
Lattice::routerAt(const std::vector<int> &coords) const
{
    pdr_assert(int(coords.size()) == dims());
    long long id = 0;
    for (std::size_t d = 0; d < coords.size(); d++) {
        pdr_assert(coords[d] >= 0 && coords[d] < radix_[d]);
        id += (long long)coords[d] * stride_[d];
    }
    return sim::NodeId(id);
}

sim::NodeId
Lattice::neighbor(sim::NodeId router, int port) const
{
    if (!isDirectional(port))
        return sim::Invalid;
    int d = dimOfPort(port);
    int k = radix_[std::size_t(d)];
    int c = coordOf(router, d);
    int step = isPlusPort(port) ? 1 : -1;
    int nc = c + step;
    if (nc < 0 || nc >= k) {
        if (!wrap_[std::size_t(d)])
            return sim::Invalid;
        nc = (nc + k) % k;
    }
    return router + (nc - c) * stride_[std::size_t(d)];
}

bool
Lattice::wrapLinkIn(sim::NodeId router, int port) const
{
    if (!isDirectional(port))
        return false;
    int d = dimOfPort(port);
    if (!wrap_[std::size_t(d)])
        return false;
    int c = coordOf(router, d);
    return isPlusPort(port) ? c == radix_[std::size_t(d)] - 1 : c == 0;
}

int
Lattice::distance(sim::NodeId a, sim::NodeId b) const
{
    int total = 0;
    for (int d = 0; d < dims(); d++) {
        int diff = std::abs(coordOf(a, d) - coordOf(b, d));
        if (wrap_[std::size_t(d)])
            diff = std::min(diff, radix_[std::size_t(d)] - diff);
        total += diff;
    }
    return total;
}

double
Lattice::uniformCapacity() const
{
    // Narrowest dimension cut: 2 * (routers / k_d) unidirectional
    // channels, doubled again when the dimension wraps.
    double bc = 0.0;
    for (int d = 0; d < dims(); d++) {
        double cut = 2.0 * (double(numRouters_) / radix_[std::size_t(d)]) *
                     (wrap_[std::size_t(d)] ? 2.0 : 1.0);
        if (bc == 0.0 || cut < bc)
            bc = cut;
    }
    return 2.0 * bc / numNodes();
}

double
Lattice::meanUniformDistance() const
{
    // Sum the per-dimension mean offset (over all ordered coordinate
    // pairs, self included), then correct for excluding same-node
    // pairs: concentration factors cancel.
    double incl_self = 0.0;
    for (int d = 0; d < dims(); d++) {
        int k = radix_[std::size_t(d)];
        if (wrap_[std::size_t(d)]) {
            double sum = 0.0;
            for (int off = 0; off < k; off++)
                sum += std::min(off, k - off);
            incl_self += sum / k;
        } else {
            incl_self += (double(k) * k - 1.0) / (3.0 * k);
        }
    }
    double n = numNodes();
    return incl_self * n / (n - 1.0);
}

} // namespace pdr::topo
