#include "router/router.hh"

#include <algorithm>
#include <stdexcept>

#include "arb/scalar_oracle.hh"
#include "common/logging.hh"

namespace pdr::router {

Router::Router(sim::NodeId id, const RouterConfig &cfg,
               const RoutingFunction &routing, sim::FlitPool &pool)
    : id_(id), cfg_(cfg), routing_(routing), pool_(pool)
{
    cfg_.validate();
    if (cfg_.numPorts < 2) {
        throw std::invalid_argument(
            "router.num_ports: a standalone router needs a concrete "
            "port count (0 = auto resolves inside a Network only)");
    }
    int p = cfg_.numPorts;
    int v = cfg_.numVcs;

    inputs_.resize(p);
    outputs_.resize(p);
    invcs_.resize(std::size_t(p) * std::size_t(v));
    outFree_.assign(p, arb::lowMask(v));
    vcWords_ = arb::wordsFor(p * v);
    bidRouteWait_.assign(vcWords_, 0);
    bidActive_.assign(vcWords_, 0);
    outCredits_.assign(std::size_t(p) * std::size_t(v), cfg_.bufDepth);
    for (auto &ivc : invcs_)
        ivc.fifo.init(cfg_.bufDepth);

    const bool scalar = cfg_.scalarAlloc;
    auto make_sep = [&]() -> std::unique_ptr<arb::SwitchAllocatorBase> {
        if (scalar)
            return std::make_unique<arb::ScalarSeparableSwitchAllocator>(
                p, v);
        return std::make_unique<arb::SeparableSwitchAllocator>(p, v);
    };
    switch (cfg_.model) {
      case RouterModel::Wormhole:
        if (scalar)
            whArb_ =
                std::make_unique<arb::ScalarWormholeSwitchArbiter>(p);
        else
            whArb_ = std::make_unique<arb::WormholeSwitchArbiter>(p);
        break;
      case RouterModel::VirtualChannel:
        vcAlloc_ = scalar
            ? std::unique_ptr<arb::VcAllocatorBase>(
                  std::make_unique<arb::ScalarVcAllocator>(p, v))
            : std::make_unique<arb::VcAllocator>(p, v);
        saAlloc_ = make_sep();
        break;
      case RouterModel::SpecVirtualChannel:
        vcAlloc_ = scalar
            ? std::unique_ptr<arb::VcAllocatorBase>(
                  std::make_unique<arb::ScalarVcAllocator>(p, v))
            : std::make_unique<arb::VcAllocator>(p, v);
        if (cfg_.singleCycle || cfg_.specEqualPriority) {
            // Unit-latency model (VA and SA complete in the same
            // cycle, no speculation needed) or the equal-priority
            // ablation: one separable allocator over all requests.
            saAlloc_ = make_sep();
        } else if (scalar) {
            specAlloc_ =
                std::make_unique<arb::ScalarSpeculativeSwitchAllocator>(
                    p, v);
        } else {
            specAlloc_ =
                std::make_unique<arb::SpeculativeSwitchAllocator>(p, v);
        }
        break;
    }
    // The speculative pipeline bids the switch for every ready
    // RouteWait VC each cycle (this includes the equal-priority
    // ablation: its bids feed the shared separable allocator).
    specBids_ = cfg_.model == RouterModel::SpecVirtualChannel &&
                !cfg_.singleCycle;
    adaptive_ = routing_.isAdaptive();
    creditProc_ = cfg_.effectiveCreditProc();
}

void
Router::connectInput(int port, FlitChannel *in, CreditChannel *credit_out)
{
    pdr_assert(port >= 0 && port < cfg_.numPorts);
    inputs_[port].in = in;
    inputs_[port].creditOut = credit_out;
}

void
Router::connectOutput(int port, FlitChannel *out, CreditChannel *credit_in,
                      bool is_sink)
{
    pdr_assert(port >= 0 && port < cfg_.numPorts);
    outputs_[port].out = out;
    outputs_[port].creditIn = credit_in;
    const std::uint64_t bit = std::uint64_t(1) << port;
    sinkPorts_ = is_sink ? (sinkPorts_ | bit) : (sinkPorts_ & ~bit);
}

int
Router::credits(int out_port, int out_vc) const
{
    return outCredits_[vidx(out_port, out_vc)];
}

int
Router::buffered(int port) const
{
    int n = 0;
    for (int vc = 0; vc < cfg_.numVcs; vc++)
        n += invc(port, vc).fifo.size();
    return n;
}

int
Router::auditPendingCredits(int out_port, int out_vc) const
{
    int n = 0;
    pendingCredits_.forEach([&](const PendingCredit &pc) {
        if (pc.port == out_port && pc.vc == out_vc)
            n++;
    });
    return n;
}

void
Router::auditCollectFlits(std::vector<sim::FlitRef> &out) const
{
    for (const auto &ivc : invcs_)
        ivc.fifo.forEach([&out](sim::FlitRef ref) {
            out.push_back(ref);
        });
}

std::string
Router::auditBidState() const
{
    const int p = cfg_.numPorts;
    const int v = cfg_.numVcs;
    // Expected output-VC busy words, rebuilt from the Active holders
    // (an input VC holds (route, outVc) from VA grant to tail
    // departure).  p <= 64 is enforced by RouterConfig::validate.
    std::uint64_t busy[64] = {};
    for (int port = 0; port < p; port++) {
        for (int vc = 0; vc < v; vc++) {
            const std::size_t vi = vidx(port, vc);
            const InputVc &ivc = invcs_[vi];
            const bool rw = ivc.state == VcState::RouteWait;
            const bool act =
                ivc.state == VcState::Active && !ivc.fifo.empty();
            if (rw != arb::testBit(bidRouteWait_.data(), int(vi))) {
                return csprintf(
                    "bidRouteWait bit (port %d, vc %d): bit %d, "
                    "state %d", port, vc, int(!rw), int(ivc.state));
            }
            if (act != arb::testBit(bidActive_.data(), int(vi))) {
                return csprintf(
                    "bidActive bit (port %d, vc %d): bit %d, state %d "
                    "fifo %d", port, vc, int(!act), int(ivc.state),
                    int(ivc.fifo.size()));
            }
            if (cfg_.model != RouterModel::Wormhole &&
                ivc.state == VcState::Active) {
                busy[ivc.route] |= std::uint64_t(1) << ivc.outVc;
            }
        }
    }
    if (cfg_.model != RouterModel::Wormhole) {
        for (int port = 0; port < p; port++) {
            const std::uint64_t expect = arb::lowMask(v) & ~busy[port];
            if (outFree_[port] != expect) {
                return csprintf(
                    "outFree_[%d] = %#llx, expected %#llx from Active "
                    "holders", port,
                    (unsigned long long)outFree_[port],
                    (unsigned long long)expect);
            }
        }
    }
    return std::string();
}

bool
Router::quiescent() const
{
    for (const auto &ivc : invcs_)
        if (!ivc.fifo.empty() || ivc.state != VcState::Idle)
            return false;
    for (const auto &op : outputs_)
        if (op.heldBy != sim::Invalid)
            return false;
    for (std::uint64_t free : outFree_)
        if (free != arb::lowMask(cfg_.numVcs))
            return false;
    return true;
}

bool
Router::hasCredit(int out_port, int out_vc) const
{
    return isSink(out_port) ||
           outCredits_[vidx(out_port, out_vc)] > 0;
}

int
Router::portScore(int out_port) const
{
    const auto &op = outputs_[out_port];
    if (isSink(out_port))
        return cfg_.numVcs * cfg_.bufDepth + 1;
    if (cfg_.model == RouterModel::Wormhole) {
        if (op.heldBy != sim::Invalid)
            return 0;
        return outCredits_[vidx(out_port, 0)];
    }
    int score = 0;
    if (cfg_.scalarAlloc) {
        // Pre-rework cost shape: test every VC of the port.
        for (int vc = 0; vc < cfg_.numVcs; vc++) {
            if ((outFree_[out_port] >> vc) & 1u)
                score += outCredits_[vidx(out_port, vc)];
        }
        return score;
    }
    std::uint64_t free = outFree_[out_port];
    while (free) {
        int vc = arb::ctz64(free);
        free &= free - 1;
        score += outCredits_[vidx(out_port, vc)];
    }
    return score;
}

int
Router::selectRoute(const sim::Flit &head)
{
    if (!adaptive_) {
        int port = routing_.route(id_, head);
        pdr_assert(port >= 0 && port < cfg_.numPorts);
        return port;
    }
    routing_.candidates(id_, head, candScratch_);
    pdr_assert(!candScratch_.empty());
    int best = candScratch_.front();
    if (candScratch_.size() > 1) {
        int best_score = portScore(best);
        for (std::size_t i = 1; i < candScratch_.size(); i++) {
            int score = portScore(candScratch_[i]);
            if (score > best_score) {
                best = candScratch_[i];
                best_score = score;
            }
        }
    }
    pdr_assert(best >= 0 && best < cfg_.numPorts);
    return best;
}

void
Router::tick(sim::Cycle now)
{
    // Occupancy integral: the buffered-flit count is constant between
    // this router's ticks (only receiveFlits/departFlit below change
    // it), so folding count * elapsed here matches per-cycle counting
    // across any sleep schedule.
    if (now > occObsAt_) {
        stats_.bufOccupancy +=
            std::uint64_t(bufferedNow_) * (now - occObsAt_);
        occObsAt_ = now;
    }
    receiveCredits(now);
    receiveFlits(now);
    if (cfg_.model == RouterModel::Wormhole) {
        saPhaseWormhole(now);
    } else {
        vaPhase(now);
        saPhaseVc(now);
    }
}

void
Router::receiveCredits(sim::Cycle now)
{
    // Accept newly arrived credits into the processing pipeline first.
    // With proc == 0 a credit is usable by this very cycle's allocation,
    // so it is applied on arrival and never queued.
    for (int port = 0; port < cfg_.numPorts; port++) {
        auto *chan = outputs_[port].creditIn;
        if (!chan)
            continue;
        while (auto c = chan->pop(now)) {
            pdr_assert(c->vc >= 0 && c->vc < cfg_.numVcs);
            if (creditProc_ == 0) {
                int &credits = outCredits_[vidx(port, c->vc)];
                credits++;
                pdr_assert(credits <= cfg_.bufDepth);
            } else {
                pendingCredits_.push_back(
                    {now + sim::Cycle(creditProc_), port, c->vc});
            }
        }
    }

    // Apply credits that finished the processing pipeline.
    while (!pendingCredits_.empty() &&
           pendingCredits_.front().applyAt <= now) {
        const auto &pc = pendingCredits_.front();
        outCredits_[vidx(pc.port, pc.vc)]++;
        pdr_assert(outCredits_[vidx(pc.port, pc.vc)] <= cfg_.bufDepth);
        pendingCredits_.pop_front();
    }
}

void
Router::receiveFlits(sim::Cycle now)
{
    for (int port = 0; port < cfg_.numPorts; port++) {
        auto *chan = inputs_[port].in;
        if (!chan)
            continue;
        while (auto r = chan->pop(now)) {
            const sim::Flit &f = pool_.get(*r);
            pdr_assert(f.vc >= 0 && f.vc < cfg_.numVcs);
            auto &ivc = invc(port, f.vc);
            pdr_assert(ivc.fifo.size() < cfg_.bufDepth);
            const sim::Cycle eligible = now + firstActionDelay();
            if (sim::isHead(f.type) && ivc.state == VcState::Idle) {
                // Empty VC: decode + route this packet immediately (the
                // RC stage); otherwise the head waits for takeover when
                // the previous tail departs.
                pdr_assert(ivc.fifo.empty());
                ivc.state = VcState::RouteWait;
                routeHead(ivc, f);
                ivc.actReady = eligible;
            }
            ivc.fifo.push(*r, eligible);
            bufferedNow_++;
            syncBid(vidx(port, f.vc));
            stats_.flitsIn++;
        }
    }
}

void
Router::vaPhase(sim::Cycle now)
{
    const int v = cfg_.numVcs;
    if (cfg_.scalarAlloc) {
        // Pre-rework cost shape: sweep every VC's flag each tick.
        const int nivc = cfg_.numPorts * v;
        for (int vi = 0; vi < nivc; vi++)
            invcs_[vi].vaGrantedNow = false;
        vaGranted_.clear();
    } else {
        // vaGrantedNow only matters within the tick that granted it;
        // clear exactly last tick's grantees instead of sweeping.
        for (std::size_t vi : vaGranted_)
            invcs_[vi].vaGrantedNow = false;
        vaGranted_.clear();
    }

    vaReqs_.clear();
    saReqs_.clear();

    auto consider = [&](int vi) {
        auto &ivc = invcs_[vi];
        pdr_assert(ivc.state == VcState::RouteWait);
        if (now < ivc.actReady)
            return;
        pdr_assert(!ivc.fifo.empty());
        const int port = vi / v, vc = vi % v;
        const auto &head = pool_.get(ivc.fifo.front());
        pdr_assert(sim::isHead(head.type));
        if (adaptive_) {
            // Footnote 5: re-iterate through the routing function
            // on every attempt, picking one output port.
            routeHead(ivc, head);
        }
        // A request with no free candidate output VC cannot win and
        // leaves the allocator's state untouched, so it is not staged.
        if (std::uint64_t(ivc.vcMask) & outFree_[ivc.route])
            vaReqs_.push_back({port, vc, ivc.route, ivc.vcMask});
        if (specBids_) {
            // Speculative switch bid issued in parallel with the VA
            // request, before its outcome is known.
            saReqs_.push_back({port, vc, ivc.route, true});
            stats_.specSaAttempts++;
        }
    };
    if (cfg_.scalarAlloc) {
        // Pre-rework cost shape (the A/B baseline): visit every input
        // VC and test its state.  Same ascending order, same gates, so
        // vaReqs_ is identical to the sparse walk's.
        const int nivc = cfg_.numPorts * v;
        for (int vi = 0; vi < nivc; vi++) {
            if (invcs_[vi].state == VcState::RouteWait)
                consider(vi);
        }
    } else {
        arb::forEachSetBit(bidRouteWait_.data(), vcWords_, consider);
    }

    if (vaReqs_.empty())
        return;

    const auto &grants = vcAlloc_->allocate(vaReqs_, outFree_.data());
    for (const auto &g : grants) {
        std::size_t vi = vidx(g.inPort, g.inVc);
        auto &ivc = invcs_[vi];
        outFree_[g.outPort] &= ~(std::uint64_t(1) << g.outVc);
        ivc.outVc = g.outVc;
        ivc.state = VcState::Active;
        ivc.vaGrantedNow = true;
        vaGranted_.push_back(vi);
        syncBid(vi);
        // Non-speculative switch requests start next cycle (same cycle
        // for the unit-latency model).
        ivc.saReady = now + (cfg_.singleCycle ? 0 : 1);
        stats_.vaGrants++;
    }
}

void
Router::saPhaseWormhole(sim::Cycle now)
{
    saReqs_.clear();
    // Wormhole has numVcs == 1, so vidx == port and the union of the
    // bid bitsets is exactly the ports whose FIFO holds an actionable
    // flit (RouteWait implies non-empty; Active-with-empty-FIFO ports
    // have their bidActive_ bit clear).  departFlit() below mutates
    // only the visited port's bits; the sparse walk iterates a word
    // snapshot, so the traversal matches the dense ascending scan.
    auto considerPort = [&](int port) {
        auto &ivc = invc(port, 0);
        pdr_assert(!ivc.fifo.empty());
        if (now < ivc.fifo.frontEligible())
            return;
        if (ivc.state == VcState::RouteWait && now >= ivc.actReady) {
            // Head arbitrates for a free output port; it also needs a
            // downstream buffer to move into.
            const auto &f = pool_.get(ivc.fifo.front());
            pdr_assert(sim::isHead(f.type));
            if (adaptive_)
                routeHead(ivc, f);
            if (outputs_[ivc.route].heldBy != sim::Invalid) {
                closeStall(ivc, now);   // Held port, not a credit stall.
            } else if (hasCredit(ivc.route, 0)) {
                closeStall(ivc, now);
                saReqs_.push_back({port, 0, ivc.route, false});
            } else {
                extendStall(ivc, now);
            }
        } else if (ivc.state == VcState::Active) {
            // Port is held: body/tail flits flow without arbitration.
            pdr_assert(outputs_[ivc.route].heldBy == port);
            if (hasCredit(ivc.route, 0)) {
                closeStall(ivc, now);
                departFlit(port, 0, ivc.route, 0, now);
            } else {
                extendStall(ivc, now);
            }
        }
    };
    if (cfg_.scalarAlloc) {
        // Pre-rework cost shape: scan every port, gated on the same
        // condition the bid bits encode.
        for (int port = 0; port < cfg_.numPorts; port++) {
            const auto &ivc = invc(port, 0);
            if (ivc.state == VcState::RouteWait ||
                (ivc.state == VcState::Active && !ivc.fifo.empty()))
                considerPort(port);
        }
    } else {
        std::uint64_t occupied = bidRouteWait_[0] | bidActive_[0];
        while (occupied) {
            int port = arb::ctz64(occupied);
            occupied &= occupied - 1;
            considerPort(port);
        }
    }

    if (saReqs_.empty())
        return;

    for (const auto &g : whArb_->allocate(saReqs_)) {
        auto &ivc = invc(g.inPort, 0);
        outputs_[g.outPort].heldBy = g.inPort;
        ivc.state = VcState::Active;
        stats_.headGrants++;
        departFlit(g.inPort, 0, g.outPort, 0, now);
    }
}

void
Router::saPhaseVc(sim::Cycle now)
{
    // Non-speculative requests from Active VCs (saReqs_ already holds
    // this tick's speculative bids, pushed by vaPhase).  bidActive_ is
    // exactly the Active VCs with a buffered flit, in ascending vidx
    // order; no mutation happens until the grant loop below.
    const int v = cfg_.numVcs;
    auto consider = [&](int vi) {
        auto &ivc = invcs_[vi];
        pdr_assert(ivc.state == VcState::Active && !ivc.fifo.empty());
        if (ivc.vaGrantedNow && !cfg_.singleCycle)
            return;     // Covered by its speculative bid (specVC).
        if (now < ivc.fifo.frontEligible() || now < ivc.saReady)
            return;
        if (!hasCredit(ivc.route, ivc.outVc)) {
            extendStall(ivc, now);
            return;
        }
        closeStall(ivc, now);
        saReqs_.push_back({vi / v, vi % v, ivc.route, false});
    };
    if (cfg_.scalarAlloc) {
        // Pre-rework cost shape: visit every input VC and test its
        // state; same ascending order and gates as the bid bits.
        const int nivc = cfg_.numPorts * v;
        for (int vi = 0; vi < nivc; vi++) {
            const auto &ivc = invcs_[vi];
            if (ivc.state == VcState::Active && !ivc.fifo.empty())
                consider(vi);
        }
    } else {
        arb::forEachSetBit(bidActive_.data(), vcWords_, consider);
    }

    if (saReqs_.empty())
        return;

    const auto &grants = specAlloc_ ? specAlloc_->allocate(saReqs_)
                                    : saAlloc_->allocate(saReqs_);
    bool equal_prio = cfg_.model == RouterModel::SpecVirtualChannel &&
                      cfg_.specEqualPriority && !cfg_.singleCycle;
    for (const auto &g : grants) {
        auto &ivc = invc(g.inPort, g.inVc);
        // In the equal-priority ablation the allocator does not track
        // the spec flag; a grant is speculative iff the VC was still
        // bidding for (or just received) its output VC this cycle.
        bool spec = g.spec ||
                    (equal_prio && (ivc.state == VcState::RouteWait ||
                                    ivc.vaGrantedNow));
        if (spec) {
            stats_.specSaWins++;
            // Speculation pays off only if VA succeeded this very cycle
            // and the granted output VC has a buffer; otherwise the
            // crossbar slot is wasted (Section 3.1).
            if (!ivc.vaGrantedNow || !hasCredit(ivc.route, ivc.outVc))
                continue;
            stats_.specSaUseful++;
        }
        if (departFlit(g.inPort, g.inVc, ivc.route, ivc.outVc, now))
            stats_.headGrants++;
    }
}

bool
Router::departFlit(int in_port, int in_vc, int out_port, int out_vc,
                   sim::Cycle now)
{
    auto &ivc = invc(in_port, in_vc);
    pdr_assert(!ivc.fifo.empty());
    sim::FlitRef ref = ivc.fifo.pop();
    bufferedNow_--;
    sim::Flit &f = pool_.get(ref);

    // Freed buffer slot: return a credit upstream (none for injection
    // ports fed by a source? sources also track credits, so send).
    if (inputs_[in_port].creditOut)
        inputs_[in_port].creditOut->push(sim::Credit{in_vc}, now);

    auto &op = outputs_[out_port];
    if (!isSink(out_port)) {
        pdr_assert(outCredits_[vidx(out_port, out_vc)] > 0);
        outCredits_[vidx(out_port, out_vc)]--;
    }

    // Crossbar traversal (ST) is the extra cycle before the wire; the
    // unit-latency model folds it into the single cycle.
    sim::Cycle st_extra = cfg_.singleCycle ? 0 : 1;
    f.vc = out_vc;
    f.vclass = std::uint8_t(routing_.nextClass(f, id_, out_port));
    pdr_assert(op.out);
    op.out->push(ref, now, st_extra);
    stats_.flitsOut++;

    const sim::FlitType type = f.type;
    if (sim::isTail(type))
        releaseAndTakeOver(in_port, in_vc, out_port, out_vc, now);
    // One re-sync after pop (and possible tail takeover) covers every
    // state this VC can land in.
    syncBid(vidx(in_port, in_vc));
    return sim::isHead(type);
}

void
Router::releaseAndTakeOver(int in_port, int in_vc, int out_port,
                           int out_vc, sim::Cycle now)
{
    auto &ivc = invc(in_port, in_vc);
    auto &op = outputs_[out_port];

    if (cfg_.model == RouterModel::Wormhole) {
        pdr_assert(op.heldBy == in_port);
        op.heldBy = sim::Invalid;
    } else {
        pdr_assert(isSink(out_port) ||
                   !((outFree_[out_port] >> out_vc) & 1u));
        outFree_[out_port] |= std::uint64_t(1) << out_vc;
    }
    ivc.outVc = sim::Invalid;

    if (ivc.fifo.empty()) {
        ivc.state = VcState::Idle;
        ivc.route = sim::Invalid;
        return;
    }

    // The next packet's head takes over the VC and is routed now (its
    // RC stage runs in the next cycle).
    const auto &head = pool_.get(ivc.fifo.front());
    pdr_assert(sim::isHead(head.type));
    ivc.state = VcState::RouteWait;
    routeHead(ivc, head);
    ivc.actReady =
        std::max(ivc.fifo.frontEligible(), now + firstActionDelay());
}

sim::Cycle
Router::nextWake(sim::Cycle now)
{
    // Scan every occupied input VC for the earliest cycle at which it
    // can act.  A VC contributes now + 1 only when a tick would do
    // observable work then; a future pipeline deadline contributes
    // that deadline; a VC blocked on state that only this router's own
    // ticks can change (a held wormhole port, an all-busy VA candidate
    // set, a zero credit count) contributes nothing -- the unblocking
    // event either happens during one of our ticks (after which this
    // function is re-evaluated) or arrives on a watched channel (which
    // lowers our wake entry on push).
    sim::Cycle t = sim::CycleNever;
    const bool wh = cfg_.model == RouterModel::Wormhole;
    const int v = cfg_.numVcs;
    // The union of the bid bitsets is exactly the occupied, actionable
    // VCs the dense scan used to filter down to (RouteWait implies a
    // buffered head; Active VCs with drained FIFOs are excluded).
    // check(vi) returns true when the VC can do observable work on the
    // very next tick (the caller then returns now + 1).
    auto check = [&](std::size_t vi) -> bool {
        InputVc &ivc = invcs_[vi];
        pdr_assert(!ivc.fifo.empty());
        const sim::Cycle eligible = ivc.fifo.frontEligible();
        if (wh) {
            if (ivc.state == VcState::RouteWait) {
                sim::Cycle r = std::max(eligible, ivc.actReady);
                if (r > now) {
                    t = std::min(t, r);
                } else if (outputs_[ivc.route].heldBy !=
                           sim::Invalid) {
                    // Held port: only our own ticks release it.
                } else if (hasCredit(ivc.route, 0)) {
                    return true;        // Can bid for the port.
                } else {
                    // Credit-stall sleep; the watched credit
                    // channel ends it.
                    openStall(ivc, now + 1);
                }
            } else if (ivc.state == VcState::Active) {
                if (eligible > now)
                    t = std::min(t, eligible);
                else if (hasCredit(ivc.route, 0))
                    return true;        // Flit can depart.
                else
                    openStall(ivc, now + 1);
            }
        } else {
            if (ivc.state == VcState::RouteWait) {
                if (ivc.actReady > now) {
                    t = std::min(t, ivc.actReady);
                    return false;
                }
                if (specBids_)
                    return true;        // Bids the switch per cycle.
                // Pure VA pipeline: the allocator's persistent
                // state only changes on grants, and a grant needs
                // a free candidate output VC.  All-busy candidates
                // free only during our own ticks (tail
                // departures), so such a VC does not pin us awake.
                if (std::uint64_t(ivc.vcMask) & outFree_[ivc.route])
                    return true;        // VA can grant someone.
            } else if (ivc.state == VcState::Active) {
                sim::Cycle r = std::max(eligible, ivc.saReady);
                if (r > now)
                    t = std::min(t, r);
                else if (hasCredit(ivc.route, ivc.outVc))
                    return true;        // Switch request next cycle.
                else
                    // Interval-accounted credit stall; the watched
                    // credit channel ends the sleep.
                    openStall(ivc, now + 1);
            }
        }
        return false;
    };
    if (cfg_.scalarAlloc) {
        // Pre-rework cost shape: test every input VC's state.
        const std::size_t nivc = std::size_t(cfg_.numPorts) * v;
        for (std::size_t vi = 0; vi < nivc; vi++) {
            const auto &ivc = invcs_[vi];
            if (ivc.state == VcState::RouteWait ||
                (ivc.state == VcState::Active && !ivc.fifo.empty()))
                if (check(vi))
                    return now + 1;
        }
    } else {
        for (int w = 0; w < vcWords_; w++) {
            std::uint64_t m = bidRouteWait_[w] | bidActive_[w];
            while (m) {
                int b = arb::ctz64(m);
                m &= m - 1;
                if (check(std::size_t(w) * 64 + b))
                    return now + 1;
            }
        }
    }

    // External events: maturing credits and in-flight arrivals.
    if (!pendingCredits_.empty())
        t = std::min(t, pendingCredits_.front().applyAt);
    for (const auto &ip : inputs_)
        if (ip.in)
            t = std::min(t, ip.in->nextReady());
    for (const auto &op : outputs_)
        if (op.creditIn)
            t = std::min(t, op.creditIn->nextReady());
    return std::max(t, now + 1);
}

RouterStats
Router::statsAt(sim::Cycle now) const
{
    RouterStats s = stats_;
    for (const auto &ivc : invcs_) {
        if (ivc.stallSince != sim::CycleNever) {
            pdr_assert(now >= ivc.stallSince);
            s.creditStallCycles += now - ivc.stallSince;
        }
    }
    pdr_assert(now >= occObsAt_);
    s.bufOccupancy += std::uint64_t(bufferedNow_) * (now - occObsAt_);
    return s;
}

void
Router::traceOpenStalls(sim::Cycle now)
{
    if (!stallTrace_)
        return;
    for (const auto &ivc : invcs_) {
        const sim::Cycle open =
            stallOpen_[std::size_t(&ivc - invcs_.data())];
        if (ivc.stallSince != sim::CycleNever && now > open) {
            stallTrace_->push_back(
                {std::uint32_t(&ivc - invcs_.data()), open, now});
        }
    }
}

} // namespace pdr::router
