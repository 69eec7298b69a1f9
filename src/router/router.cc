#include "router/router.hh"

#include <algorithm>
#include <stdexcept>

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

    switch (cfg_.model) {
      case RouterModel::Wormhole:
        whArb_ = std::make_unique<arb::WormholeSwitchArbiter>(p);
        break;
      case RouterModel::VirtualChannel:
        vcAlloc_ = std::make_unique<arb::VcAllocator>(p, v);
        saAlloc_ = std::make_unique<arb::SeparableSwitchAllocator>(p, v);
        break;
      case RouterModel::SpecVirtualChannel:
        vcAlloc_ = std::make_unique<arb::VcAllocator>(p, v);
        if (cfg_.singleCycle || cfg_.specEqualPriority) {
            // Unit-latency model (VA and SA complete in the same
            // cycle, no speculation needed) or the equal-priority
            // ablation: one separable allocator over all requests.
            saAlloc_ =
                std::make_unique<arb::SeparableSwitchAllocator>(p, v);
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
}

void
Router::replaceAllocators(std::unique_ptr<arb::WormholeArbiterBase> wh,
                          std::unique_ptr<arb::VcAllocatorBase> va,
                          std::unique_ptr<arb::SwitchAllocatorBase> sa,
                          std::unique_ptr<arb::SwitchAllocatorBase> spec)
{
    // No flit has arrived, so no allocator has seen a request yet.
    pdr_assert(stats_.flitsIn == 0);
    auto replace = [](auto &slot, auto repl) {
        if (repl) {
            pdr_assert(slot);
            slot = std::move(repl);
        }
    };
    replace(whArb_, std::move(wh));
    replace(vcAlloc_, std::move(va));
    replace(saAlloc_, std::move(sa));
    replace(specAlloc_, std::move(spec));
}

void
Router::connectInput(int port, FlitChannel *in, CreditChannel *credit_out)
{
    pdr_assert(port >= 0 && port < cfg_.numPorts);
    inputs_[port].in = in;
    inputs_[port].creditOut = credit_out;
    if (in)
        in->attach(&cal_, sim::ArrivalCalendar::Flit, port);
}

void
Router::connectOutput(int port, FlitChannel *out, CreditChannel *credit_in,
                      bool is_sink)
{
    pdr_assert(port >= 0 && port < cfg_.numPorts);
    outputs_[port].out = out;
    outputs_[port].creditIn = credit_in;
    if (credit_in)
        credit_in->attach(&cal_, sim::ArrivalCalendar::Credit, port);
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

std::string
Router::auditSpecSpan(sim::Cycle now) const
{
    if (span_.from == sim::CycleNever)
        return std::string();
    const int v = cfg_.numVcs;
    // The frozen bids are every ready RouteWait head, in vidx order,
    // and none of them can win VA.
    std::size_t k = 0;
    for (int vi = 0; vi < cfg_.numPorts * v; vi++) {
        if (!arb::testBit(bidRouteWait_.data(), vi))
            continue;
        const InputVc &ivc = invcs_[std::size_t(vi)];
        if (ivc.actReady > now)
            continue;
        if (std::uint64_t(ivc.vcMask) & outFree_[ivc.route]) {
            return csprintf(
                "span open since cycle %llu, but the head of (port %d, "
                "vc %d) can win a free output VC on port %d",
                (unsigned long long)span_.from, vi / v, vi % v,
                ivc.route);
        }
        if (k >= span_.reqs.size() || span_.reqs[k].inPort != vi / v ||
            span_.reqs[k].inVc != vi % v ||
            span_.reqs[k].outPort != ivc.route || !span_.reqs[k].spec) {
            return csprintf(
                "frozen bid %zu of %zu is not the ready head of (port "
                "%d, vc %d) bidding for port %d", k, span_.reqs.size(),
                vi / v, vi % v, ivc.route);
        }
        k++;
    }
    if (k != span_.reqs.size()) {
        return csprintf("%zu frozen bids, but only %zu ready heads",
                        span_.reqs.size(), k);
    }
    // No Active VC may be able to request the switch.
    for (int vi = 0; vi < cfg_.numPorts * v; vi++) {
        if (!arb::testBit(bidActive_.data(), vi))
            continue;
        const InputVc &ivc = invcs_[std::size_t(vi)];
        if (now >= ivc.fifo.frontEligible() && now >= ivc.saReady &&
            hasCredit(ivc.route, ivc.outVc)) {
            return csprintf(
                "span open since cycle %llu, but Active (port %d, vc "
                "%d) can request port %d", (unsigned long long)span_.from,
                vi / v, vi % v, ivc.route);
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
    // The skipped rounds of a speculation-only span happen before
    // anything this tick does.
    if (span_.from != sim::CycleNever)
        closeSpan(now);
    // With the far channels re-marked, the calendar slot for `now`
    // names every channel with an arrival this cycle (every item is
    // consumed on its exact ready cycle).
    if (cal_.hasFar())
        remarkFar(now);
    const sim::ArrivalCalendar::Due due = cal_.take(now);
    if (due.credit)
        receiveCredits(now, due.credit);
    if (due.flit)
        receiveFlits(now, due.flit);
    if (cfg_.model == RouterModel::Wormhole) {
        saPhaseWormhole(now);
    } else {
        vaPhase(now);
        saPhaseVc(now);
    }
}

void
Router::closeSpan(sim::Cycle now)
{
    settleSpan(now);
    stats_.specSaAttempts += span_.attempts;
    stats_.specSaWins += span_.wins;
    span_.attempts = 0;
    span_.wins = 0;
    span_.from = sim::CycleNever;
}

void
Router::settleSpan(sim::Cycle now) const
{
    if (span_.from == sim::CycleNever || now <= span_.from)
        return;
    // Each skipped cycle would have bid every frozen request (vaPhase)
    // and run one switch allocation over them alone (saPhaseVc); every
    // grant is speculative and discarded for want of an output VC.
    const std::uint64_t n = now - span_.from;
    arb::SwitchAllocatorBase &sa = specAlloc_ ? *specAlloc_ : *saAlloc_;
    span_.attempts += n * span_.reqs.size();
    span_.wins += sa.replay(span_.reqs, n);
    span_.from = now;
}

void
Router::remarkFar(sim::Cycle now)
{
    const sim::ArrivalCalendar::Due far = cal_.takeFar();
    for (std::uint64_t m = far.credit; m; m &= m - 1)
        outputs_[arb::ctz64(m)].creditIn->remark(now);
    for (std::uint64_t m = far.flit; m; m &= m - 1)
        inputs_[arb::ctz64(m)].in->remark(now);
}

sim::Cycle
Router::farReady() const
{
    const sim::ArrivalCalendar::Due far = cal_.far();
    sim::Cycle t = sim::CycleNever;
    for (std::uint64_t m = far.credit; m; m &= m - 1)
        t = std::min(t, outputs_[arb::ctz64(m)].creditIn->nextReady());
    for (std::uint64_t m = far.flit; m; m &= m - 1)
        t = std::min(t, inputs_[arb::ctz64(m)].in->nextReady());
    return t;
}

void
Router::receiveCredits(sim::Cycle now, std::uint64_t ports)
{
    // A credit is usable by this very cycle's allocation (any
    // processing delay is part of the channel's latency), in ascending
    // port order.
    while (ports) {
        const int port = arb::ctz64(ports);
        ports &= ports - 1;
        auto *chan = outputs_[port].creditIn;
        while (auto c = chan->pop(now)) {
            pdr_assert(c->vc >= 0 && c->vc < cfg_.numVcs);
            int &credits = outCredits_[vidx(port, c->vc)];
            credits++;
            pdr_assert(credits <= cfg_.bufDepth);
        }
        chan->remark(now);
    }
}

void
Router::receiveFlits(sim::Cycle now, std::uint64_t ports)
{
    while (ports) {
        const int port = arb::ctz64(ports);
        ports &= ports - 1;
        auto *chan = inputs_[port].in;
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
        chan->remark(now);
    }
}

void
Router::vaPhase(sim::Cycle now)
{
    const int v = cfg_.numVcs;
    // vaGrantedNow only matters within the tick that granted it;
    // clear exactly last tick's grantees instead of sweeping.
    for (std::size_t vi : vaGranted_)
        invcs_[vi].vaGrantedNow = false;
    vaGranted_.clear();

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
    arb::forEachSetBit(bidRouteWait_.data(), vcWords_, consider);

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
    std::uint64_t occupied = bidRouteWait_[0] | bidActive_[0];
    while (occupied) {
        int port = arb::ctz64(occupied);
        occupied &= occupied - 1;
        considerPort(port);
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
    arb::forEachSetBit(bidActive_.data(), vcWords_, consider);

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
    // The next arrival, marked in the calendar or held as over a turn
    // away, read when first needed (0 until then: an arrival is after
    // `now`).
    sim::Cycle arrival = 0;
    auto nextArrival = [&]() {
        if (arrival == 0) {
            arrival = cal_.next(now + 1);
            if (cal_.hasFar())
                arrival = std::min(arrival, farReady());
        }
        return arrival;
    };
    const bool wh = cfg_.model == RouterModel::Wormhole;
    const int v = cfg_.numVcs;
    // Ready heads whose only possible action is a failed speculative
    // switch bid, in vidx order (the bids vaPhase would issue).
    span_.reqs.clear();
    // The union of the bid bitsets is exactly the occupied, actionable
    // VCs (RouteWait implies a buffered head; Active VCs with drained
    // FIFOs are excluded).
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
                // The VA allocator's persistent state only changes on
                // grants, and a grant needs a free candidate output
                // VC.  All-busy candidates free only during our own
                // ticks (tail departures), so such a VC does not pin
                // us awake.
                if (std::uint64_t(ivc.vcMask) & outFree_[ivc.route])
                    return true;        // VA can grant someone.
                if (specBids_) {
                    // Footnote 5: adaptive routing re-routes on every
                    // attempt, so its bids may change cycle to cycle.
                    // With an event due next cycle no span can open,
                    // and the bid pins the router awake.
                    if (adaptive_ || t <= now + 1 ||
                        nextArrival() <= now + 1)
                        return true;
                    // Otherwise the bid can only fail: freeze it.
                    span_.reqs.push_back(
                        {int(vi) / v, int(vi) % v, ivc.route, true});
                }
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
    for (int w = 0; w < vcWords_; w++) {
        std::uint64_t m = bidRouteWait_[w] | bidActive_[w];
        while (m) {
            int b = arb::ctz64(m);
            m &= m - 1;
            if (check(std::size_t(w) * 64 + b))
                return now + 1;
        }
    }

    t = std::min(t, nextArrival());
    // Every cycle until the next event would only repeat the frozen
    // bids: open a speculation-only span, settled at the next tick.
    if (!span_.reqs.empty() && t > now + 1)
        span_.from = now + 1;
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
    settleSpan(now);
    s.specSaAttempts += span_.attempts;
    s.specSaWins += span_.wins;
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
