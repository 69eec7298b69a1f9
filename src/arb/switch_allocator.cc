#include "arb/switch_allocator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pdr::arb {

std::uint64_t
SwitchAllocatorBase::replay(const std::vector<SaRequest> &requests,
                            std::uint64_t n)
{
    std::uint64_t grants = 0;
    for (std::uint64_t i = 0; i < n; i++)
        grants += allocate(requests).size();
    return grants;
}

namespace {

/** Snapshot words kept while looking for a repeat (128 KiB); past it
 *  replayRows makes the remaining rounds one by one. */
constexpr std::size_t kReplayHistoryWords = std::size_t(1) << 14;

/** Per-thread replay history: states[i * words, (i + 1) * words) is
 *  the state after i rounds, grants[i] the grants of round i. */
struct ReplayHistory
{
    std::vector<std::uint64_t> states;
    std::vector<std::uint64_t> grants;
};

/**
 * Shared replay of the bitmask allocators: `a` offers allocate(),
 * saveRows() and loadRows().  Round i's grants and next state depend
 * only on state i (the request vector is fixed), so when state i + 1
 * equals an earlier state j, rounds j..i repeat forever with period
 * i + 1 - j.  The rounds left are then whole periods plus a partial
 * one, and the state they end in is the recorded state j + partial.
 * The states are compared word by word, newest first: a short period
 * is the common case (one blocked bid repeats a fixed point).
 */
template <typename Alloc>
std::uint64_t
replayRows(Alloc &a, const std::vector<SaRequest> &requests,
           std::uint64_t n)
{
    std::uint64_t total = 0;
    if (n <= 2) {
        // No repeat could save a round.
        for (std::uint64_t i = 0; i < n; i++)
            total += a.allocate(requests).size();
        return total;
    }
    thread_local ReplayHistory h;
    h.states.clear();
    h.grants.clear();
    a.saveRows(h.states);
    const std::size_t words = h.states.size();

    for (std::uint64_t i = 0;; i++) {
        const std::uint64_t g = a.allocate(requests).size();
        total += g;
        if (i + 1 == n)
            return total;
        if (h.states.size() + words > kReplayHistoryWords) {
            // No repeat within the history budget: plain rounds.
            for (std::uint64_t k = i + 1; k < n; k++)
                total += a.allocate(requests).size();
            return total;
        }
        h.grants.push_back(g);
        a.saveRows(h.states);
        const std::uint64_t *cur = &h.states[(i + 1) * words];
        for (std::uint64_t j = i + 1; j-- > 0;) {
            if (!std::equal(cur, cur + words, &h.states[j * words]))
                continue;
            const std::uint64_t period = i + 1 - j;
            const std::uint64_t left = n - (i + 1);
            std::uint64_t per_period = 0;
            for (std::uint64_t k = j; k <= i; k++)
                per_period += h.grants[k];
            const std::uint64_t part = left % period;
            total += (left / period) * per_period;
            for (std::uint64_t k = 0; k < part; k++)
                total += h.grants[j + k];
            a.loadRows(&h.states[(j + part) * words]);
            return total;
        }
    }
}

} // namespace

WormholeSwitchArbiter::WormholeSwitchArbiter(int p)
    : p_(p), outputArb_(p, p)
{
    pdr_assert(p >= 1 && p <= kWordBits);
    outBids_.assign(p, 0);
}

const std::vector<SaGrant> &
WormholeSwitchArbiter::allocate(const std::vector<SaRequest> &requests)
{
    grants_.clear();
    // Stage the requests as one input-port bid word per output; only
    // outputs with a set bid bit run their arbiter.
    std::uint64_t out_mask = 0;
    for (const auto &r : requests) {
        pdr_assert(r.inPort >= 0 && r.inPort < p_);
        pdr_assert(r.outPort >= 0 && r.outPort < p_);
        pdr_assert(!r.spec);
        pdr_assert(!((outBids_[r.outPort] >> r.inPort) & 1u));
        outBids_[r.outPort] |= std::uint64_t(1) << r.inPort;
        out_mask |= std::uint64_t(1) << r.outPort;
    }
    while (out_mask) {
        int out = ctz64(out_mask);
        out_mask &= out_mask - 1;
        int winner = outputArb_.arbitrateWord(out, outBids_[out]);
        if (winner != NoGrant) {
            outputArb_.updateWord(out, winner);
            grants_.push_back({winner, 0, out, false});
        }
        outBids_[out] = 0;
    }
    return grants_;
}

void
WormholeSwitchArbiter::dumpState(std::vector<std::uint8_t> &out) const
{
    outputArb_.dumpState(out);
}

SeparableSwitchAllocator::SeparableSwitchAllocator(int p, int v)
    : p_(p), v_(v), inputArb_(p, v), outputArb_(p, p)
{
    pdr_assert(p >= 1 && p <= kWordBits);
    pdr_assert(v >= 1 && v <= kWordBits);
    inVcBids_.assign(p, 0);
    outBids_.assign(p, 0);
    want_.assign(std::size_t(p) * v, NoGrant);
    stage1Vc_.assign(p, NoGrant);
}

const std::vector<SaGrant> &
SeparableSwitchAllocator::allocate(const std::vector<SaRequest> &requests)
{
    grants_.clear();
    // Stage: one VC bid word per input port; want_ records each bidding
    // VC's output (read only for stage-1 winners, so stale entries of
    // non-bidding VCs are never consulted).
    std::uint64_t in_mask = 0;
    for (const auto &r : requests)
        in_mask |= stage(r);
    resolve(in_mask, false, 0, 0, grants_);
    return grants_;
}

void
SeparableSwitchAllocator::resolve(std::uint64_t in_mask, bool spec,
                                  std::uint64_t kill_in,
                                  std::uint64_t kill_out,
                                  std::vector<SaGrant> &out)
{
    // Stage 1: per bidding input port, a v:1 arbiter picks the VC; the
    // winner becomes an input-port bid on its wanted output.
    std::uint64_t out_mask = 0;
    while (in_mask) {
        int in = ctz64(in_mask);
        in_mask &= in_mask - 1;
        int vc = inputArb_.arbitrateWord(in, inVcBids_[in]);
        inVcBids_[in] = 0;
        if (vc != NoGrant) {
            stage1Vc_[in] = vc;
            int o = want_[std::size_t(in) * v_ + vc];
            outBids_[o] |= std::uint64_t(1) << in;
            out_mask |= std::uint64_t(1) << o;
        }
    }

    // Stage 2: per contested output port, a p:1 arbiter among the
    // forwarded stage-1 winners.
    while (out_mask) {
        int o = ctz64(out_mask);
        out_mask &= out_mask - 1;
        int in_win = outputArb_.arbitrateWord(o, outBids_[o]);
        outBids_[o] = 0;
        if (in_win == NoGrant)
            continue;
        // Update priorities only for consumed grants so a VC that won
        // stage 1 but lost stage 2 keeps its turn.
        outputArb_.updateWord(o, in_win);
        inputArb_.updateWord(in_win, stage1Vc_[in_win]);
        if (((kill_in >> in_win) | (kill_out >> o)) & 1u)
            continue;
        out.push_back({in_win, stage1Vc_[in_win], o, spec});
    }
}

std::uint64_t
SeparableSwitchAllocator::replay(const std::vector<SaRequest> &requests,
                                 std::uint64_t n)
{
    return replayRows(*this, requests, n);
}

void
SeparableSwitchAllocator::dumpState(std::vector<std::uint8_t> &out) const
{
    inputArb_.dumpState(out);
    outputArb_.dumpState(out);
}

void
SeparableSwitchAllocator::saveRows(std::vector<std::uint64_t> &out) const
{
    out.insert(out.end(), inputArb_.rows().begin(),
               inputArb_.rows().end());
    out.insert(out.end(), outputArb_.rows().begin(),
               outputArb_.rows().end());
}

void
SeparableSwitchAllocator::loadRows(const std::uint64_t *src)
{
    inputArb_.loadRows(src);
    outputArb_.loadRows(src + inputArb_.rows().size());
}

SpeculativeSwitchAllocator::SpeculativeSwitchAllocator(int p, int v)
    : nonspec_(p, v), spec_(p, v)
{
}

const std::vector<SaGrant> &
SpeculativeSwitchAllocator::allocate(const std::vector<SaRequest> &requests)
{
    grants_.clear();
    // One scan stages each request into the allocator of its kind.
    std::uint64_t ns_in = 0, sp_in = 0;
    for (const auto &r : requests) {
        if (r.spec)
            sp_in |= spec_.stage(r);
        else
            ns_in |= nonspec_.stage(r);
    }
    if (ns_in)
        nonspec_.resolve(ns_in, false, 0, 0, grants_);
    if (sp_in) {
        // Ports consumed by non-speculative winners mask speculative
        // grants (Figure 7(c): non-spec selected over spec).  The
        // speculative allocator still runs (and updates its priorities)
        // exactly as the parallel hardware would; resolve() drops the
        // killed grants with two bit tests against the used-port words.
        std::uint64_t in_used = 0, out_used = 0;
        for (const auto &g : grants_) {
            in_used |= std::uint64_t(1) << g.inPort;
            out_used |= std::uint64_t(1) << g.outPort;
        }
        spec_.resolve(sp_in, true, in_used, out_used, grants_);
    }
    return grants_;
}

std::uint64_t
SpeculativeSwitchAllocator::replay(const std::vector<SaRequest> &requests,
                                   std::uint64_t n)
{
    // With bids of one kind only, the other allocator is idle and
    // nothing is killed: the rounds are exactly that allocator's own
    // (a router's speculation-only stall is all speculative).
    bool spec = false, nonspec = false;
    for (const auto &r : requests)
        (r.spec ? spec : nonspec) = true;
    if (spec && nonspec)
        return replayRows(*this, requests, n);
    return (spec ? spec_ : nonspec_).replay(requests, n);
}

void
SpeculativeSwitchAllocator::dumpState(std::vector<std::uint8_t> &out) const
{
    nonspec_.dumpState(out);
    spec_.dumpState(out);
}

void
SpeculativeSwitchAllocator::saveRows(std::vector<std::uint64_t> &out) const
{
    nonspec_.saveRows(out);
    spec_.saveRows(out);
}

void
SpeculativeSwitchAllocator::loadRows(const std::uint64_t *src)
{
    nonspec_.loadRows(src);
    spec_.loadRows(src + nonspec_.rowWords());
}

} // namespace pdr::arb
