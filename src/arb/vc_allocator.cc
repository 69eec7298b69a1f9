#include "arb/vc_allocator.hh"

#include "common/logging.hh"

namespace pdr::arb {

VcAllocator::VcAllocator(int p, int v)
    : p_(p), v_(v), nivcWords_(wordsFor(p * v)), outputVcArb_(p * v, p * v)
{
    pdr_assert(p >= 1 && p <= kWordBits);
    pdr_assert(v >= 1 && v <= kWordBits);
    int nivc = p * v;
    firstStagePtr_.assign(nivc, 0);
    bids_.assign(std::size_t(nivc) * nivcWords_, 0);
    staged_.assign(nivcWords_, 0);
    freeScratch_.assign(p, 0);
}

const std::vector<VaGrant> &
VcAllocator::allocate(const std::vector<VaRequest> &requests,
                      const std::uint64_t *free_vcs)
{
    grants_.clear();
    contested_.clear();
    // Stage 1: each input VC picks one free candidate output VC on its
    // routed port -- the first set bit of (vcMask & free word) at or
    // after its rotating pointer, wrapping below it -- and stages a bid
    // on that output VC's packed (p*v)-wide row.
    for (const auto &r : requests) {
        pdr_assert(r.inPort >= 0 && r.inPort < p_);
        pdr_assert(r.inVc >= 0 && r.inVc < v_);
        pdr_assert(r.outPort >= 0 && r.outPort < p_);
        int ivc = r.inPort * v_ + r.inVc;
        std::uint64_t cand = std::uint64_t(r.vcMask) & free_vcs[r.outPort];
        if (!cand)
            continue;
        std::uint64_t hi = cand & (~std::uint64_t(0) << firstStagePtr_[ivc]);
        int ovc = ctz64(hi ? hi : cand);
        int ovc_idx = r.outPort * v_ + ovc;
        std::uint64_t *row = &bids_[std::size_t(ovc_idx) * nivcWords_];
        pdr_assert(!testBit(row, ivc));  // At most one request per ivc.
        setBit(row, ivc);
        if (!testBit(staged_.data(), ovc_idx)) {
            setBit(staged_.data(), ovc_idx);
            contested_.push_back(ovc_idx);
        }
    }

    // Stage 2: per contested output VC (in first-pick order, each once),
    // a (p*v):1 matrix arbiter over the staged bid row.
    const bool one_word = nivcWords_ == 1;
    for (int ovc_idx : contested_) {
        std::uint64_t *row = &bids_[std::size_t(ovc_idx) * nivcWords_];
        int winner = one_word ? outputVcArb_.arbitrateWord(ovc_idx, row[0])
                              : outputVcArb_.arbitrate(ovc_idx, row);
        if (winner != NoGrant) {
            if (one_word)
                outputVcArb_.updateWord(ovc_idx, winner);
            else
                outputVcArb_.update(ovc_idx, winner);
            grants_.push_back({winner / v_, winner % v_,
                               ovc_idx / v_, ovc_idx % v_});
            // Advance the winner's stage-1 pointer so it spreads load
            // over the output VCs next time.
            firstStagePtr_[winner] = (ovc_idx % v_ + 1) % v_;
        }
        for (int w = 0; w < nivcWords_; w++)
            row[w] = 0;
        clearBit(staged_.data(), ovc_idx);
    }
    return grants_;
}

const std::vector<VaGrant> &
VcAllocator::allocate(const std::vector<VaRequest> &requests,
                      const std::function<bool(int, int)> &is_free)
{
    // pdr-lint: allow(PDR-PERF-DENSESCAN) convenience entry for tests;
    // the router maintains the free words incrementally instead
    for (int out = 0; out < p_; out++) {
        std::uint64_t w = 0;
        // pdr-lint: allow(PDR-PERF-DENSESCAN) convenience entry for
        // tests; materializes the packed free words once per call
        for (int ov = 0; ov < v_; ov++) {
            if (is_free(out, ov))
                w |= std::uint64_t(1) << ov;
        }
        freeScratch_[out] = w;
    }
    return allocate(requests, freeScratch_.data());
}

void
VcAllocator::dumpState(std::vector<std::uint8_t> &out) const
{
    for (int ptr : firstStagePtr_)
        out.push_back(std::uint8_t(ptr));
    outputVcArb_.dumpState(out);
}

} // namespace pdr::arb
