/**
 * @file
 * Separable switch allocators (Figure 7 of the paper), bitmask engine.
 *
 * WormholeSwitchArbiter: one p:1 matrix arbiter per output port; the
 * router holds the granted port for the whole packet (Figure 7(a) - the
 * port-status state itself lives in the router model).
 *
 * SeparableSwitchAllocator: the VC-router allocator of Figure 7(b): a
 * v:1 matrix arbiter per input port picks which VC may bid, then a p:1
 * matrix arbiter per output port picks the winning input.  Allocation is
 * per-flit (cycle-by-cycle), so no port status is stored.
 *
 * SpeculativeSwitchAllocator: Figure 7(c): two separable allocators run
 * in parallel, one over non-speculative requests and one over
 * speculative ones; a non-speculative grant for an output port (or from
 * an input port) kills any speculative grant touching the same port, so
 * speculation can never hurt non-speculative traffic.
 *
 * Requests are staged as packed uint64_t bid words (one word over VCs
 * per input port, one word over input ports per output port; the
 * parameter schema caps p and v at 64) and both stages iterate only the
 * set bits, so the cost scales with live requests rather than p * v.
 * Each allocator keeps its per-port matrix arbiters in one contiguous
 * MatrixArbiterSlab and drives them through the single-word
 * arbitrateWord/updateWord forms.  The speculative allocator stages the
 * one request vector it is given in a single scan, each request into
 * the separable allocator of its kind, skips a pass with no requests,
 * and appends both passes' grants to one result vector; its kill test
 * is two mask intersections.  The previous dense implementations are
 * retained verbatim in scalar_oracle.hh as the equivalence oracle:
 * grants and priority evolution are bit-identical
 * (tests/arb/test_alloc_equiv.cc).
 */

#ifndef PDR_ARB_SWITCH_ALLOCATOR_HH
#define PDR_ARB_SWITCH_ALLOCATOR_HH

#include <memory>
#include <vector>

#include "arb/matrix_arbiter.hh"

namespace pdr::arb {

/** A switch request: input VC (inPort, inVc) wants outPort. */
struct SaRequest
{
    int inPort;
    int inVc;       //!< 0 for wormhole routers.
    int outPort;
    bool spec = false;  //!< Speculative (head still awaiting VA).
};

/** A granted switch passage. */
struct SaGrant
{
    int inPort;
    int inVc;
    int outPort;
    bool spec = false;
};

/**
 * Interface of the wormhole per-output-port arbiter, so the router can
 * swap the bitmask engine for the scalar oracle at runtime
 * (router.scalar_alloc; same grants either way).
 */
class WormholeArbiterBase
{
  public:
    virtual ~WormholeArbiterBase() = default;

    /**
     * Arbitrate head-flit requests for output ports.  Each input port
     * may request at most one output (deterministic routing).  Requests
     * for ports already held by a packet must be filtered by the caller
     * (the port status lives with the router, Figure 7(a)).
     *
     * The returned reference points into allocator-owned scratch and is
     * valid until the next allocate() call (one call per router per
     * cycle; returning by value showed up as malloc churn in profiles).
     */
    virtual const std::vector<SaGrant> &
    allocate(const std::vector<SaRequest> &requests) = 0;

    /** Append all arbiter priority state (equivalence tests). */
    virtual void dumpState(std::vector<std::uint8_t> &out) const = 0;
};

/** Interface of the per-flit switch allocators (separable and
 *  speculative), runtime-swappable against the scalar oracle. */
class SwitchAllocatorBase
{
  public:
    virtual ~SwitchAllocatorBase() = default;

    /** One allocation round; reference valid until the next call. */
    virtual const std::vector<SaGrant> &
    allocate(const std::vector<SaRequest> &requests) = 0;

    /** Append all arbiter priority state (equivalence tests). */
    virtual void dumpState(std::vector<std::uint8_t> &out) const = 0;
};

/** Per-output-port matrix arbitration for wormhole routers. */
class WormholeSwitchArbiter : public WormholeArbiterBase
{
  public:
    explicit WormholeSwitchArbiter(int p);

    const std::vector<SaGrant> &
    allocate(const std::vector<SaRequest> &requests) override;

    void dumpState(std::vector<std::uint8_t> &out) const override;

  private:
    int p_;
    MatrixArbiterSlab outputArb_;        //!< p:1 per output port.
    std::vector<std::uint64_t> outBids_; //!< Per output: input-port bids.
    std::vector<SaGrant> grants_;        //!< Reused result storage.
};

/** Input-first separable allocator for (non-speculative) VC routers. */
class SeparableSwitchAllocator : public SwitchAllocatorBase
{
  public:
    SeparableSwitchAllocator(int p, int v);

    /**
     * Two-stage separable allocation.  At most one grant per input port
     * and per output port.  Arbiter priorities are updated only for
     * requests that win both stages (the consumed grants).
     */
    const std::vector<SaGrant> &
    allocate(const std::vector<SaRequest> &requests) override;

    void dumpState(std::vector<std::uint8_t> &out) const override;

    int numPorts() const { return p_; }
    int numVcs() const { return v_; }

  private:
    friend class SpeculativeSwitchAllocator;

    /** Stage one request as a VC bid of its input port; returns the
     *  input port's bit for the caller's bidding-inputs mask. */
    std::uint64_t
    stage(const SaRequest &r)
    {
        pdr_assert(r.inPort >= 0 && r.inPort < p_);
        pdr_assert(r.inVc >= 0 && r.inVc < v_);
        pdr_assert(r.outPort >= 0 && r.outPort < p_);
        pdr_assert(!((inVcBids_[r.inPort] >> r.inVc) & 1u));
        inVcBids_[r.inPort] |= std::uint64_t(1) << r.inVc;
        want_[std::size_t(r.inPort) * v_ + r.inVc] = r.outPort;
        return std::uint64_t(1) << r.inPort;
    }

    /**
     * Run both arbitration stages over the staged bids of the inputs in
     * `in_mask`.  Every grant that wins both stages updates the
     * arbiters; it is appended to `out` (with the given spec flag)
     * unless its input port is set in `kill_in` or its output port in
     * `kill_out` (Figure 7(c)'s non-speculative priority).
     */
    void resolve(std::uint64_t in_mask, bool spec, std::uint64_t kill_in,
                 std::uint64_t kill_out, std::vector<SaGrant> &out);

    int p_;
    int v_;
    MatrixArbiterSlab inputArb_;    //!< v:1 per input port.
    MatrixArbiterSlab outputArb_;   //!< p:1 per output port.

    // Reused per-call bid staging (hot path).  inVcBids_ / outBids_
    // words are zeroed again before resolve() returns.
    std::vector<std::uint64_t> inVcBids_;   //!< Per input: VC bids.
    std::vector<std::uint64_t> outBids_;    //!< Per output: input bids.
    std::vector<int> want_;      //!< [in * v + vc] requested output.
    std::vector<int> stage1Vc_;  //!< Stage-1 winner VC per input port.
    std::vector<SaGrant> grants_;
};

/** Parallel non-spec / spec allocation with non-spec priority. */
class SpeculativeSwitchAllocator : public SwitchAllocatorBase
{
  public:
    SpeculativeSwitchAllocator(int p, int v);

    /**
     * Allocate non-speculative requests first, then speculative requests
     * on input/output ports untouched by non-speculative winners.
     * Returned speculative grants carry spec = true; the router must
     * discard them if the parallel VA did not deliver an output VC (the
     * crossbar slot is then simply wasted).
     */
    const std::vector<SaGrant> &
    allocate(const std::vector<SaRequest> &requests) override;

    void dumpState(std::vector<std::uint8_t> &out) const override;

  private:
    SeparableSwitchAllocator nonspec_;
    SeparableSwitchAllocator spec_;
    std::vector<SaGrant> grants_;   //!< Reused result storage.
};

} // namespace pdr::arb

#endif // PDR_ARB_SWITCH_ALLOCATOR_HH
