/**
 * @file
 * Cycle-accurate models of the paper's three router microarchitectures.
 *
 * One Router class implements all three flow-control methods (plus the
 * single-cycle idealization); the differences are confined to which
 * allocation phases run and when flits become eligible:
 *
 *   Wormhole:  head flits arbitrate for the whole output port, which is
 *              then held until the tail departs; body flits flow without
 *              arbitration (Figure 2's canonical architecture).
 *   VC:        heads allocate an output VC (VA) and then compete, flit by
 *              flit, in a separable switch allocator (Figure 3).
 *   SpecVC:    heads bid for the switch *speculatively* in the same cycle
 *              as VA; non-speculative requests are prioritized, so failed
 *              speculation only wastes the crossbar slot (Section 3.1).
 *
 * Timing (pipelined routers, all at 20 tau4 clock, Figure 11):
 *   A flit arriving at cycle t is decoded/buffered during t+1 and may
 *   take its first allocation action at t+2.  Granted flits traverse the
 *   crossbar the following cycle and spend linkLatency cycles on the
 *   wire, so per-hop latency is 3 (WH, specVC) or 4 (VC) cycles plus the
 *   link.  The single-cycle model acts at t+1 with no crossbar stage.
 *
 * Credits: a departing flit frees its input-buffer slot and sends a
 * credit upstream; an arriving credit becomes usable by allocation after
 * creditProcCycles (default: the pipeline depth), reproducing the
 * paper's 4/5/4/2-cycle buffer-turnaround analysis (Section 5.2).
 */

#ifndef PDR_ROUTER_ROUTER_HH
#define PDR_ROUTER_ROUTER_HH

#include <memory>
#include <string>
#include <vector>

#include "arb/bitrow.hh"
#include "arb/switch_allocator.hh"
#include "arb/vc_allocator.hh"
#include "router/config.hh"
#include "router/routing.hh"
#include "sim/channel.hh"
#include "sim/flit.hh"
#include "sim/flit_pool.hh"
#include "sim/ring.hh"

namespace pdr::router {

/** Counters exposed for tests, benches and examples. */
struct RouterStats
{
    std::uint64_t flitsIn = 0;
    std::uint64_t flitsOut = 0;
    std::uint64_t headGrants = 0;       //!< Heads granted switch passage.
    std::uint64_t vaGrants = 0;         //!< Output VCs allocated.
    std::uint64_t specSaAttempts = 0;   //!< Speculative switch requests.
    std::uint64_t specSaWins = 0;       //!< Spec grants surviving priority.
    std::uint64_t specSaUseful = 0;     //!< Spec grants actually used.
    /**
     * Cycles a VC spent ready-but-creditless, accounted as intervals:
     * each tick that observes a stalled VC accumulates the span since
     * the previous observation, so a blocked router can sleep through
     * a stall and still report exactly what per-cycle counting would.
     * stats() reflects cycles up to the last tick; statsAt(now) also
     * flushes the still-open intervals (use it for cross-schedule
     * comparisons at a common read cycle).
     */
    std::uint64_t creditStallCycles = 0;
    /**
     * Input-buffer occupancy integral in flit-cycles: the sum over
     * completed cycles of the flits buffered in this router's input
     * FIFOs at the end of each cycle.  Interval-accounted like
     * creditStallCycles (occupancy cannot change between a router's
     * ticks), so sleeping schedules report exactly what per-cycle
     * counting would; statsAt(now) flushes through `now`.  Divide by
     * the cycles observed for mean buffered flits.
     */
    std::uint64_t bufOccupancy = 0;
};

/** A cycle-accurate pipelined router. */
class Router
{
  public:
    /** Flit channels carry pool handles; the pool holds the payloads. */
    using FlitChannel = sim::Channel<sim::FlitRef>;
    using CreditChannel = sim::Channel<sim::Credit>;

    Router(sim::NodeId id, const RouterConfig &cfg,
           const RoutingFunction &routing, sim::FlitPool &pool);

    /**
     * Wire input port `port`: flits arrive on `in`; credits for freed
     * buffers are returned upstream on `credit_out` (nullptr for an
     * unused edge port).
     */
    void connectInput(int port, FlitChannel *in,
                      CreditChannel *credit_out);

    /**
     * Wire output port `port`: departing flits go to `out`; credits
     * from the downstream input buffer come back on `credit_in`.
     * `is_sink` marks an ejection port (infinite downstream buffering,
     * per the paper's immediate-ejection assumption).
     */
    void connectOutput(int port, FlitChannel *out,
                       CreditChannel *credit_in, bool is_sink);

    /** Advance one clock cycle. */
    void tick(sim::Cycle now);

    /**
     * Earliest cycle at which ticking this router can do observable
     * work, evaluated after a tick at `now`.  Skipping every cycle
     * before the returned one is a provable no-op: the router wakes
     * the very next cycle only when some buffered flit can actually
     * act (allocate, depart, or -- under the speculative model --
     * issue a switch bid that evolves arbiter state); a VC that is
     * ready but creditless does NOT pin the router awake, because the
     * stall statistic is interval-accounted and the credit that ends
     * the stall arrives through a watched channel, which re-lowers the
     * wake entry.  Internal future deadlines (pipeline eligibility,
     * VA-to-SA latency, maturing credits) and in-flight channel
     * arrivals bound the result; CycleNever when fully idle.
     *
     * Non-const: deciding to sleep on a ready-but-creditless VC opens
     * its stall interval (openStall), so that a stall *entered* during
     * this tick -- a departure consuming the last credit, a wormhole
     * port release exposing a creditless waiter -- is accounted from
     * the next cycle exactly as a tick-every-cycle schedule would
     * observe it.  Only called on the skipping schedule, right after a
     * tick.
     */
    sim::Cycle nextWake(sim::Cycle now);

    sim::NodeId id() const { return id_; }
    const RouterConfig &config() const { return cfg_; }
    const RouterStats &stats() const { return stats_; }

    /**
     * One closed credit-stall interval on input VC `vidx` (flat
     * port * numVcs + vc index): cycles [from, to) were spent
     * ready-but-creditless.  Matches creditStallCycles accounting
     * span for span (telemetry trace emission).
     */
    struct StallSpan
    {
        std::uint32_t vidx;
        sim::Cycle from;
        sim::Cycle to;
    };

    /**
     * Record every closed credit-stall interval into `out` (telemetry
     * trace hook; nullptr disables, the default).  Observational:
     * statistics and simulated behavior are unchanged either way.
     * The buffer is owned by the caller and must be distinct per
     * router -- under partitioned stepping each router appends from
     * its owning worker.  Zero-length intervals are not recorded.
     */
    void
    traceStalls(std::vector<StallSpan> *out)
    {
        stallTrace_ = out;
        stallOpen_.assign(out ? invcs_.size() : 0, sim::CycleNever);
    }

    /** Flush intervals still open at end-of-run as spans ending at
     *  `now` (no-op unless traceStalls is attached; statistics are
     *  not touched -- statsAt does that independently). */
    void traceOpenStalls(sim::Cycle now);

    /**
     * Statistics as they would read at cycle `now` under a
     * tick-every-cycle schedule: stats() plus the still-open
     * credit-stall intervals flushed through `now` (exclusive).
     * `now` must be >= every tick this router has seen.
     */
    RouterStats statsAt(sim::Cycle now) const;

    /** Credits currently available for (outPort, outVc) (tests). */
    int credits(int out_port, int out_vc) const;
    /** Total flits buffered in the input FIFOs of `port` (tests). */
    int buffered(int port) const;
    /** All input FIFOs empty and no resources held (tests). */
    bool quiescent() const;

    // ----- invariant-auditor accessors (sim::Auditor; read-only) -----

    /** Flits buffered in the input FIFO of exactly (port, vc). */
    int auditBuffered(int port, int vc) const
    {
        return invc(port, vc).fifo.size();
    }
    /** Received credits for (outPort, outVc) still maturing in the
     *  credit-processing pipeline (not yet applied to credits()). */
    int auditPendingCredits(int out_port, int out_vc) const;
    /** Append every flit handle buffered in any input FIFO. */
    void auditCollectFlits(std::vector<sim::FlitRef> &out) const;
    /**
     * AUD-BID: recompute the incremental allocation bitsets (RouteWait
     * bids, Active bids, free output-VC words) densely from the per-VC
     * state and compare.  Returns an empty string when consistent,
     * otherwise a diagnostic naming the first mismatching entry.
     */
    std::string auditBidState() const;

  private:
    /** Input-VC pipeline states (invc_state / inpc_state of Figs 2, 3). */
    enum class VcState : std::uint8_t
    {
        Idle,       //!< No packet.
        RouteWait,  //!< Head buffered; routed; awaiting VA (VC) / SA (WH).
        Active,     //!< Resources held; flits flow through SA/ST.
    };

    /** Per input virtual channel (per input port for WH), packed into
     *  64 bytes, a cache line's size. */
    struct InputVc
    {
        sim::FlitFifo fifo;         //!< bufDepth-capacity handle ring.
        VcState state = VcState::Idle;
        bool vaGrantedNow = false;  //!< VA granted in the current tick.
        int route = sim::Invalid;   //!< Routed output port.
        int outVc = sim::Invalid;   //!< Allocated output VC.
        /** Output VCs the head may take on `route` (the routing
         *  function's vcMask), cached whenever the route is chosen. */
        std::uint32_t vcMask = 0;
        sim::Cycle actReady = 0;    //!< Earliest first allocation action.
        sim::Cycle saReady = 0;     //!< Earliest switch request (VC).
        /** Start of the open credit-stall interval (CycleNever when
         *  not stalled); cycles up to the last observation are already
         *  folded into stats_.creditStallCycles. */
        sim::Cycle stallSince = sim::CycleNever;
    };
    static_assert(sizeof(InputVc) == 64, "InputVc fits a cache line's size");

    // Hot per-VC state lives in flat structure-of-arrays slabs indexed
    // [port * numVcs + vc] (vidx) rather than nested per-port vectors:
    // the per-cycle loops (allocation scans, nextWake, credit checks)
    // stream one contiguous array each instead of chasing a pointer
    // per port.  Ports keep only their channel wiring.

    struct InputPort
    {
        FlitChannel *in = nullptr;
        CreditChannel *creditOut = nullptr;
    };

    struct OutputPort
    {
        FlitChannel *out = nullptr;
        CreditChannel *creditIn = nullptr;
        int heldBy = sim::Invalid;  //!< Wormhole per-packet port hold.
    };

    /** Credit received, waiting out the processing pipeline. */
    struct PendingCredit
    {
        sim::Cycle applyAt;
        int port;
        int vc;
    };

    // Tick phases, in order.
    void receiveCredits(sim::Cycle now);
    void receiveFlits(sim::Cycle now);
    void vaPhase(sim::Cycle now);
    void saPhaseWormhole(sim::Cycle now);
    void saPhaseVc(sim::Cycle now);

    /** Dequeue the front flit of (port, vc) and send it out; returns
     *  whether it was a head flit. */
    bool departFlit(int in_port, int in_vc, int out_port, int out_vc,
                    sim::Cycle now);
    /** Tail departed: free VC/port and hand the FIFO to the next head. */
    void releaseAndTakeOver(int in_port, int in_vc, int out_port,
                            int out_vc, sim::Cycle now);

    bool hasCredit(int out_port, int out_vc) const;
    /** Earliest allocation action for a flit arriving now. */
    sim::Cycle firstActionDelay() const { return cfg_.singleCycle ? 1 : 2; }

    /** Flat [port * numVcs + vc] index into the per-VC slabs. */
    std::size_t
    vidx(int port, int vc) const
    {
        return std::size_t(port) * std::size_t(cfg_.numVcs) +
               std::size_t(vc);
    }
    InputVc &invc(int port, int vc) { return invcs_[vidx(port, vc)]; }
    const InputVc &
    invc(int port, int vc) const
    {
        return invcs_[vidx(port, vc)];
    }

    /**
     * Observed (port, vc) ready but creditless at `now`: fold the
     * cycles since the previous observation into the counter and leave
     * the interval open at `now`.  Exactly reproduces per-cycle
     * counting because the stall condition cannot change between the
     * router's ticks.
     */
    void
    extendStall(InputVc &ivc, sim::Cycle now)
    {
        if (ivc.stallSince != sim::CycleNever)
            stats_.creditStallCycles += now - ivc.stallSince;
        else if (stallTrace_)
            stallOpen(ivc) = now;   // A new stall begins here.
        ivc.stallSince = now;
    }
    /** Observed (port, vc) not stalled at `now`: close the interval
     *  (cycles [stallSince, now) were stalled, `now` is not). */
    void
    closeStall(InputVc &ivc, sim::Cycle now)
    {
        if (ivc.stallSince != sim::CycleNever) {
            stats_.creditStallCycles += now - ivc.stallSince;
            ivc.stallSince = sim::CycleNever;
            if (stallTrace_ && now > stallOpen(ivc)) {
                stallTrace_->push_back(
                    {std::uint32_t(&ivc - invcs_.data()),
                     stallOpen(ivc), now});
            }
        }
    }
    /**
     * (port, vc) will be stalled from cycle `at` on (nextWake decided
     * to sleep on a ready-but-creditless VC): open the interval unless
     * one is already open.  The condition cannot silently end -- the
     * credit that would end it arrives during a tick (watched channel
     * or maturing pipeline), which closes the interval at that tick
     * with the cycles [at, tick) folded in.
     */
    void
    openStall(InputVc &ivc, sim::Cycle at)
    {
        if (ivc.stallSince == sim::CycleNever) {
            ivc.stallSince = at;
            if (stallTrace_)
                stallOpen(ivc) = at;
        }
    }

    /**
     * Route selection for a head flit.  Deterministic routing returns
     * the single route; adaptive routing picks the candidate with the
     * most downstream buffer space (re-evaluated on every allocation
     * attempt, per the paper's footnote-5 re-iteration policy).
     */
    int selectRoute(const sim::Flit &head);
    /** Route the head at the front of `ivc` (selectRoute) and cache
     *  its output-VC mask for the chosen port. */
    void
    routeHead(InputVc &ivc, const sim::Flit &head)
    {
        ivc.route = selectRoute(head);
        ivc.vcMask =
            routing_.vcMask(head, id_, ivc.route, cfg_.numVcs);
    }
    /** Free downstream buffer space through `out_port` (adaptivity
     *  metric). */
    int portScore(int out_port) const;

    sim::NodeId id_;
    RouterConfig cfg_;
    const RoutingFunction &routing_;
    sim::FlitPool &pool_;

    std::vector<InputPort> inputs_;
    std::vector<OutputPort> outputs_;
    /** Ejection ports (bit p set = output p is a sink, with infinite
     *  downstream buffering); one word, so credit checks need no
     *  OutputPort load. */
    std::uint64_t sinkPorts_ = 0;
    bool isSink(int out_port) const { return (sinkPorts_ >> out_port) & 1u; }

    // SoA per-VC slabs, all indexed by vidx(port, vc).
    std::vector<InputVc> invcs_;        //!< Input VC pipeline state.
    std::vector<int> outCredits_;       //!< Downstream buffer credits.

    /**
     * Free output VCs as one packed word per output port (bit vc set =
     * unallocated; bits >= numVcs always clear).  Replaces the dense
     * per-VC busy byte array: VA hands the words straight to the
     * allocator, and nextWake's VA-candidate test is one AND.
     */
    std::vector<std::uint64_t> outFree_;

    /**
     * Incremental allocation-bid bitsets over vidx, the in-router
     * analog of the network wake table: bidRouteWait_ holds every VC
     * in RouteWait (head routed, awaiting VA -- or SA for wormhole),
     * bidActive_ every Active VC with a buffered flit.  syncBid()
     * re-derives both bits from (state, fifo) at every mutation point
     * (flit arrival, VA grant, departure, tail takeover), so the
     * allocation phases and nextWake iterate only set bits instead of
     * walking all p * v VCs.  Audited against a dense recompute by
     * AUD-BID (auditBidState).
     */
    std::vector<std::uint64_t> bidRouteWait_;
    std::vector<std::uint64_t> bidActive_;
    int vcWords_ = 1;   //!< Words per bid bitset (wordsFor(p * v)).

    /** VCs whose vaGrantedNow flag is set; the flag only matters
     *  within the granting tick, so the next vaPhase clears exactly
     *  these instead of sweeping every VC. */
    std::vector<std::size_t> vaGranted_;

    /** Re-derive (port, vc)'s bits in the bid bitsets from its state. */
    void
    syncBid(std::size_t vi)
    {
        const InputVc &ivc = invcs_[vi];
        const std::size_t w = vi >> 6;
        const std::uint64_t bit = std::uint64_t(1) << (vi & 63);
        if (ivc.state == VcState::RouteWait)
            bidRouteWait_[w] |= bit;
        else
            bidRouteWait_[w] &= ~bit;
        if (ivc.state == VcState::Active && !ivc.fifo.empty())
            bidActive_[w] |= bit;
        else
            bidActive_[w] &= ~bit;
    }

    /** Received credits maturing through the processing pipeline, in
     *  applyAt order; always empty when creditProc_ == 0, because such
     *  credits are applied on arrival. */
    sim::Ring<PendingCredit> pendingCredits_;
    int creditProc_ = 0;    //!< cfg_.effectiveCreditProc(), cached.

    /**
     * Interval-accounted input-buffer occupancy (stats_.bufOccupancy):
     * the flit count only changes during this router's ticks
     * (receiveFlits push / departFlit pop), so folding
     * bufferedNow_ * elapsed at each tick reproduces per-cycle
     * counting under any sleep schedule.
     */
    int bufferedNow_ = 0;           //!< Flits in the input FIFOs now.
    sim::Cycle occObsAt_ = 0;       //!< Integral folded through here.

    /** Telemetry stall-span sink (traceStalls); nullptr = off. */
    std::vector<StallSpan> *stallTrace_ = nullptr;
    /**
     * First cycle of each VC's whole open stall, by vidx (stallSince
     * tracks only the not-yet-folded suffix).  Sized and maintained
     * only while a stall-span trace is attached, so the cold field
     * stays out of InputVc.
     */
    std::vector<sim::Cycle> stallOpen_;
    sim::Cycle &
    stallOpen(const InputVc &ivc)
    {
        return stallOpen_[std::size_t(&ivc - invcs_.data())];
    }

    /** Speculative switch bids are issued for every ready RouteWait VC
     *  each cycle (evolving arbiter state + specSaAttempts), so such
     *  VCs pin the router awake; cached model predicate. */
    bool specBids_ = false;

    /** routing_.isAdaptive(), cached: deterministic routings skip the
     *  candidates() vector and the per-attempt re-route. */
    bool adaptive_ = false;

    // Allocators (constructed per model; the bitmask engine by
    // default, the dense scalar oracle under cfg.scalarAlloc -- same
    // grants either way).
    std::unique_ptr<arb::WormholeArbiterBase> whArb_;
    std::unique_ptr<arb::VcAllocatorBase> vcAlloc_;
    std::unique_ptr<arb::SwitchAllocatorBase> saAlloc_;
    std::unique_ptr<arb::SwitchAllocatorBase> specAlloc_;

    // Per-tick scratch.
    std::vector<arb::VaRequest> vaReqs_;
    std::vector<arb::SaRequest> saReqs_;
    std::vector<int> candScratch_;

    RouterStats stats_;
};

} // namespace pdr::router

#endif // PDR_ROUTER_ROUTER_HH
