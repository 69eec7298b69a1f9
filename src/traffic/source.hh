/**
 * @file
 * Constant-rate packet source (Section 5 of the paper).
 *
 * Each node has a source that creates fixed-length packets by a
 * Bernoulli process at the configured rate and queues them (the source
 * queue is unbounded; source queueing time counts toward latency).  The
 * source streams packets into the router's injection port flit by flit,
 * respecting credit-based flow control exactly like an upstream router:
 * it tracks per-VC credits for the injection input buffers and may
 * stream up to `numVcs` packets concurrently (one per VC), sending at
 * most one flit per cycle over the injection channel.
 *
 * Bursty arrivals: an optional two-state MMPP (Markov-modulated
 * Poisson/Bernoulli process) layers on top of any destination pattern.
 * The source alternates between an ON state -- Bernoulli arrivals at a
 * boosted rate -- and a silent OFF state, with geometrically
 * distributed dwell times of mean `burstOn` / `burstOff` cycles.  The
 * ON rate is scaled so the long-run mean offered load still equals
 * `packetRate` (capped at one packet per cycle), so latency-throughput
 * curves stay comparable across burstiness settings.  With burstOn ==
 * burstOff == 0 (the default) the arrival process is the paper's plain
 * Bernoulli draw, bit-identical to the historical RNG stream.
 */

#ifndef PDR_TRAFFIC_SOURCE_HH
#define PDR_TRAFFIC_SOURCE_HH

#include <deque>
#include <vector>

#include "common/rng.hh"
#include "router/routing.hh"
#include "sim/channel.hh"
#include "sim/flit.hh"
#include "sim/flit_pool.hh"
#include "sim/ring.hh"
#include "traffic/measure.hh"
#include "traffic/pattern.hh"

namespace pdr::traffic {

/** Source configuration. */
struct SourceConfig
{
    int numVcs = 1;
    int bufDepth = 8;          //!< Injection input-buffer depth per VC.
    int packetLength = 5;      //!< Flits per packet.
    double packetRate = 0.0;   //!< Packets per cycle (Bernoulli).
    /** MMPP burst (ON-state) mean dwell in cycles; 0 disables the
     *  modulation (plain Bernoulli arrivals). */
    double burstOn = 0.0;
    /** MMPP gap (OFF-state) mean dwell in cycles. */
    double burstOff = 0.0;
    std::uint64_t seed = 1;
    /** Injection-time per-packet routing state (oblivious routings
     *  draw their order bit / intermediate here); nullptr for none. */
    const router::RoutingFunction *routing = nullptr;
};

/** Per-node constant-rate source. */
class Source
{
  public:
    using FlitChannel = sim::Channel<sim::FlitRef>;
    using CreditChannel = sim::Channel<sim::Credit>;

    Source(sim::NodeId node, const SourceConfig &cfg,
           const TrafficPattern &pattern, MeasureController &ctrl,
           sim::FlitPool &pool, FlitChannel *to_router,
           CreditChannel *credits_back);

    /** Advance one cycle: collect credits, generate, inject. */
    void tick(sim::Cycle now);

    /**
     * Replay the per-cycle arrival draws for every cycle in
     * [nextGen, now] that a sleeping source skipped.  The RNG is
     * private, draws are a fixed function of the cycle index, and the
     * only cross-source call -- MeasureController::tryTag -- is
     * mutation-free over any span the source is allowed to sleep
     * through (pre-warmup or quota-full), so replaying late yields the
     * exact queue, stream and RNG state of per-cycle ticking.  tick()
     * calls this; Network::quiescent() also calls it so backlog()
     * reads match the tick-everything schedule mid-sleep.
     */
    void catchUp(sim::Cycle now);

    /**
     * Earliest cycle at which this source next needs a tick.  During a
     * tagging-sensitive span (post-warmup until the sample quota
     * fills) a nonzero-rate source ticks every cycle: packet creation
     * consumes the shared sample quota in serial node order.  Outside
     * that span the Bernoulli draws are replayed lazily (catchUp), so
     * the source sleeps whenever injection is impossible -- no credits
     * on any VC -- until a credit matures or the warmup boundary
     * arrives.  Idle zero-rate sources sleep until a credit arrives
     * (CycleNever when none is in flight).
     */
    sim::Cycle nextWake(sim::Cycle now) const;

    /** Packets created so far. */
    std::uint64_t created() const { return created_; }
    /** Flits sent so far. */
    std::uint64_t flitsSent() const { return flitsSent_; }
    /** Packets waiting or streaming. */
    std::size_t backlog() const { return queue_.size() + active(); }
    /** Streams currently active. */
    int active() const;

    /** FlitPool freelist shard this source allocates from (set by the
     *  partitioned stepper to its owning worker; 0 = serial). */
    void setPoolShard(int shard) { poolShard_ = shard; }

    // ----- invariant-auditor accessors (sim::Auditor; read-only) -----

    /** Usable injection credits for VC `vc`. */
    int auditCredits(int vc) const { return credits_[std::size_t(vc)]; }
    /** Arrived credits for VC `vc` still in the one-cycle credit
     *  pipeline (not yet usable). */
    int
    auditPendingCredits(int vc) const
    {
        int n = 0;
        pendingCredits_.forEach([&](const std::pair<sim::Cycle, int> &pc) {
            if (pc.second == vc)
                n++;
        });
        return n;
    }

  private:
    /** A queued packet awaiting injection. */
    struct PendingPacket
    {
        sim::PacketId id;
        sim::NodeId dest;
        sim::Cycle ctime;
        bool measured;
        /** Routing state from RoutingFunction::initPacket. */
        router::PacketInit routing;
    };

    /** A packet currently streaming on an injection VC. */
    struct Stream
    {
        bool busy = false;
        PendingPacket pkt;
        int nextSeq = 0;
    };

    void applyCredits(sim::Cycle now);
    void generate(sim::Cycle now);
    void inject(sim::Cycle now);

    /** First cycle whose arrival draw has not run yet (lazy
     *  generation; see catchUp). */
    sim::Cycle nextGen_ = 0;

    sim::NodeId node_;
    SourceConfig cfg_;
    const TrafficPattern &pattern_;
    MeasureController &ctrl_;
    sim::FlitPool &pool_;
    FlitChannel *out_;
    CreditChannel *creditIn_;

    Rng rng_;
    double onRate_ = 0.0;              //!< Bernoulli rate in ON state.
    bool burstState_ = true;           //!< MMPP state (true = ON).
    int poolShard_ = 0;                //!< FlitPool freelist shard.
    std::deque<PendingPacket> queue_;
    std::vector<Stream> streams_;      //!< One per injection VC.
    std::vector<int> credits_;         //!< Per injection VC.
    sim::Ring<std::pair<sim::Cycle, int>> pendingCredits_;
    int rrVc_ = 0;                     //!< Round-robin send pointer.
    int rrAssign_ = 0;                 //!< Round-robin VC assignment.

    std::uint64_t created_ = 0;
    std::uint64_t flitsSent_ = 0;
    sim::PacketId nextId_;
};

} // namespace pdr::traffic

#endif // PDR_TRAFFIC_SOURCE_HH
