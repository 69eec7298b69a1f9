/**
 * @file
 * Deterministic multi-worker execution of one Network.
 *
 * A ParallelStepper owns a gang of worker threads (the calling thread
 * is worker 0) and advances the attached Network one cycle per step()
 * with the node set split across the gang by a par::Partitioner.  Each
 * cycle runs in two barrier-separated phases:
 *
 *   A  every worker ticks its own sources, routers and sinks (in index
 *      order within the slice) through the Network's partition-sliced
 *      entry points, using -- and updating -- only its slice of the
 *      wake table.  Channels whose producer and consumer live in
 *      different blocks are in staged mode: pushes buffer privately in
 *      the channel (single producer), so no queue is touched by two
 *      workers.
 *   B  every worker drains the staged buffers of the cross-boundary
 *      channels *it consumes*, merging items and applying the deferred
 *      wake-table updates; worker 0 also concatenates the per-worker
 *      delivery-trace shards in worker (== node) order.
 *
 * Under the weighted scheme worker 0 re-cuts the router blocks every
 * kRecutPeriod cycles, at the cycle-start safe point (the gang parked
 * at the barrier, every staging buffer drained): it prices each
 * router's last window by routerCost() and each worker's kept node
 * block by its ejected flits, lets the Partitioner place new router
 * boundaries, and applies them only if the heaviest worker's cost
 * falls by kRecutMarginPct percent.  Applying a cut reclassifies every
 * channel (staged iff its producer and consumer now have different
 * owners) and rebuilds the drain lists.  Node blocks never move, so
 * pool shards and delivery-trace shards keep their owners.  The
 * window costs come only from simulated counters, so every run takes
 * the same cuts, with profiling or telemetry on or off.
 *
 * Determinism: components only communicate through >= 1-cycle
 * channels, so intra-cycle order is immaterial; the deferred wake
 * update is min(), which reproduces the serial wake table exactly; the
 * flit pool's sharded freelists only change which storage slot a flit
 * occupies (never observable); per-sink statistics shards merge in
 * index order at readout; and the one order-sensitive piece of shared
 * state -- the measurement controller's sample-space tagging -- is
 * classified per cycle by MeasureController::tagMode(): on the rare
 * boundary cycle where the quota runs out mid-cycle, the source phase
 * runs serially in node order before the gang is released.  Results
 * are therefore bit-identical to Network::step() for any worker count,
 * which tests/net/test_lockstep.cc and tests/par/ enforce.
 *
 * Worker-count policy (resolveWorkers): an explicit request wins, then
 * the PDR_PAR_WORKERS environment variable, then 1 (serial).  When the
 * caller is itself a sweep-pool worker (nested parallelism), the
 * request is clamped to hardware_concurrency / pool size so sweep- and
 * network-level workers share one machine budget; since results never
 * depend on the worker count, the clamp is pure scheduling policy.
 */

#ifndef PDR_PAR_STEPPER_HH
#define PDR_PAR_STEPPER_HH

#include <atomic>
#include <thread>
#include <vector>

#include "net/network.hh"
#include "par/partition.hh"

namespace pdr::prof {
class Profiler;
} // namespace pdr::prof

namespace pdr::telem {
class Telemetry;
} // namespace pdr::telem

namespace pdr::par {

/** Parallel-execution configuration (the par.* experiment keys). */
struct ParConfig
{
    int workers = 1;                    //!< 1 = serial stepping.
    Scheme scheme = Scheme::Weighted;
};

/**
 * Worker threads for a network-level request: `requested` > 0 wins,
 * then PDR_PAR_WORKERS, then 1; always clamped to the per-sweep-worker
 * share of the hardware when called from inside a sweep pool.
 */
int resolveWorkers(int requested = 0);

/** Centralized sense-reversing spin barrier (yields when starved). */
class SpinBarrier
{
  public:
    explicit SpinBarrier(int participants) : n_(participants) {}

    void arrive();

  private:
    int n_;
    std::atomic<int> count_{0};
    std::atomic<unsigned> generation_{0};
};

/** Steps one Network across a worker gang, cycle by cycle. */
class ParallelStepper
{
  public:
    /**
     * Cycles between re-cuts (re-cuts run at multiples of it).  On a
     * 16x16 hotspot mesh the best cut of consecutive 1024-cycle
     * windows moves by a router or two, so a window's costs predict
     * the next one's; pricing a window is one pass over the routers
     * and sinks, against tens of milliseconds of stepping.
     */
    static constexpr sim::Cycle kRecutPeriod = 1024;
    /**
     * A re-cut is applied only if it lowers the heaviest worker's
     * window cost by this many percent.  On a 16x16 hotspot mesh at
     * 4 workers over 20k cycles, 5% applied 6 of 19 chances; 2%
     * applied 18 of 19, most of them moving a boundary by one or two
     * routers and back.
     */
    static constexpr std::uint64_t kRecutMarginPct = 5;

    /** One applied re-cut. */
    struct Recut
    {
        sim::Cycle cycle = 0;               //!< First cycle it ran.
        std::vector<sim::NodeId> routerHi;  //!< Per block.
    };

    /**
     * Attach to `net`.  The effective worker count is the partition's
     * (clamped by topology); with one worker the stepper degenerates
     * to plain Network::step() and spawns nothing.  While attached,
     * the network must be advanced through this stepper only.
     */
    ParallelStepper(net::Network &net, const ParConfig &cfg);

    /** Detaches: joins the gang and restores serial stepping state
     *  (channel modes, pool freelists, delivery traces). */
    ~ParallelStepper();

    ParallelStepper(const ParallelStepper &) = delete;
    ParallelStepper &operator=(const ParallelStepper &) = delete;

    /** Advance one cycle (never jumps the clock). */
    void step();

    /** Advance n cycles, fast-forwarding through idle regions. */
    void run(sim::Cycle n);

    /** Advance to cycle `limit`, fast-forwarding through idle
     *  regions. */
    void stepTo(sim::Cycle limit);

    /**
     * stepTo() with telemetry epochs: idle jumps are capped at the
     * sampler's next boundary (tel->cap()) and tel->poll() runs
     * before each jump is sized and again after it lands, so windows
     * are emitted at exact `telem.interval` multiples -- before the
     * boundary cycle executes -- with the gang parked at the
     * cycle-start barrier (a safe, quiescent sampling point).
     * Capping a jump never changes what executes -- skipIdle() ticks
     * nothing, and a boundary cycle with no due wake is skipped over
     * without stepping -- so the schedule is bit-identical to the
     * plain overload.  `tel` may be null (plain stepTo()).
     */
    void stepTo(sim::Cycle limit, telem::Telemetry *tel);

    /**
     * Fast-forward the clock to the network's next wake (clamped to
     * `limit`) without ticking; returns the new now().  Decided on
     * worker 0 between cycle barriers: the gang is parked at the
     * cycle-start barrier, the post-drain wake table is globally
     * consistent, and the barrier's release/acquire ordering
     * publishes the new clock -- so every worker count observes the
     * same jumps a serial run would take.
     */
    sim::Cycle skipIdle(sim::Cycle limit);

    /**
     * Attach the engine profiler (null detaches).  Must be called
     * from the stepping thread between cycles, before the profiled
     * span starts: workers read the pointer only after the next
     * cycle-start barrier release, which publishes the write.  The
     * profiler must outlive all subsequent stepping (destroy it
     * before the stepper, or detach first).  When attached, every
     * worker timestamps its tick / drain / barrier-wait phase
     * transitions -- purely observational, results unchanged.
     */
    void attachProfiler(prof::Profiler *prof) { prof_ = prof; }

    int workers() const { return W_; }
    const Partitioner &partitioner() const { return part_; }
    /** Channels currently in staged (cross-boundary) mode. */
    std::size_t crossChannels() const { return crossChans_; }

    /** Every re-cut applied so far, in order. */
    const std::vector<Recut> &recuts() const { return recuts_; }

    /** Staged flit / credit channels worker `w` drains. */
    const std::vector<net::Network::FlitChannel *> &
    flitDrain(int w) const
    {
        return flitDrain_[std::size_t(w)];
    }
    const std::vector<net::Network::CreditChannel *> &
    creditDrain(int w) const
    {
        return creditDrain_[std::size_t(w)];
    }

  private:
    using TagMode = traffic::MeasureController::TagMode;

    void workerLoop(int w);
    void runSlice(int w);
    void drainSlice(int w);
    void syncTrace();
    /** Stage exactly the channels whose ends have different owners
     *  and rebuild the drain lists (gang parked, buffers drained). */
    void classifyChannels();
    /** Cost of the window since the previous call into cost_ and
     *  sinkFlits_. */
    void priceWindow();
    /** Price the window since the last re-cut and apply a better cut
     *  (worker 0, cycle-start safe point). */
    void recut();

    net::Network &net_;
    Partitioner part_;
    int W_;
    std::size_t crossChans_ = 0;

    /** Staged channels grouped by the worker that consumes them. */
    std::vector<std::vector<net::Network::FlitChannel *>> flitDrain_;
    std::vector<std::vector<net::Network::CreditChannel *>>
        creditDrain_;

    /** Re-cut state (weighted scheme with a gang only): the next
     *  re-cut cycle, the counters at the last one, and reused
     *  window buffers. */
    bool recutting_ = false;
    sim::Cycle nextRecut_ = kRecutPeriod;
    std::vector<std::uint64_t> lastTicks_, lastFlits_, lastSinkFlits_;
    std::vector<std::uint64_t> cost_, sinkFlits_;
    std::vector<Recut> recuts_;

    /** Per-worker delivery buffers, merged in worker order each
     *  cycle when the user attached a trace. */
    std::vector<std::vector<traffic::Delivery>> workerTrace_;
    std::vector<traffic::Delivery> *boundTrace_ = nullptr;
    /** Network trace-registration generation last synced. */
    std::uint64_t boundTraceGen_ = 0;

    std::vector<std::thread> threads_;  //!< Workers 1..W-1.
    prof::Profiler *prof_ = nullptr;    //!< Engine profiler, optional.
    SpinBarrier barrier_;
    std::atomic<bool> stop_{false};
    TagMode mode_ = TagMode::None;      //!< Published at cycle start.
};

} // namespace pdr::par

#endif // PDR_PAR_STEPPER_HH
