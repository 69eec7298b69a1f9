/**
 * @file
 * Ejection sink: absorbs flits at the destination node ("immediate
 * ejection"), validates packet integrity, and records latency and
 * throughput statistics.  Flit pool slots are released here, at the
 * end of each flit's life.
 */

#ifndef PDR_TRAFFIC_SINK_HH
#define PDR_TRAFFIC_SINK_HH

#include <vector>

#include "sim/channel.hh"
#include "sim/flit.hh"
#include "sim/flit_pool.hh"
#include "stats/latency.hh"
#include "traffic/measure.hh"

namespace pdr::traffic {

/** One completed packet, as observed at its ejection port. */
struct Delivery
{
    sim::PacketId packet;
    sim::NodeId dest;
    sim::Cycle at;          //!< Cycle the tail flit was ejected.
    sim::Cycle latency;     //!< Creation-to-ejection latency.
};

/** Per-node ejection sink. */
class Sink
{
  public:
    using FlitChannel = sim::Channel<sim::FlitRef>;

    Sink(sim::NodeId node, int packet_length, int num_vcs,
         MeasureController &ctrl, sim::FlitPool &pool,
         FlitChannel *from_router, stats::LatencyStats &latency);

    /** Drain arrived flits. */
    void tick(sim::Cycle now);

    /**
     * Earliest cycle at which an in-flight flit matures on the
     * ejection channel; CycleNever when none (a sink holds no state
     * that evolves without input).
     */
    sim::Cycle nextWake() const { return in_->nextReady(); }

    /**
     * Append every completed packet to `trace` (cycle-accuracy
     * harnesses compare these across Network variants).  nullptr
     * disables tracing (the default; zero cost).
     */
    void recordDeliveries(std::vector<Delivery> *trace)
    {
        trace_ = trace;
    }

    /** The trace set by recordDeliveries (nullptr when off). */
    const std::vector<Delivery> *deliveryTrace() const { return trace_; }

    /** FlitPool freelist shard this sink frees into (set by the
     *  partitioned stepper to its owning worker; 0 = serial). */
    void setPoolShard(int shard) { poolShard_ = shard; }
    int poolShard() const { return poolShard_; }

    /** Flits received after the warm-up point (for throughput). */
    std::uint64_t measuredFlits() const { return measuredFlits_; }
    /** All flits ever received. */
    std::uint64_t totalFlits() const { return totalFlits_; }
    /** Complete packets received. */
    std::uint64_t packets() const { return packets_; }

  private:
    sim::NodeId node_;
    int packetLength_;
    MeasureController &ctrl_;
    sim::FlitPool &pool_;
    FlitChannel *in_;
    stats::LatencyStats &latency_;
    std::vector<Delivery> *trace_ = nullptr;
    int poolShard_ = 0;                 //!< FlitPool freelist shard.

    /** The packet an ejection VC is carrying and the sequence number
     *  its next flit must have (0 = between packets). */
    struct VcSeq
    {
        sim::PacketId packet = 0;
        int next = 0;
    };
    /** One slot per ejection VC: a VC carries one packet from head to
     *  tail, so this checks in-order arrival without a lookup. */
    std::vector<VcSeq> expect_;

    std::uint64_t measuredFlits_ = 0;
    std::uint64_t totalFlits_ = 0;
    std::uint64_t packets_ = 0;
};

} // namespace pdr::traffic

#endif // PDR_TRAFFIC_SINK_HH
