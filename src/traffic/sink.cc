#include "traffic/sink.hh"

#include "common/logging.hh"

namespace pdr::traffic {

Sink::Sink(sim::NodeId node, int packet_length, int num_vcs,
           MeasureController &ctrl, sim::FlitPool &pool,
           FlitChannel *from_router, stats::LatencyStats &latency)
    : node_(node), packetLength_(packet_length), ctrl_(ctrl),
      pool_(pool), in_(from_router), latency_(latency),
      expect_(std::size_t(num_vcs))
{
}

void
Sink::tick(sim::Cycle now)
{
    while (auto r = in_->pop(now)) {
        const sim::Flit f = pool_.get(*r);
        pool_.free(*r, poolShard_);
        pdr_assert(f.dest == node_);
        totalFlits_++;
        if (now >= ctrl_.warmup())
            measuredFlits_++;

        // Flits of a packet must arrive in order on one VC, and a VC
        // carries one packet at a time.
        pdr_assert(f.vc >= 0 && std::size_t(f.vc) < expect_.size());
        VcSeq &vs = expect_[std::size_t(f.vc)];
        if (vs.next == 0)
            vs.packet = f.packet;       // A head opens the VC's packet.
        pdr_assert(f.packet == vs.packet);
        pdr_assert(int(f.seq) == vs.next);

        if (sim::isTail(f.type)) {
            pdr_assert(vs.next == packetLength_ - 1);
            vs.next = 0;
            packets_++;
            sim::Cycle lat = now - f.ctime;
            latency_.record(double(lat), f.measured);
            if (f.measured)
                ctrl_.taggedReceived();
            if (trace_)
                trace_->push_back({f.packet, node_, now, lat});
        } else {
            vs.next++;
        }
    }
}

} // namespace pdr::traffic
