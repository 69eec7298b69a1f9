/**
 * @file
 * Fixed-latency channels (delay lines) connecting routers.
 *
 * A channel models a pipelined wire: items pushed at cycle t with a
 * latency L become visible to the receiver at cycle t + L.  Both the
 * flit path and the backward credit path are channels; the paper's
 * experiments vary the credit channel's propagation latency (Figure 18).
 *
 * Senders may add extra delay per push (e.g. the crossbar-traversal
 * stage between switch allocation and the wire).
 *
 * Channels participate in activity-driven ticking: a channel may be
 * told (watch) which component consumes it, and every push then lowers
 * that component's wake time to the item's ready cycle.  nextReady()
 * exposes the earliest in-flight ready time so a component going idle
 * can report when its inputs next demand attention.  Credit channels
 * are watched exactly like flit channels: a credit return is a wake
 * event, which is what lets a router (or source) blocked on zero
 * credits clear its wake entry and sleep until the credit that ends
 * the stall arrives (see Router::nextWake / Source::nextWake).
 *
 * Partitioned stepping (src/par/) puts channels that cross a worker
 * boundary into *staged* mode: push() then appends to a private
 * single-producer staging buffer instead of the live queue, and
 * drainStaged() -- called by the consumer's worker after the per-cycle
 * barrier -- merges the staged items and applies the deferred wake-table
 * updates.  Because items pushed at cycle t are deliverable at t+1 or
 * later, draining at the end of cycle t is indistinguishable from the
 * serial immediate push, and the min() wake update reproduces the
 * serial wake table exactly whatever the intra-cycle tick order was.
 *
 * The in-flight items live in a sim::Ring (a growable power-of-two
 * ring).  Each channel has one producer port, and a port sends at most
 * one item per cycle: the switch allocators grant at most one flit per
 * output port and per input port, so a router output emits at most one
 * flit and an input buffer frees (and credits back) at most one slot
 * per cycle, and a source injects at most one flit per cycle.  With the
 * sender's extra delay constant, ready cycles are therefore strictly
 * increasing and a channel delivers at most one item per ready cycle.
 * A channel thus holds at most latency + extra items, the ring reaches
 * its steady size after the first few pushes, and the hot path never
 * allocates.
 */

#ifndef PDR_SIM_CHANNEL_HH
#define PDR_SIM_CHANNEL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace pdr::sim {

/** A fixed-latency delay line carrying items of type T.  The fields a
 *  push or pop touches come first, within 40 bytes. */
template <typename T>
class Channel
{
  public:
    explicit Channel(Cycle latency = 1)
        : latency_(std::uint32_t(latency))
    {
        pdr_assert(latency >= 1 && latency == latency_);
    }

    /** Wire propagation latency in cycles. */
    Cycle latency() const { return latency_; }

    /**
     * Wire up wake notification: pushes lower `(*wake_at)[comp]` to the
     * pushed item's ready cycle, scheduling the consuming component.
     * The channel keeps a pointer to that entry, so the table must not
     * be resized while the channel is watched.
     */
    void
    watch(std::vector<Cycle> *wake_at, std::size_t comp)
    {
        pdr_assert(comp < wake_at->size());
        wake_ = &(*wake_at)[comp];
    }

    /**
     * Push an item at cycle `now`; it is deliverable at
     * now + latency + extra.  Pushes must be issued in nondecreasing
     * ready order (guaranteed when `extra` is constant per sender).
     */
    void
    push(const T &item, Cycle now, Cycle extra = 0)
    {
        Cycle ready = now + latency_ + extra;
        if (staging_) {
            // Cross-partition push: buffer privately (only the single
            // producer touches staged_) and defer the queue merge and
            // wake update to drainStaged() after the cycle barrier.
            pdr_assert(staged_.empty() ||
                       staged_.back().ready <= ready);
            staged_.push_back({ready, item});
            return;
        }
        pdr_assert(q_.empty() || q_.back().ready <= ready);
        q_.push_back({ready, item});
        if (wake_ && ready < *wake_)
            *wake_ = ready;
    }

    /**
     * Enter/leave staged (cross-partition) mode.  Must be toggled
     * between cycles, with the staging buffer drained.
     */
    void
    setStaged(bool on)
    {
        pdr_assert(staged_.empty());
        staging_ = on;
    }

    bool staged() const { return staging_; }

    /**
     * Merge staged pushes into the live queue and apply their deferred
     * wake-table updates.  Called by the consumer's worker after the
     * phase barrier, so it never races the producer or consumer.
     */
    void
    drainStaged()
    {
        for (const Entry &e : staged_) {
            pdr_assert(q_.empty() || q_.back().ready <= e.ready);
            q_.push_back(e);
            if (wake_ && e.ready < *wake_)
                *wake_ = e.ready;
        }
        staged_.clear();
    }

    /** Pop the next item if it has arrived by cycle `now`. */
    std::optional<T>
    pop(Cycle now)
    {
        if (q_.empty() || q_.front().ready > now)
            return std::nullopt;
        T item = q_.front().item;
        q_.pop_front();
        return item;
    }

    /** Items still in flight. */
    std::size_t inFlight() const { return q_.size(); }

    bool empty() const { return q_.empty(); }

    /** Earliest ready cycle in flight; CycleNever when empty. */
    Cycle
    nextReady() const
    {
        return q_.empty() ? CycleNever : q_.front().ready;
    }

    /**
     * Visit every in-flight item as fn(ready, item), oldest first
     * (read-only; the invariant auditor counts queue contents with
     * this).  Staged items are not visited: the auditor only runs on
     * the serial path, where the staging buffer is empty.
     */
    template <typename Fn>
    void
    forEachInFlight(Fn fn) const
    {
        q_.forEach([&fn](const Entry &e) { fn(e.ready, e.item); });
    }

  private:
    struct Entry
    {
        Cycle ready;
        T item;
    };

    // Fields every push and pop touch come first; the cross-partition
    // staging buffer, used only under partitioned stepping, comes last.
    Ring<Entry> q_;
    Cycle *wake_ = nullptr;         //!< Consumer's wake-table entry.
    std::uint32_t latency_;
    bool staging_ = false;          //!< Crosses a partition.
    std::vector<Entry> staged_;     //!< Cross-partition buffer.
};

static_assert(sizeof(Channel<std::uint32_t>) == 64,
              "a 4-byte-item channel fits a cache line's size");

} // namespace pdr::sim

#endif // PDR_SIM_CHANNEL_HH
