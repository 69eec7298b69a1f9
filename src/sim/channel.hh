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
 * that component's wake time to the item's ready cycle.  Credit
 * channels are watched exactly like flit channels: a credit return is
 * a wake event, which is what lets a router (or source) blocked on
 * zero credits clear its wake entry and sleep until the credit that
 * ends the stall arrives (see Router::nextWake / Source::nextWake).
 *
 * Delivery is push-model for routers.  A channel whose consumer is a
 * router is attached to that router's sim::ArrivalCalendar with the
 * consumer's port bit, and every item entering the queue marks the
 * slot of its ready cycle.  The router's tick then pops only the
 * channels marked for `now`, and its nextWake reads the calendar
 * instead of each channel's nextReady().  After draining a marked
 * channel the router calls remark(now), which marks the new front
 * item.  Every mark carries the cycle it is made in, and an item a turn
 * or more ahead goes to the calendar's far words instead of its slot
 * (see sim/calendar.hh).  So the front item in flight is always marked
 * in its slot or held far (audited as AUD-ARRIVE).
 * Sources and sinks consume one channel each; their channels have no
 * calendar, mark nothing, and are read through pop() and nextReady().
 *
 * Partitioned stepping (src/par/) puts channels that cross a worker
 * boundary into *staged* mode: push() then appends to a private
 * single-producer staging buffer instead of the live queue, and
 * drainStaged() -- called by the consumer's worker after the per-cycle
 * barrier -- merges the staged items and applies the deferred wake-table
 * updates and calendar marks.  Because items pushed at cycle t are
 * deliverable at t+1 or later, draining at the end of cycle t is
 * indistinguishable from the serial immediate push, and the min() wake
 * update reproduces the serial wake table exactly whatever the
 * intra-cycle tick order was.  An unstaged push has its producer and
 * consumer on the same worker, so calendar marks never race.
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
#include <memory>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "sim/calendar.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace pdr::sim {

/** A fixed-latency delay line carrying items of type T.  The fields a
 *  push or pop touches come first, within 56 bytes. */
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
     * Wire up push-model delivery: every item entering the queue marks
     * bit `bit` of the `kind` word in `cal`'s slot for its ready cycle.
     * The consumer owns `cal`, which must outlive the channel's use.
     * Attach before the first push.
     */
    void
    attach(ArrivalCalendar *cal, ArrivalCalendar::Kind kind, int bit)
    {
        pdr_assert(q_.empty() && bit >= 0 && bit < 64);
        cal_ = cal;
        calBit_ = std::uint64_t(1) << bit;
        calKind_ = kind;
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
            // producer touches staged_) and defer the queue merge, wake
            // update and calendar mark to drainStaged() after the cycle
            // barrier.
            pdr_assert(staged_->empty() ||
                       staged_->back().ready <= ready);
            staged_->push_back({ready, item});
            return;
        }
        enqueue({ready, item}, now);
    }

    /**
     * Enter/leave staged (cross-partition) mode.  Must be toggled
     * between cycles, with the staging buffer drained.  The buffer is
     * allocated on first use and kept.
     */
    void
    setStaged(bool on)
    {
        pdr_assert(!staged_ || staged_->empty());
        if (on && !staged_)
            staged_ = std::make_unique<std::vector<Entry>>();
        staging_ = on;
    }

    bool staged() const { return staging_; }

    /**
     * Merge staged pushes into the live queue and apply their deferred
     * wake-table updates and calendar marks.  Called by the consumer's
     * worker after the phase barrier of cycle `now` (the cycle of the
     * pushes), so it never races the producer or consumer.
     */
    void
    drainStaged(Cycle now)
    {
        pdr_assert(staged_);
        for (const Entry &e : *staged_)
            enqueue(e, now);
        staged_->clear();
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

    /**
     * Mark the front item in flight in the attached calendar again, at
     * the consumer's cycle `now`.  The consumer calls this after
     * draining a channel whose bit it took from the calendar (the next
     * item, if any, was marked far or not at all) and for every far
     * channel before taking a slot.  No-op when nothing is in flight or
     * no calendar is attached.
     */
    void
    remark(Cycle now)
    {
        if (cal_ && !q_.empty())
            cal_->mark(q_.front().ready, now, calKind_, calBit_);
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
     * [AUD-ARRIVE] The front item in flight is marked in the attached
     * calendar (or held there as far).  Vacuously true with nothing in
     * flight or no calendar.
     */
    bool
    frontMarked() const
    {
        return !cal_ || q_.empty() ||
               cal_->marked(q_.front().ready, calKind_, calBit_);
    }

    /**
     * Visit every in-flight item as fn(ready, item), oldest first
     * (read-only; the invariant auditor counts queue contents with
     * this).  Staged items are not visited: the auditor runs at cycle
     * boundaries, where every staging buffer has been drained.
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

    /** Append to the live queue at cycle `now`, lower the consumer's
     *  wake entry and mark its calendar. */
    void
    enqueue(const Entry &e, Cycle now)
    {
        pdr_assert(q_.empty() || q_.back().ready <= e.ready);
        q_.push_back(e);
        if (wake_ && e.ready < *wake_)
            *wake_ = e.ready;
        if (cal_)
            cal_->mark(e.ready, now, calKind_, calBit_);
    }

    // Fields every push and pop touch come first; the cross-partition
    // staging buffer, used only under partitioned stepping, lives out
    // of line behind the last field.
    Ring<Entry> q_;
    Cycle *wake_ = nullptr;             //!< Consumer's wake-table entry.
    ArrivalCalendar *cal_ = nullptr;    //!< Consumer's calendar.
    std::uint64_t calBit_ = 0;          //!< Consumer's port bit.
    std::uint32_t latency_;
    ArrivalCalendar::Kind calKind_ = ArrivalCalendar::Flit;
    bool staging_ = false;              //!< Crosses a partition.
    std::unique_ptr<std::vector<Entry>> staged_;  //!< Staging buffer.
};

static_assert(sizeof(Channel<std::uint32_t>) == 64,
              "a 4-byte-item channel fits a cache line's size");

} // namespace pdr::sim

#endif // PDR_SIM_CHANNEL_HH
