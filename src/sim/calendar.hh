/**
 * @file
 * Per-router arrival calendar: push-model delivery of channel items.
 *
 * A router consumes 2p channels, a flit channel into each input port
 * and a credit channel into each output port.  Rather than polling
 * every one of them each tick, a channel attached to a calendar
 * (Channel::attach) marks its consumer's bit in the slot of the item's
 * ready cycle whenever an item enters its queue: on push, or on
 * drainStaged under partitioned stepping.  A slot is two words -- bit p
 * of the credit word = an item on output p's credit channel, bit p of
 * the flit word = an item on input p's flit channel -- and a summary
 * word has bit s set while slot s is non-empty.  A tick takes (reads
 * and clears) the slot for `now` and pops only the marked channels;
 * Router::nextWake finds the next marked slot by rotating the summary
 * word and counting trailing zeros.
 *
 * The premise is the wake-table invariant: every channel item is
 * consumed on its exact ready cycle (Network::maxLiveFlits relies on
 * it too, and AUD-WAKE checks it).  Slots are indexed
 * ready & (kSlots - 1), so while no item spends more than kSlots
 * cycles between push and delivery, the slot for `now` holds exactly
 * this tick's arrivals and the summary word's next bit is exactly the
 * next arrival.  Longer latencies alias: the slot an item marks also
 * stands for cycles a multiple of kSlots earlier.  The consumer then
 * visits the channel early, pops nothing, and re-marks the channel's
 * front item (Channel::remark), so the bit survives until the item's
 * own cycle.  An alias costs at most a spurious tick, and ticks beyond
 * the wake schedule are no-ops (the forceTickAll equivalence).  No
 * latency bound follows from the ring size.
 */

#ifndef PDR_SIM_CALENDAR_HH
#define PDR_SIM_CALENDAR_HH

#include <cstdint>

#include "sim/types.hh"

namespace pdr::sim {

/** A ring of ready-cycle slots holding a consumer's due channels. */
class ArrivalCalendar
{
  public:
    /** Slots in the ring: one bit of the summary word each. */
    static constexpr unsigned kSlots = 64;

    /** Which word of a slot a channel marks. */
    enum Kind : std::uint8_t { Credit = 0, Flit = 1 };

    /** The channels due in one slot: bit p = port p's channel. */
    struct Due
    {
        std::uint64_t credit;
        std::uint64_t flit;
    };

    /** Mark `bit` in the `kind` word of the slot for cycle `ready`. */
    void
    mark(Cycle ready, Kind kind, std::uint64_t bit)
    {
        const unsigned s = slotOf(ready);
        words_[s][kind] |= bit;
        summary_ |= std::uint64_t(1) << s;
    }

    /** Read and clear the slot for cycle `now`. */
    Due
    take(Cycle now)
    {
        const unsigned s = slotOf(now);
        if (!((summary_ >> s) & 1u))
            return {0, 0};
        const Due due{words_[s][Credit], words_[s][Flit]};
        words_[s][Credit] = 0;
        words_[s][Flit] = 0;
        summary_ &= ~(std::uint64_t(1) << s);
        return due;
    }

    /** The first cycle at or after `from` whose slot is marked;
     *  CycleNever when the calendar is empty. */
    Cycle
    next(Cycle from) const
    {
        if (!summary_)
            return CycleNever;
        const unsigned s = slotOf(from);
        const std::uint64_t rotated =
            (summary_ >> s) | (summary_ << ((kSlots - s) & (kSlots - 1)));
        return from + Cycle(__builtin_ctzll(rotated));
    }

    /** `bit` is set in the `kind` word of `ready`'s slot, and the
     *  summary word flags that slot (the AUD-ARRIVE check). */
    bool
    marked(Cycle ready, Kind kind, std::uint64_t bit) const
    {
        const unsigned s = slotOf(ready);
        return (words_[s][kind] & bit) && ((summary_ >> s) & 1u);
    }

    /** No slot is marked. */
    bool empty() const { return summary_ == 0; }

  private:
    static unsigned slotOf(Cycle c) { return unsigned(c) & (kSlots - 1); }

    std::uint64_t words_[kSlots][2] = {};  //!< [slot][Kind].
    std::uint64_t summary_ = 0;            //!< Bit s: slot s non-empty.
};

} // namespace pdr::sim

#endif // PDR_SIM_CALENDAR_HH
