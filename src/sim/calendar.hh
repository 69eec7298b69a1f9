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
 * ready & (kSlots - 1), so a mark is exact only while it lies less than
 * one turn ahead.  Every mark therefore carries the cycle it is made
 * in: an item ready a whole turn or more after it (ready - now >=
 * kSlots) does not mark its slot, which the current cycle or one the
 * consumer may still take before `ready` shares, but sets its port bit
 * in the far words instead.  The consumer re-marks its far channels at
 * the start of each tick, before taking the slot (Channel::remark with
 * the tick's cycle), and bounds its wake by their nextReady(), so a far
 * item is marked exactly once it is within a turn.  Marks never alias:
 * the slot for `now` holds exactly this tick's arrivals and the summary
 * word's next bit is exactly the next marked arrival, whether a
 * same-cycle push reached the consumer before or after its tick.  The
 * tick schedule, and Network::routerTicks with it, is then the same
 * under any partitioning.  No latency bound follows from the ring
 * size.
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

    /** Mark `bit` in the `kind` word of the slot for cycle `ready`,
     *  at cycle `now`; an item a turn or more ahead goes to the far
     *  words instead. */
    void
    mark(Cycle ready, Cycle now, Kind kind, std::uint64_t bit)
    {
        if (ready - now >= kSlots) {
            far_[kind] |= bit;
            return;
        }
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
     *  summary word flags that slot, or `bit` is set in the `kind` far
     *  word (the AUD-ARRIVE check). */
    bool
    marked(Cycle ready, Kind kind, std::uint64_t bit) const
    {
        const unsigned s = slotOf(ready);
        return ((words_[s][kind] & bit) && ((summary_ >> s) & 1u)) ||
               (far_[kind] & bit);
    }

    /** Some channel holds an item over a turn away. */
    bool hasFar() const { return (far_[Credit] | far_[Flit]) != 0; }

    /** The far words: bit p = port p's channel was over a turn away. */
    Due far() const { return {far_[Credit], far_[Flit]}; }

    /** Read and clear the far words (the consumer re-marks them). */
    Due
    takeFar()
    {
        const Due due = far();
        far_[Credit] = 0;
        far_[Flit] = 0;
        return due;
    }

    /** No slot is marked and no channel is far. */
    bool empty() const { return summary_ == 0 && !hasFar(); }

  private:
    static unsigned slotOf(Cycle c) { return unsigned(c) & (kSlots - 1); }

    std::uint64_t words_[kSlots][2] = {};  //!< [slot][Kind].
    std::uint64_t summary_ = 0;            //!< Bit s: slot s non-empty.
    std::uint64_t far_[2] = {};            //!< [Kind]: over a turn away.
};

} // namespace pdr::sim

#endif // PDR_SIM_CALENDAR_HH
