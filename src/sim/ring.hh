/**
 * @file
 * Growable power-of-two ring queue.
 *
 * The simulator's in-flight queues (channel delay lines, credit
 * processing pipelines) are short FIFOs that are pushed at the back
 * and popped at the front every cycle.  Ring keeps its items in one
 * contiguous power-of-two buffer: an index is (head + i) & mask, and a
 * push only branches to grow when the buffer is full.  Growth doubles the capacity and
 * re-packs the items in order at the front of the new buffer, so the
 * queue's contents and order never depend on when it grew.  The first
 * push allocates kMinCapacity slots; an unused queue allocates nothing.
 * The header is a pointer and three 32-bit counters (24 bytes), which
 * keeps a Channel's hot fields within its first 40 bytes.
 */

#ifndef PDR_SIM_RING_HH
#define PDR_SIM_RING_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/logging.hh"

namespace pdr::sim {

/** FIFO over a power-of-two ring buffer that doubles when full. */
template <typename T>
class Ring
{
  public:
    /** Capacity of the first allocation. */
    static constexpr std::size_t kMinCapacity = 4;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    /** Slots allocated (0 or a power of two >= kMinCapacity). */
    std::size_t capacity() const { return cap_; }

    const T &
    front() const
    {
        pdr_assert(size_ > 0);
        return buf_[head_];
    }

    const T &
    back() const
    {
        pdr_assert(size_ > 0);
        return buf_[(head_ + size_ - 1) & (cap_ - 1)];
    }

    /** The i-th item from the front (0 = front). */
    const T &
    operator[](std::size_t i) const
    {
        pdr_assert(i < size_);
        return buf_[(head_ + i) & (cap_ - 1)];
    }

    void
    push_back(const T &item)
    {
        if (size_ == cap_)
            grow();
        buf_[(head_ + size_) & (cap_ - 1)] = item;
        size_++;
    }

    void
    pop_front()
    {
        pdr_assert(size_ > 0);
        head_ = (head_ + 1) & (cap_ - 1);
        size_--;
    }

    /** Drop every item (keeps the allocation). */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Visit every item as fn(item), front to back. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (std::uint32_t i = 0; i < size_; i++)
            fn(buf_[(head_ + i) & (cap_ - 1)]);
    }

  private:
    /** Double the buffer, re-packing the items in order from slot 0. */
    void
    grow()
    {
        const std::uint32_t cap =
            cap_ == 0 ? std::uint32_t(kMinCapacity) : 2 * cap_;
        pdr_assert(cap > cap_);
        auto next = std::make_unique<T[]>(cap);
        for (std::uint32_t i = 0; i < size_; i++)
            next[i] = buf_[(head_ + i) & (cap_ - 1)];
        buf_ = std::move(next);
        head_ = 0;
        cap_ = cap;
    }

    std::unique_ptr<T[]> buf_;
    std::uint32_t cap_ = 0;     //!< Slots allocated (a power of two).
    std::uint32_t head_ = 0;    //!< Slot of the front item.
    std::uint32_t size_ = 0;    //!< Items queued.
};

} // namespace pdr::sim

#endif // PDR_SIM_RING_HH
