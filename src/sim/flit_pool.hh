/**
 * @file
 * Flit storage pool and fixed-capacity flit FIFOs.
 *
 * The simulator's hot loop moves flits between source streams, channel
 * delay lines, router input FIFOs and sinks.  Storing Flit structs by
 * value in every queue made each hand-off a ~48-byte copy and each
 * queue a heap-churning deque of large elements.  Instead, every flit
 * lives in exactly one slot of a per-Network FlitPool for its whole
 * source-to-sink life; queues carry 4-byte FlitRef handles.
 *
 * The pool is a slab + LIFO freelist:
 *
 *   - alloc() pops the most recently freed slot (cache-warm) or grows
 *     the slab; after warm-up a network allocates nothing.
 *   - free() returns a slot; double-free and use-after-free are caught
 *     by an always-on per-slot liveness flag (pdr_assert).
 *   - Slot reuse is deterministic: the handle sequence depends only on
 *     the (deterministic) order of alloc/free calls, never on address
 *     layout, so pooled and unpooled simulations stay bit-identical.
 *
 * Partitioned stepping (src/par/) shards the *freelist*: each worker
 * allocs from and frees into its own LIFO, so the steady-state hot
 * path needs no synchronization at all (a slot freed into shard s is
 * only ever re-allocated by worker s; the cycle barrier orders the
 * cross-worker alloc-at-source / free-at-sink pair on each slot).
 * Because a flit allocated in one shard is freed into whichever shard
 * hosts its destination sink, free slots drift between shards; an
 * overfull shard spills a batch to a mutex-guarded global list and an
 * empty shard refills from it, which bounds the slab at the live
 * high-water mark plus a constant per shard.  Slab growth itself is
 * mutex-serialized and -- in sharded mode -- must stay within the
 * reserve() capacity, because other workers dereference slots
 * concurrently and a reallocation would invalidate them;
 * shardFreelists() takes the reservation that guarantees this.  Which
 * worker a flit's slot lands in depends on scheduling, but handles
 * never influence simulated behavior or statistics, so results stay
 * bit-identical for any worker count.
 *
 * FlitFifo is the router-input-buffer queue: capacity fixed at
 * construction (the buffer depth), a plain ring over contiguous
 * storage, no allocation after init().  Each slot carries the flit's
 * eligible cycle next to its handle.
 */

#ifndef PDR_SIM_FLIT_POOL_HH
#define PDR_SIM_FLIT_POOL_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/logging.hh"
#include "sim/flit.hh"

namespace pdr::sim {

/** Handle to a pooled flit (index into the owning FlitPool's slab). */
using FlitRef = std::uint32_t;

/** Invalid / empty flit handle. */
constexpr FlitRef NullFlit = ~FlitRef(0);

/** Slab allocator for the flits of one Network. */
class FlitPool
{
  public:
    FlitPool() { shards_.resize(1); }

    /** Pre-size the slab (optional; the pool grows on demand). */
    void reserve(std::size_t n)
    {
        slots_.reserve(n);
        shards_[0].freeList.reserve(n);
    }

    /**
     * Split the freelist into `n` single-owner shards and reserve
     * `slots` slab entries so sharded growth never reallocates (live
     * handles are dereferenced concurrently).  Existing free slots stay
     * in shard 0.  Idempotent for the same n.
     */
    void
    shardFreelists(int n, std::size_t slots)
    {
        pdr_assert(n >= 1);
        // Spill/refill headroom: each shard may idle up to a spill
        // batch of free slots while another shard grows the slab.
        slots += std::size_t(n) * (kSpillAt + kBatch);
        if (slots > slots_.capacity())
            reserve(slots);
        shards_.resize(std::size_t(n));
        for (auto &sh : shards_)
            sh.freeList.reserve(slots);
        globalFree_.reserve(slots);
    }

    /** Merge every shard's freelist back into shard 0 (serial mode). */
    void
    collapseFreelists()
    {
        for (std::size_t s = 1; s < shards_.size(); s++) {
            auto &from = shards_[s];
            shards_[0].freeList.insert(shards_[0].freeList.end(),
                                       from.freeList.begin(),
                                       from.freeList.end());
            shards_[0].live += from.live;
            from.freeList.clear();
            from.live = 0;
        }
        shards_[0].freeList.insert(shards_[0].freeList.end(),
                                   globalFree_.begin(),
                                   globalFree_.end());
        globalFree_.clear();
        shards_.resize(1);
    }

    int numShards() const { return int(shards_.size()); }

    /**
     * Acquire a slot from `shard`'s freelist (growing the slab when it
     * is empty).  The returned flit's fields are unspecified (callers
     * overwrite every field); the slot is marked live.
     */
    FlitRef
    alloc(int shard = 0)
    {
        Shard &sh = shards_[std::size_t(shard)];
        FlitRef ref;
        if (!sh.freeList.empty()) {
            ref = sh.freeList.back();
            sh.freeList.pop_back();
        } else {
            std::lock_guard<std::mutex> lock(growMutex_);
            if (!globalFree_.empty()) {
                // Refill a batch from the slots other shards spilled.
                std::size_t take =
                    std::min(kBatch, globalFree_.size());
                sh.freeList.insert(sh.freeList.end(),
                                   globalFree_.end() -
                                       std::ptrdiff_t(take),
                                   globalFree_.end());
                globalFree_.resize(globalFree_.size() - take);
                ref = sh.freeList.back();
                sh.freeList.pop_back();
            } else {
                // In sharded mode a reallocation would invalidate
                // slots other workers are reading; shardFreelists()
                // reserved enough for the worst-case live population
                // plus the per-shard spill headroom.  numSlots_ is
                // the concurrency-safe size mirror: growing mutates
                // only memory beyond every handed-out slot, so
                // concurrent get()s of existing refs stay clean.
                pdr_assert(shards_.size() == 1 ||
                           slots_.size() < slots_.capacity());
                ref = FlitRef(slots_.size());
                slots_.emplace_back();
                numSlots_.store(std::uint32_t(slots_.size()),
                                std::memory_order_relaxed);
            }
        }
        pdr_assert(!slots_[ref].alive);
        slots_[ref].alive = true;
        sh.live++;
        return ref;
    }

    /** Release a slot into `shard`'s freelist (its flit left the
     *  network at a sink). */
    void
    free(FlitRef ref, int shard = 0)
    {
        pdr_assert(ref < numSlots());
        pdr_assert(slots_[ref].alive);
        slots_[ref].alive = false;
        Shard &sh = shards_[std::size_t(shard)];
        sh.live--;
        sh.freeList.push_back(ref);
        if (shards_.size() > 1 && sh.freeList.size() > kSpillAt) {
            // Free slots drift toward the shards hosting popular
            // sinks; spill a batch so empty shards refill instead of
            // growing the slab forever.
            std::lock_guard<std::mutex> lock(growMutex_);
            globalFree_.insert(globalFree_.end(),
                               sh.freeList.end() -
                                   std::ptrdiff_t(kBatch),
                               sh.freeList.end());
            sh.freeList.resize(sh.freeList.size() - kBatch);
        }
    }

    Flit &
    get(FlitRef ref)
    {
        pdr_assert(ref < numSlots() && slots_[ref].alive);
        return slots_[ref].flit;
    }

    const Flit &
    get(FlitRef ref) const
    {
        pdr_assert(ref < numSlots() && slots_[ref].alive);
        return slots_[ref].flit;
    }

    /** Slot `ref` currently holds a live flit. */
    bool alive(FlitRef ref) const
    {
        return ref < numSlots() && slots_[ref].alive;
    }

    /** Flits currently live (in some queue between source and sink). */
    std::size_t
    liveCount() const
    {
        long long n = 0;
        for (const auto &sh : shards_)
            n += sh.live;
        pdr_assert(n >= 0);
        return std::size_t(n);
    }

    /** Slots ever created (the allocation high-water mark). */
    std::size_t capacity() const { return numSlots(); }

  private:
    /**
     * Slab size via its atomic mirror: readable while another worker
     * grows the slab (vector::size() reads the same memory growth
     * writes).  Any ref a thread legitimately holds was published to
     * it via the cycle barrier, which also ordered the corresponding
     * numSlots_ store, so relaxed loads suffice.
     */
    std::uint32_t
    numSlots() const
    {
        return numSlots_.load(std::memory_order_relaxed);
    }
    /**
     * One single-owner freelist.  `live` is a signed delta (a slot
     * allocated in shard a and freed into shard b counts +1/-1); only
     * the sum is meaningful.
     */
    struct Shard
    {
        std::vector<FlitRef> freeList;  //!< LIFO for cache-warm reuse.
        long long live = 0;
    };

    /** Spill threshold / transfer batch for sharded freelists. */
    static constexpr std::size_t kSpillAt = 512;
    static constexpr std::size_t kBatch = 128;

    /** One pooled flit plus its liveness flag (64 bytes), so get() and
     *  its liveness check read one contiguous slot. */
    struct Slot
    {
        Flit flit;
        bool alive = false;
    };

    std::vector<Slot> slots_;
    std::atomic<std::uint32_t> numSlots_{0};    //!< == slots_.size().
    std::vector<Shard> shards_;     //!< >= 1 entries; [0] is serial.
    std::vector<FlitRef> globalFree_;   //!< Guarded by growMutex_.
    std::mutex growMutex_;          //!< Guards growth + globalFree_.
};

/**
 * Fixed-capacity FIFO of flit handles (a router input buffer).  Each
 * slot also holds its flit's eligible cycle -- the earliest tick at
 * which the flit may take its next pipeline action -- so the router's
 * allocation scans and nextWake read a front flit's timing from the
 * FIFO's own storage instead of dereferencing the pool.
 */
class FlitFifo
{
  public:
    /** Set the capacity; clears the queue.  Allocate-once. */
    void
    init(int capacity)
    {
        pdr_assert(capacity >= 1);
        ring_ = std::make_unique<Slot[]>(std::size_t(capacity));
        cap_ = std::uint32_t(capacity);
        head_ = 0;
        size_ = 0;
    }

    bool empty() const { return size_ == 0; }
    int size() const { return int(size_); }
    int capacity() const { return int(cap_); }

    FlitRef
    front() const
    {
        pdr_assert(size_ > 0);
        return ring_[head_].ref;
    }

    /** Eligible cycle of the front flit. */
    Cycle
    frontEligible() const
    {
        pdr_assert(size_ > 0);
        return ring_[head_].eligible;
    }

    /** Append `ref`, which may act from cycle `eligible` on. */
    void
    push(FlitRef ref, Cycle eligible)
    {
        pdr_assert(size_ < cap_);
        std::uint32_t tail = head_ + size_;
        if (tail >= cap_)
            tail -= cap_;
        ring_[tail] = Slot{eligible, ref};
        size_++;
    }

    FlitRef
    pop()
    {
        pdr_assert(size_ > 0);
        FlitRef ref = ring_[head_].ref;
        head_++;
        if (head_ >= cap_)
            head_ = 0;
        size_--;
        return ref;
    }

    /** Visit every queued handle, front to back (read-only; used by
     *  the invariant auditor to enumerate buffered flits). */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        std::uint32_t i = head_;
        for (std::uint32_t n = 0; n < size_; n++) {
            fn(ring_[i].ref);
            i++;
            if (i >= cap_)
                i = 0;
        }
    }

  private:
    struct Slot
    {
        Cycle eligible = 0;
        FlitRef ref = NullFlit;
    };

    // Pointer plus 32-bit indices keep the FIFO header at 24 bytes, so
    // a router's per-VC state fits in 64 bytes.
    std::unique_ptr<Slot[]> ring_;
    std::uint32_t cap_ = 0;
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
};

} // namespace pdr::sim

#endif // PDR_SIM_FLIT_POOL_HH
