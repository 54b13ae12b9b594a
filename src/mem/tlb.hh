/**
 * @file
 * Fully associative data TLB model.
 */

#ifndef LIMIT_MEM_TLB_HH
#define LIMIT_MEM_TLB_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace limit::mem {

/** TLB shape. */
struct TlbGeometry
{
    unsigned entries = 64;
    unsigned pageBytes = 4096;
};

/**
 * Fully associative, true-LRU TLB.
 *
 * Every array is sized at construction, so translating an address
 * never allocates:
 *  - `slots_` holds one page per entry, threaded into a doubly linked
 *    recency list by slot index (head = most recent, tail = least).
 *    A hit moves its slot to the head and a miss recycles the tail,
 *    both in O(1).
 *  - `index_` maps page -> slot by open addressing with linear
 *    probing; it has at least eight buckets per entry, and deletes
 *    shift the rest of the cluster back instead of leaving
 *    tombstones, so probes stay short without rehashing.
 * A one-entry most-recent-page filter (`lastPage_`) skips the index
 * on same-page runs, the common case for streaming accesses. It is
 * set by hits only; a miss installs its page without updating it.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbGeometry &geometry);

    /**
     * Translate the page containing `addr`: on a hit make it the most
     * recent entry, on a miss install it in place of the least recent
     * one. Inline: runs once per full memory access.
     * @return true on hit.
     */
    bool
    access(sim::Addr addr)
    {
        const std::uint64_t page = pageOf(addr);
        if (page == lastPage_) {
            touch(lastSlot_);
            ++hits_;
            return true;
        }
        for (unsigned b = home(page);; b = (b + 1) & indexMask_) {
            if (index_[b].page == page) {
                touch(index_[b].slot);
                lastPage_ = page;
                lastSlot_ = index_[b].slot;
                ++hits_;
                return true;
            }
            if (index_[b].page == noPage)
                break;
        }
        ++misses_;
        install(page);
        return false;
    }

    /**
     * Pure probe: true iff `addr` is a same-page repeat that access()
     * would hit via the most-recent-page filter. Commits nothing;
     * pair with creditLastPageHit() once the overall fast path is
     * known to apply (see CacheHierarchy::tryFastAccess).
     */
    bool
    peekLastPage(sim::Addr addr) const
    {
        return pageOf(addr) == lastPage_;
    }

    /** Commit the hit a successful peekLastPage() promised: identical
     *  state transition to access()'s most-recent-page branch. */
    void
    creditLastPageHit()
    {
        touch(lastSlot_);
        ++hits_;
    }

    /**
     * Bulk form of creditLastPageHit() for superblock replay commits:
     * identical final state to `n` successive credits, since every
     * touch after the first finds the slot already at the head.
     */
    void
    creditLastPageHits(std::uint64_t n)
    {
        touch(lastSlot_);
        hits_ += n;
    }

    /** @name Raw probe state exposed via sim::FastPeekView @{ */
    const std::uint64_t *lastPagePtr() const { return &lastPage_; }
    unsigned pageShiftBits() const { return pageShift_; }
    /** @} */

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    unsigned pageBytes() const { return geometry_.pageBytes; }

  private:
    std::uint64_t pageOf(sim::Addr addr) const
    {
        return addr >> pageShift_;
    }

    /** Fibonacci hash of `page` onto the index's bucket range. */
    unsigned home(std::uint64_t page) const
    {
        return static_cast<unsigned>(
            (page * 0x9e3779b97f4a7c15ull) >> indexShift_);
    }

    /** Move `slot` to the head of the recency list. */
    void
    touch(unsigned slot)
    {
        if (slot == head_)
            return;
        Slot &s = slots_[slot];
        slots_[s.prev].next = s.next;
        if (slot == tail_)
            tail_ = s.prev;
        else
            slots_[s.next].prev = s.prev;
        s.next = head_;
        slots_[head_].prev = slot;
        head_ = slot;
    }

    /** Miss path: take a free slot or the tail's, make it the head. */
    void install(std::uint64_t page);
    void indexInsert(std::uint64_t page, unsigned slot);
    void indexErase(std::uint64_t page);

    /** Marks an empty bucket and an invalid lastPage_. */
    static constexpr std::uint64_t noPage = ~0ull;

    struct Slot
    {
        std::uint64_t page;
        unsigned prev;
        unsigned next;
    };

    struct Bucket
    {
        std::uint64_t page;
        unsigned slot;
    };

    TlbGeometry geometry_;
    unsigned pageShift_ = 0;
    std::vector<Slot> slots_;
    /** Slots in use; slots [used_, entries) are free. */
    unsigned used_ = 0;
    unsigned head_ = 0;
    unsigned tail_ = 0;
    std::vector<Bucket> index_;
    unsigned indexMask_ = 0;
    /** 64 - log2(index_.size()): home() keeps the hash's top bits. */
    unsigned indexShift_ = 0;
    /** Most-recently-hit page and its slot (noPage = invalid). */
    std::uint64_t lastPage_ = noPage;
    unsigned lastSlot_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace limit::mem

#endif // LIMIT_MEM_TLB_HH
