#include "mem/tlb.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"

namespace limit::mem {

Tlb::Tlb(const TlbGeometry &geometry) : geometry_(geometry)
{
    fatal_if(geometry.entries == 0, "TLB with zero entries");
    fatal_if(geometry.pageBytes == 0 ||
                 !std::has_single_bit(
                     static_cast<std::uint64_t>(geometry.pageBytes)),
             "TLB page size must be a power of two");
    pageShift_ = static_cast<unsigned>(std::countr_zero(
        static_cast<std::uint64_t>(geometry.pageBytes)));
    slots_.resize(geometry.entries);
    // At most an eighth of the buckets are ever full. Every probe
    // meets an empty bucket, and almost all end at their first one:
    // at half load the probe loops' data-dependent exits made a TLB
    // miss about three times as costly on random page streams.
    const std::uint64_t buckets =
        std::bit_ceil(8 * static_cast<std::uint64_t>(geometry.entries));
    index_.assign(buckets, {noPage, 0});
    indexMask_ = static_cast<unsigned>(buckets - 1);
    indexShift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
}

void
Tlb::install(std::uint64_t page)
{
    unsigned slot;
    if (used_ < geometry_.entries) {
        slot = used_++;
        if (slot == 0) {
            head_ = tail_ = slot;
        } else {
            slots_[slot].next = head_;
            slots_[head_].prev = slot;
            head_ = slot;
        }
    } else {
        // Recycle the least recently used slot.
        slot = tail_;
        if (slots_[slot].page == lastPage_)
            lastPage_ = noPage;
        indexErase(slots_[slot].page);
        touch(slot);
    }
    slots_[slot].page = page;
    indexInsert(page, slot);
}

void
Tlb::indexInsert(std::uint64_t page, unsigned slot)
{
    unsigned b = home(page);
    while (index_[b].page != noPage)
        b = (b + 1) & indexMask_;
    index_[b] = {page, slot};
}

void
Tlb::indexErase(std::uint64_t page)
{
    unsigned hole = home(page);
    while (index_[hole].page != page)
        hole = (hole + 1) & indexMask_;
    // Backward-shift deletion: walk the rest of the cluster and move
    // each entry whose probe sequence passes the hole back into it,
    // so no lookup ever stops early at a gap.
    for (unsigned b = (hole + 1) & indexMask_;
         index_[b].page != noPage; b = (b + 1) & indexMask_) {
        const unsigned from_home = (b - home(index_[b].page)) & indexMask_;
        const unsigned from_hole = (b - hole) & indexMask_;
        if (from_home >= from_hole) {
            index_[hole] = index_[b];
            hole = b;
        }
    }
    index_[hole].page = noPage;
}

} // namespace limit::mem
