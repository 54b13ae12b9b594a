/**
 * @file
 * A single set-associative cache (or TLB) array with LRU replacement.
 */

#ifndef LIMIT_MEM_CACHE_HH
#define LIMIT_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace limit::mem {

/** Geometry of one cache level. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    unsigned lineBytes = 64;
};

/**
 * Tag array with true-LRU replacement.
 *
 * Tracks hit/miss counts; data is not stored (the simulator keeps
 * guest values in host objects), only presence.
 */
class Cache
{
  public:
    Cache(std::string name, const CacheGeometry &geometry);

    const std::string &name() const { return name_; }
    unsigned numSets() const { return numSets_; }
    unsigned ways() const { return geometry_.ways; }
    unsigned lineBytes() const { return geometry_.lineBytes; }

    /**
     * Look up `addr` and make its line the most recent in its set,
     * installing it in place of the LRU way on a miss. Inline: runs up
     * to three times (L1/L2/LLC) per full memory access.
     * @return true on hit.
     */
    bool
    access(sim::Addr addr)
    {
        const std::uint64_t line = lineOf(addr);
        std::uint64_t *way = setBase(line);
        // MRU way first: repeated touches to the hot line need no LRU
        // shuffle at all, and this is the overwhelmingly common case.
        if (way[0] == line) {
            ++hits_;
            return true;
        }
        // One walk does both lookup and refill: rotate the set down a
        // way at a time with the line entering at the MRU way, until
        // its old copy (a hit) or the LRU way (a miss) falls out.
        std::uint64_t out = std::exchange(way[0], line);
        for (unsigned i = 1; i < geometry_.ways; ++i) {
            out = std::exchange(way[i], out);
            if (out == line) {
                ++hits_;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    /**
     * Install the line containing `addr` as the most recent in its
     * set, evicting the LRU way, unless it is already present: a
     * resident line keeps its place. Counts neither hit nor miss (the
     * prefetcher's fill path).
     * @return true if the line was installed.
     */
    bool fill(sim::Addr addr);

    /**
     * Pure probe: true iff `addr` sits in the MRU way of its set — the
     * case where access() would hit without any LRU shuffle. Commits
     * nothing; pair with creditMruHit() once the overall fast path is
     * known to apply (see CacheHierarchy::tryFastAccess).
     */
    bool
    peekMru(sim::Addr addr) const
    {
        const std::uint64_t line = lineOf(addr);
        return setBase(line)[0] == line;
    }

    /** Commit the hit a successful peekMru() promised: identical
     *  state transition to access() hitting the MRU way. */
    void creditMruHit() { ++hits_; }

    /** Bulk form of creditMruHit() for superblock replay commits:
     *  an MRU hit touches nothing but the hit counter. */
    void creditMruHits(std::uint64_t n) { hits_ += n; }

    /** @name Raw probe state exposed via sim::FastPeekView @{ */
    const std::uint64_t *tagArrayPtr() const { return lines_.data(); }
    unsigned lineShiftBits() const { return lineShift_; }
    std::uint64_t setIndexMask() const { return numSets_ - 1; }
    /** @} */

    /** Probe without changing replacement state (tests/inspection). */
    bool contains(sim::Addr addr) const;

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    std::uint64_t lineOf(sim::Addr addr) const
    {
        return addr >> lineShift_;
    }

    /** First (MRU) way of the set `line` maps to. */
    std::uint64_t *setBase(std::uint64_t line)
    {
        return &lines_[(line & (numSets_ - 1)) * geometry_.ways];
    }
    const std::uint64_t *setBase(std::uint64_t line) const
    {
        return &lines_[(line & (numSets_ - 1)) * geometry_.ways];
    }

    std::string name_;
    CacheGeometry geometry_;
    unsigned numSets_;
    /** log2(lineBytes): line extraction is a shift, not a division. */
    unsigned lineShift_;
    /**
     * lines_[set * ways + i] holds line numbers in LRU order (way 0
     * is most recent); emptyLine marks an invalid way.
     */
    std::vector<std::uint64_t> lines_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;

    static constexpr std::uint64_t emptyLine = ~0ull;
};

} // namespace limit::mem

#endif // LIMIT_MEM_CACHE_HH
