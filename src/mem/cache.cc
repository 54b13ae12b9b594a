#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"

namespace limit::mem {

Cache::Cache(std::string name, const CacheGeometry &geometry)
    : name_(std::move(name)), geometry_(geometry)
{
    fatal_if(geometry.lineBytes == 0 ||
                 !std::has_single_bit(
                     static_cast<std::uint64_t>(geometry.lineBytes)),
             "cache '", name_, "': line size must be a power of two");
    fatal_if(geometry.ways == 0, "cache '", name_, "': zero ways");
    const std::uint64_t lines = geometry.sizeBytes / geometry.lineBytes;
    fatal_if(lines == 0 || lines % geometry.ways != 0,
             "cache '", name_, "': size/ways/line geometry inconsistent");
    numSets_ = static_cast<unsigned>(lines / geometry.ways);
    fatal_if(!std::has_single_bit(static_cast<std::uint64_t>(numSets_)),
             "cache '", name_, "': set count must be a power of two");
    lineShift_ = static_cast<unsigned>(std::countr_zero(
        static_cast<std::uint64_t>(geometry.lineBytes)));
    lines_.assign(static_cast<std::size_t>(numSets_) * geometry.ways,
                  emptyLine);
}

bool
Cache::contains(sim::Addr addr) const
{
    const std::uint64_t line = lineOf(addr);
    const std::uint64_t *way = setBase(line);
    return std::find(way, way + geometry_.ways, line) !=
           way + geometry_.ways;
}

bool
Cache::fill(sim::Addr addr)
{
    if (contains(addr))
        return false;
    const std::uint64_t line = lineOf(addr);
    std::uint64_t *way = setBase(line);
    // Shift everything down one way; LRU falls off the end.
    std::copy_backward(way, way + geometry_.ways - 1,
                       way + geometry_.ways);
    way[0] = line;
    return true;
}

} // namespace limit::mem
