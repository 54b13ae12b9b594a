#include "mem/hierarchy.hh"

#include "base/logging.hh"

namespace limit::mem {

CacheHierarchy::CacheHierarchy(unsigned num_cores,
                               const HierarchyConfig &config)
    : config_(config)
{
    fatal_if(num_cores == 0, "hierarchy needs at least one core");
    for (unsigned i = 0; i < num_cores; ++i) {
        l1d_.push_back(std::make_unique<Cache>(
            "l1d" + std::to_string(i), config.l1d));
        l2_.push_back(std::make_unique<Cache>(
            "l2." + std::to_string(i), config.l2));
        dtlb_.push_back(std::make_unique<Tlb>(config.dtlb));
    }
    llc_ = std::make_unique<Cache>("llc", config.llc);
    for (unsigned i = 0; i < num_cores; ++i)
        hot_.push_back({dtlb_[i].get(), l1d_[i].get()});
}

Cache &
CacheHierarchy::l1d(sim::CoreId core)
{
    panic_if(core >= l1d_.size(), "bad core id ", core);
    return *l1d_[core];
}

Cache &
CacheHierarchy::l2(sim::CoreId core)
{
    panic_if(core >= l2_.size(), "bad core id ", core);
    return *l2_[core];
}

Tlb &
CacheHierarchy::dtlb(sim::CoreId core)
{
    panic_if(core >= dtlb_.size(), "bad core id ", core);
    return *dtlb_[core];
}

sim::Tick
CacheHierarchy::access(sim::CoreId core, sim::Addr addr, bool write,
                       bool atomic, sim::EventDeltas &deltas)
{
    panic_if(core >= l1d_.size(), "bad core id ", core);
    sim::Tick latency = 0;

    // Address translation first. Each level's access() also installs
    // the line on a miss, so the walk down is the fill on the way back.
    if (!dtlb_[core]->access(addr)) {
        latency += HierarchyConfig::tlbMissPenalty;
        deltas[sim::EventType::DTlbMiss] += 1;
    }

    // Data lookup: L1 -> L2 -> LLC -> memory.
    if (l1d_[core]->access(addr)) {
        latency += config_.l1Latency;
    } else {
        deltas[sim::EventType::L1DMiss] += 1;
        if (l2_[core]->access(addr)) {
            latency += config_.l2Latency;
        } else {
            deltas[sim::EventType::L2Miss] += 1;
            if (llc_->access(addr)) {
                latency += HierarchyConfig::llcLatency;
            } else {
                deltas[sim::EventType::LLCMiss] += 1;
                latency += config_.memLatency;
            }
        }

        if (config_.nextLinePrefetch) {
            const sim::Addr next = addr + config_.l2.lineBytes;
            if (l2_[core]->fill(next)) {
                llc_->fill(next);
                ++prefetches_;
            }
        }
    }

    if (atomic) {
        const std::uint64_t line = addr / config_.l1d.lineBytes;
        auto it = lastAtomicWriter_.find(line);
        const bool remote =
            it != lastAtomicWriter_.end() && it->second != core;
        latency += remote ? HierarchyConfig::atomicRemoteExtra
                          : HierarchyConfig::atomicLocalExtra;
        if (write)
            lastAtomicWriter_[line] = core;
    }

    (void)write;
    return latency;
}

std::vector<std::pair<const char *, std::uint64_t>>
configFields(const HierarchyConfig &config)
{
    return {
        {"l1d_size_bytes", config.l1d.sizeBytes},
        {"l1d_ways", config.l1d.ways},
        {"l1d_line_bytes", config.l1d.lineBytes},
        {"l2_size_bytes", config.l2.sizeBytes},
        {"l2_ways", config.l2.ways},
        {"l2_line_bytes", config.l2.lineBytes},
        {"llc_size_bytes", config.llc.sizeBytes},
        {"llc_ways", config.llc.ways},
        {"llc_line_bytes", config.llc.lineBytes},
        {"dtlb_entries", config.dtlb.entries},
        {"dtlb_page_bytes", config.dtlb.pageBytes},
        {"l1_latency", config.l1Latency},
        {"l2_latency", config.l2Latency},
        {"llc_latency", HierarchyConfig::llcLatency},
        {"mem_latency", config.memLatency},
        {"tlb_miss_penalty", HierarchyConfig::tlbMissPenalty},
        {"atomic_local_extra", HierarchyConfig::atomicLocalExtra},
        {"atomic_remote_extra", HierarchyConfig::atomicRemoteExtra},
        {"next_line_prefetch", config.nextLinePrefetch ? 1u : 0u},
    };
}

} // namespace limit::mem
