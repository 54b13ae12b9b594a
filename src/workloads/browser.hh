/**
 * @file
 * BrowserLoop: a Firefox-class synthetic browser.
 *
 * A main thread services a stream of heterogeneous, mostly very short
 * event handlers (input, timers, JS execution with nursery allocation
 * and minor GC, layout, paint) while a small pool of helper threads
 * decodes images from a work queue and shares an image cache. Short
 * heterogeneous handlers are exactly the behaviour the paper says is
 * invisible to sampling profilers but trivially characterized with
 * precise counting.
 */

#ifndef LIMIT_WORKLOADS_BROWSER_HH
#define LIMIT_WORKLOADS_BROWSER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "mem/address_stream.hh"
#include "os/kernel.hh"
#include "sync/condvar.hh"
#include "workloads/instrumented_mutex.hh"

namespace limit::workloads {

/** Event categories the main loop dispatches. */
enum class BrowserEvent : std::uint8_t {
    Input = 0,
    Timer,
    Script,
    Layout,
    Paint,
    NumKinds,
};

inline constexpr unsigned numBrowserEvents =
    static_cast<unsigned>(BrowserEvent::NumKinds);

/** Display name for reports. */
constexpr const char *
browserEventName(BrowserEvent e)
{
    switch (e) {
      case BrowserEvent::Input: return "input";
      case BrowserEvent::Timer: return "timer";
      case BrowserEvent::Script: return "script";
      case BrowserEvent::Layout: return "layout";
      case BrowserEvent::Paint: return "paint";
      default: return "?";
    }
}

/** Browser parameters. */
struct BrowserConfig
{
    /**
     * Push/pop handler regions even without an attached profiler so a
     * sampling profiler can attribute to them (comparison studies).
     */
    bool markRegions = false;

    /** @name Fixed by the model @{ */
    static constexpr unsigned helpers = 2;
    /** Relative weights of the event mix (index = BrowserEvent). */
    static constexpr std::array<unsigned, numBrowserEvents> weights{
        30, 20, 25, 15, 10};
    /** DOM size in nodes (layout working set). */
    static constexpr std::uint64_t domNodes = 1 << 14;
    /** Nursery (young generation) size in bytes. */
    static constexpr std::uint64_t nurseryBytes = 512 * 1024;
    /** Script handler allocations before a minor GC. */
    static constexpr unsigned allocsPerGc = 4096;
    /** Probability a paint event also queues an image decode. */
    static constexpr double decodeProb = 0.25;
    /** Pause between main-loop events (idle waiting), in ticks. */
    static constexpr sim::Tick idleGap = 2'000;
    /** @} */
};

/** The browser: main loop + decode helpers. */
class BrowserLoop
{
  public:
    BrowserLoop(sim::Machine &machine, os::Kernel &kernel,
                const BrowserConfig &config, std::uint64_t seed);

    /** Instrument handlers (regions "browser.<kind>") and locks. */
    void attachProfiler(pec::RegionProfiler *profiler);

    /** Attribute lock traffic per call site into `sync`. */
    void attachSyncProfile(prof::SyncProfile *sync);

    void spawn();

    const BrowserConfig &config() const { return config_; }

    std::uint64_t eventsHandled(BrowserEvent e) const
    {
        return handled_[static_cast<unsigned>(e)];
    }
    std::uint64_t totalEvents() const;
    std::uint64_t decodesDone() const { return decodes_; }
    std::uint64_t minorGcs() const { return gcs_; }

    sim::RegionId handlerRegion(BrowserEvent e) const
    {
        return handlerRegions_[static_cast<unsigned>(e)];
    }
    InstrumentedMutex &imageCacheLock() { return *imageLock_; }

    sim::ThreadId mainTid() const { return mainTid_; }
    const std::vector<sim::ThreadId> &helperTids() const { return tids_; }

  private:
    sim::Task<void> mainBody(sim::Guest &g);
    sim::Task<void> helperBody(sim::Guest &g);
    sim::Task<void> handleEvent(sim::Guest &g, BrowserEvent e);
    sim::Task<void> scriptHandler(sim::Guest &g);
    sim::Task<void> layoutHandler(sim::Guest &g);
    sim::Task<void> paintHandler(sim::Guest &g);
    BrowserEvent pickEvent(Rng &rng) const;

    sim::Machine &machine_;
    os::Kernel &kernel_;
    BrowserConfig config_;
    Rng rng_;
    mem::AddressSpace addressSpace_;

    mem::Region domRegion_;
    mem::Region nurseryRegion_;
    mem::Region framebufferRegion_;
    mem::Region imageRegion_;
    std::uint64_t nurseryFill_ = 0; // allocations since last GC
    std::uint64_t fbOffset_ = 0;

    pec::RegionProfiler *profiler_ = nullptr;
    std::array<sim::RegionId, numBrowserEvents> handlerRegions_{};

    std::unique_ptr<sync::Mutex> queueMutex_; // uninstrumented: condvar
    std::unique_ptr<sync::CondVar> queueCv_;
    std::deque<std::uint64_t> decodeQueue_;
    std::unique_ptr<InstrumentedMutex> imageLock_;

    sim::ThreadId mainTid_ = sim::invalidThread;
    std::vector<sim::ThreadId> tids_;

    std::array<std::uint64_t, numBrowserEvents> handled_{};
    std::uint64_t decodes_ = 0;
    std::uint64_t gcs_ = 0;
    std::uint64_t queued_ = 0;

    prof::CallSiteId siteDecode_ = prof::noCallSite;
};

} // namespace limit::workloads

#endif // LIMIT_WORKLOADS_BROWSER_HH
