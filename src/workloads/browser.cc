#include "workloads/browser.hh"

#include "base/logging.hh"
#include "os/sysno.hh"

namespace limit::workloads {

BrowserLoop::BrowserLoop(sim::Machine &machine, os::Kernel &kernel,
                         const BrowserConfig &config, std::uint64_t seed)
    : machine_(machine), kernel_(kernel), config_(config), rng_(seed)
{
    domRegion_ = {
        addressSpace_.allocate(BrowserConfig::domNodes * 64, 4096),
        BrowserConfig::domNodes * 64};
    nurseryRegion_ = {
        addressSpace_.allocate(BrowserConfig::nurseryBytes, 4096),
        BrowserConfig::nurseryBytes};
    framebufferRegion_ = {addressSpace_.allocate(2 * 1024 * 1024, 4096),
                          2 * 1024 * 1024};
    imageRegion_ = {addressSpace_.allocate(1 * 1024 * 1024, 4096),
                    1 * 1024 * 1024};

    auto &regions = machine.regions();
    for (unsigned i = 0; i < numBrowserEvents; ++i) {
        handlerRegions_[i] = regions.intern(
            std::string("browser.") +
            browserEventName(static_cast<BrowserEvent>(i)));
    }
    queueMutex_ = std::make_unique<sync::Mutex>(
        addressSpace_.allocate(64, 64));
    queueCv_ = std::make_unique<sync::CondVar>(
        addressSpace_.allocate(64, 64));
    imageLock_ = std::make_unique<InstrumentedMutex>(
        addressSpace_.allocate(64, 64), "browser.image-cache", regions);
}

void
BrowserLoop::attachProfiler(pec::RegionProfiler *profiler)
{
    profiler_ = profiler;
    imageLock_->attachProfiler(profiler);
}

void
BrowserLoop::attachSyncProfile(prof::SyncProfile *sync)
{
    if (sync != nullptr)
        siteDecode_ = sync->internSite("BrowserLoop::helperBody/decode-insert");
    imageLock_->attachSyncProfile(sync);
}

void
BrowserLoop::spawn()
{
    mainTid_ = kernel_.spawn(
        "browser-main", [this](sim::Guest &g) -> sim::Task<void> {
            co_await mainBody(g);
        });
    for (unsigned i = 0; i < BrowserConfig::helpers; ++i) {
        tids_.push_back(kernel_.spawn(
            "browser-decode" + std::to_string(i),
            [this](sim::Guest &g) -> sim::Task<void> {
                co_await helperBody(g);
            }));
    }
}

std::uint64_t
BrowserLoop::totalEvents() const
{
    std::uint64_t total = 0;
    for (auto h : handled_)
        total += h;
    return total;
}

BrowserEvent
BrowserLoop::pickEvent(Rng &rng) const
{
    unsigned total = 0;
    for (auto w : BrowserConfig::weights)
        total += w;
    std::uint64_t draw = rng.below(total);
    for (unsigned i = 0; i < numBrowserEvents; ++i) {
        if (draw < BrowserConfig::weights[i])
            return static_cast<BrowserEvent>(i);
        draw -= BrowserConfig::weights[i];
    }
    return BrowserEvent::Input;
}

sim::Task<void>
BrowserLoop::mainBody(sim::Guest &g)
{
    while (!g.shouldStop()) {
        // Idle until work arrives, then drain the burst that has
        // accumulated (browsers process batches per wakeup).
        co_await g.syscall(os::sysSleep, {BrowserConfig::idleGap, 0, 0, 0});
        const unsigned burst =
            6 + static_cast<unsigned>(g.rng().below(20));
        for (unsigned i = 0; i < burst; ++i) {
            if (g.shouldStop())
                break;
            const BrowserEvent e = pickEvent(g.rng());
            const sim::RegionId region =
                handlerRegions_[static_cast<unsigned>(e)];
            if (profiler_)
                co_await profiler_->enter(g, region);
            else if (config_.markRegions)
                co_await g.regionEnter(region);
            co_await handleEvent(g, e);
            if (profiler_)
                co_await profiler_->exit(g, region);
            else if (config_.markRegions)
                co_await g.regionExit();
            ++handled_[static_cast<unsigned>(e)];
        }
    }
    // Release any helper parked on an empty decode queue.
    co_await queueCv_->broadcast(g);
}

sim::Task<void>
BrowserLoop::handleEvent(sim::Guest &g, BrowserEvent e)
{
    switch (e) {
      case BrowserEvent::Input: {
        // Hit-test a handful of DOM nodes, update focus state.
        Rng &rng = g.rng();
        for (int i = 0; i < 3; ++i) {
            const std::uint64_t node = rng.below(BrowserConfig::domNodes);
            co_await g.load(domRegion_.base + node * 64);
        }
        co_await g.compute(180);
        break;
      }
      case BrowserEvent::Timer:
        co_await g.compute(320);
        break;
      case BrowserEvent::Script:
        co_await scriptHandler(g);
        break;
      case BrowserEvent::Layout:
        co_await layoutHandler(g);
        break;
      case BrowserEvent::Paint:
        co_await paintHandler(g);
        break;
      default:
        panic("unknown browser event");
    }
}

sim::Task<void>
BrowserLoop::scriptHandler(sim::Guest &g)
{
    Rng &rng = g.rng();
    // JS-flavoured execution: branchy, allocation-heavy.
    sim::ComputeProfile js;
    js.branchFrac = 0.24;
    js.mispredictRate = 0.06;

    const unsigned allocs = 8 + static_cast<unsigned>(rng.below(24));
    for (unsigned i = 0; i < allocs; ++i) {
        co_await g.compute(60, js);
        // Bump-allocate a 64B object in the nursery.
        const sim::Addr obj =
            nurseryRegion_.base +
            (nurseryFill_ * 64) % nurseryRegion_.bytes;
        ++nurseryFill_;
        co_await g.store(obj);
        if (nurseryFill_ % BrowserConfig::allocsPerGc == 0) {
            // Minor GC: trace the live nursery (dependent walk).
            ++gcs_;
            mem::PointerChaseStream chase(nurseryRegion_,
                                          g.rng().fork());
            const unsigned live =
                static_cast<unsigned>(nurseryRegion_.bytes / 64 / 8);
            for (unsigned n = 0; n < live; ++n) {
                const sim::Addr a = chase.next();
                co_await g.load(a);
                co_await g.compute(6);
            }
        }
    }
}

sim::Task<void>
BrowserLoop::layoutHandler(sim::Guest &g)
{
    Rng &rng = g.rng();
    // Reflow a subtree: walk 64-256 DOM nodes with sibling locality.
    const std::uint64_t start = rng.below(BrowserConfig::domNodes);
    const unsigned span = 64 + static_cast<unsigned>(rng.below(192));
    for (unsigned i = 0; i < span; ++i) {
        const std::uint64_t node = (start + i) % BrowserConfig::domNodes;
        co_await g.load(domRegion_.base + node * 64);
        co_await g.compute(22); // style resolution + box math
    }
    co_await g.compute(400); // finalize geometry
}

sim::Task<void>
BrowserLoop::paintHandler(sim::Guest &g)
{
    // Rasterize a band of the framebuffer: streaming stores.
    for (unsigned i = 0; i < 96; ++i) {
        const sim::Addr px =
            framebufferRegion_.base +
            (fbOffset_ % framebufferRegion_.bytes);
        fbOffset_ += 8;
        co_await g.store(px);
        co_await g.compute(8);
    }
    if (g.rng().chance(BrowserConfig::decodeProb)) {
        // Queue an image decode for the helper pool.
        co_await queueMutex_->lock(g);
        decodeQueue_.push_back(++queued_);
        co_await queueMutex_->unlock(g);
        co_await queueCv_->signal(g);
    }
}

sim::Task<void>
BrowserLoop::helperBody(sim::Guest &g)
{
    for (;;) {
        bool have_job = false;

        co_await queueMutex_->lock(g);
        for (;;) {
            if (!decodeQueue_.empty()) {
                decodeQueue_.pop_front();
                have_job = true;
                break;
            }
            if (g.shouldStop())
                break;
            co_await queueCv_->wait(g, *queueMutex_);
        }
        co_await queueMutex_->unlock(g);

        if (!have_job) {
            co_await queueCv_->broadcast(g);
            co_return;
        }

        // Decode: streaming reads over the compressed image, compute-
        // heavy inverse transform, then publish under the cache lock.
        mem::StrideStream stream(imageRegion_, 8);
        for (unsigned i = 0; i < 512; ++i) {
            const sim::Addr a = stream.next();
            co_await g.load(a);
            co_await g.compute(14);
        }
        co_await imageLock_->lock(g, siteDecode_);
        co_await g.store(imageRegion_.base);
        co_await g.compute(90); // insert into the decoded-image cache
        co_await imageLock_->unlock(g);
        ++decodes_;
    }
}

} // namespace limit::workloads
