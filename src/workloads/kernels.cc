#include "workloads/kernels.hh"

#include "base/logging.hh"

namespace limit::workloads {

ComputeKernel::ComputeKernel(os::Kernel &kernel, KernelKind kind,
                             std::uint64_t working_set_bytes,
                             std::uint64_t seed)
    : kernel_(kernel), kind_(kind), seed_(seed)
{
    fatal_if(working_set_bytes < 64 * 1024, "working set too small");
    data_ = {addressSpace_.allocate(working_set_bytes, 4096),
             working_set_bytes};
    hot_ = {addressSpace_.allocate(32 * 1024, 4096), 32 * 1024};
}

void
ComputeKernel::spawn()
{
    tid_ = kernel_.spawn(
        std::string(kernelName(kind_)),
        [this](sim::Guest &g) -> sim::Task<void> { co_await body(g); });
}

sim::Task<void>
ComputeKernel::body(sim::Guest &g)
{
    switch (kind_) {
      case KernelKind::Stream: {
        sim::ComputeProfile p;
        p.branchFrac = 0.06;
        p.mispredictRate = 0.005;
        mem::StrideStream in(data_, 8);
        mem::StrideStream out(data_, 8);
        out.next(); // offset the two streams
        g.declareLoop({{sim::OpKind::Load},
                       {sim::OpKind::Store},
                       {sim::OpKind::Compute, 6, p}});
        while (!g.shouldStop()) {
            for (int i = 0; i < 64; ++i) {
                const sim::Addr a = in.next();
                co_await g.load(a);
                const sim::Addr b = out.next();
                co_await g.store(b);
                co_await g.compute(6, p);
            }
            ++iterations_;
        }
        co_return;
      }

      case KernelKind::PtrChase: {
        mem::PointerChaseStream chase(data_, Rng(seed_));
        g.declareLoop({{sim::OpKind::Load}, {sim::OpKind::Compute, 4}});
        while (!g.shouldStop()) {
            for (int i = 0; i < 64; ++i) {
                const sim::Addr a = chase.next();
                co_await g.load(a);
                co_await g.compute(4);
            }
            ++iterations_;
        }
        co_return;
      }

      case KernelKind::MatMul: {
        sim::ComputeProfile p;
        p.branchFrac = 0.04;
        p.mispredictRate = 0.002;
        mem::StrideStream tile(hot_, 64);
        g.declareLoop({{sim::OpKind::Load}, {sim::OpKind::Compute, 120, p}});
        while (!g.shouldStop()) {
            for (int i = 0; i < 16; ++i) {
                const sim::Addr a = tile.next();
                co_await g.load(a);
                co_await g.compute(120, p); // FMA-dense inner block
            }
            ++iterations_;
        }
        co_return;
      }

      case KernelKind::SortLike: {
        sim::ComputeProfile p;
        p.branchFrac = 0.28;
        p.mispredictRate = 0.12; // data-dependent compares
        mem::UniformStream pick(data_, Rng(seed_));
        g.declareLoop({{sim::OpKind::Load}, {sim::OpKind::Compute, 18, p}});
        while (!g.shouldStop()) {
            for (int i = 0; i < 48; ++i) {
                const sim::Addr a = pick.next();
                co_await g.load(a);
                co_await g.compute(18, p);
            }
            ++iterations_;
        }
        co_return;
      }
    }
    panic("unknown kernel kind");
}

} // namespace limit::workloads
