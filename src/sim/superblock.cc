#include "sim/superblock.hh"

#include "sim/guest.hh"

namespace limit::sim {

Superblock::Superblock(std::span<const LoopOp> body,
                       const FastPeekView &mem)
    : ops(body.size()), memLat(mem.latency), memMaxLat(mem.maxLatency)
{
    std::uint64_t branchesUb = 0;
    for (std::size_t i = 0; i < body.size(); ++i) {
        const LoopOp &op = body[i];
        MicroOp &m = ops[i];
        m.kind = op.kind;
        m.prefixBase = iterBase;
        m.prefixInstrs = iterInstrs;
        m.prefixLoads = iterLoads;
        m.prefixStores = iterStores;
        if (op.kind == OpKind::Compute) {
            m.instrs = op.instrs;
            m.profile = op.profile;
            m.branchStep =
                static_cast<double>(op.instrs) * op.profile.branchFrac;
            // Mirror of Cpu::execCompute: one cycle per instruction.
            m.baseCost = op.instrs;
            iterInstrs += op.instrs;
            if (op.profile.branchFrac != 0.0) {
                // branches = floor(branchStep + residue), residue < 1.
                branchesUb += static_cast<std::uint64_t>(m.branchStep) + 1;
            }
        } else {
            m.baseCost = memLat;
            iterInstrs += 1;
            ++numMemOps;
            if (op.kind == OpKind::Load)
                iterLoads += 1;
            else
                iterStores += 1;
        }
        iterBase += m.baseCost;
    }
    panic_if(numMemOps > 0 && memMaxLat < memLat,
             "memory model's worst-case latency is below its fast path");
    maxIterCycles = iterBase - numMemOps * memLat + numMemOps * memMaxLat +
                    branchesUb * mispredictPenalty;
    using E = EventType;
    iterUb[static_cast<unsigned>(E::Cycles)] = maxIterCycles;
    iterUb[static_cast<unsigned>(E::Instructions)] = iterInstrs;
    iterUb[static_cast<unsigned>(E::Loads)] = iterLoads;
    iterUb[static_cast<unsigned>(E::Stores)] = iterStores;
    iterUb[static_cast<unsigned>(E::Branches)] = branchesUb;
    iterUb[static_cast<unsigned>(E::BranchMisses)] = branchesUb;
    for (E e : {E::DTlbMiss, E::L1DMiss, E::L2Miss, E::LLCMiss})
        iterUb[static_cast<unsigned>(e)] = numMemOps;
}

} // namespace limit::sim
