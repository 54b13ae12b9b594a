/**
 * @file
 * Superblock replay equivalence tests.
 *
 * Superblock replay (sim/superblock.hh, DESIGN.md "Superblock
 * replay") retires whole declared loop bodies (Guest::declareLoop)
 * with precomputed event-delta prefix sums instead of per-op
 * bookkeeping. Its contract is bit-identity: every scenario here runs
 * batched, where every declared loop replays, and on the per-op
 * reference scheduler, which never replays, and compares the whole
 * observable machine state field by field with the harness
 * tests/test_batch.cc uses (tests/equivalence.hh). A batched run
 * without replay is the same workload left undeclared. The shapes
 * deliberately stress the replay seams: PMI storms splitting replays,
 * counter overflow landing at block boundaries, cache and TLB misses
 * run through the full memory model inside a replay, futex sleeps and
 * wakeups in the middle of a hot loop, wakes that start past the
 * quantum end, fault plans that must fire at the same op regardless
 * of execution mode, and declarations that do not match the loop they
 * name.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "analysis/bundle.hh"
#include "equivalence.hh"
#include "fault/plan.hh"
#include "os/sysno.hh"
#include "pec/pec.hh"
#include "sim/machine.hh"
#include "sim/superblock.hh"
#include "sync/mutex.hh"

namespace limit {
namespace {

using equiv::collect;
using equiv::expectIdentical;
using equiv::Fingerprint;
using fault::FaultSpec;
using fault::Plan;
using fault::PlanController;
using fault::Site;
using sim::EventType;
using sim::Guest;
using sim::OpKind;
using sim::PrivMode;
using sim::Task;

/** The two execution modes every scenario must agree across. */
enum class Mode
{
    Batched, ///< horizon batching, declared loops replayed
    PerOp, ///< per-op reference scheduler
};

analysis::BundleOptions::Builder
builderFor(Mode mode)
{
    analysis::BundleOptions::Builder b;
    b.batched(mode == Mode::Batched);
    return b;
}

/**
 * Run one scenario both ways and demand identical state. Replay
 * assertions hold only while batching is on: the CI test job's per-op
 * pass forces every run onto the per-op loop.
 */
template <typename RunFn>
void
twoWay(RunFn run, bool expect_replays = true)
{
    const Fingerprint batched = run(Mode::Batched);
    const Fingerprint perop = run(Mode::PerOp);
    expectIdentical(batched, perop);
    // The batched run must actually have replayed something —
    // otherwise the equivalence above proved nothing about replay.
    if (expect_replays && sim::batchedExecutionDefault()) {
        EXPECT_GT(batched.sb.opsReplayed, 0u) << "scenario never replayed";
    }
    EXPECT_EQ(perop.sb.opsReplayed, 0u);
}

// ---------------------------------------------------------------------
// Hot-loop shape: the bread-and-butter replay case, plus PMC reads
// that interrupt the loop at fixed points
// ---------------------------------------------------------------------

Fingerprint
runHotLoop(Mode mode)
{
    analysis::SimBundle b(builderFor(mode)
                              .cores(2)
                              .quantum(20'000)
                              .seed(31)
                              .build());
    for (unsigned i = 0; i < 3; ++i) {
        b.kernel().spawn(
            "hot" + std::to_string(i),
            [](Guest &g) -> Task<void> {
                const sim::Addr base = 0x100000 + g.tid() * 0x40000;
                sim::ComputeProfile p{
                    .branchFrac = 0.06, .mispredictRate = 0.01};
                g.declareLoop({{OpKind::Load},
                               {OpKind::Store},
                               {OpKind::Compute, 6, p}});
                std::uint64_t sum = 0;
                for (unsigned s = 0; s < 3'000; ++s) {
                    co_await g.load(base + (s % 512) * 8);
                    co_await g.store(base + (s % 512) * 8 + 8);
                    co_await g.compute(6, p);
                    if (s % 256 == 0)
                        sum += co_await g.pmcRead(0);
                }
                (void)sum;
            });
    }
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(SuperblockEquivalence, HotLoopBitIdentical)
{
    twoWay(runHotLoop);
}

// ---------------------------------------------------------------------
// Overflow-storm shape: narrow counters wrap mid-replay, so pending
// PMIs and the no-wrap entry bound must split and refuse replays at
// exactly the right ops
// ---------------------------------------------------------------------

Fingerprint
runPmiStorm(Mode mode)
{
    analysis::SimBundle b(builderFor(mode)
                              .cores(2)
                              .quantum(20'000)
                              .pmuWidth(17) // wraps every ~128K cycles
                              .seed(11)
                              .build());
    pec::PecSession session(b.kernel(),
                            {.policy = pec::OverflowPolicy::DoubleCheck});
    session.addEvent(0, EventType::Instructions, true, false);
    session.addEvent(1, EventType::Cycles, true, true);

    for (unsigned i = 0; i < 3; ++i) {
        b.kernel().spawn(
            "storm" + std::to_string(i),
            [&session](Guest &g) -> Task<void> {
                const sim::Addr base = 0x200000 + g.tid() * 0x40000;
                g.declareLoop({{OpKind::Compute, 40},
                               {OpKind::Load},
                               {OpKind::Store}});
                std::uint64_t sum = 0;
                for (unsigned s = 0; s < 2'000; ++s) {
                    co_await g.compute(40);
                    co_await g.load(base + (s % 1024) * 8);
                    co_await g.store(base + (s % 1024) * 8 + 8);
                    if (s % 128 == 0)
                        sum += co_await session.read(g, 0);
                }
                (void)sum;
            });
    }
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(SuperblockEquivalence, PmiStormBitIdentical)
{
    twoWay(runPmiStorm);
}

// ---------------------------------------------------------------------
// Miss-storm shape: every replayed load runs through the full memory
// model and raises miss events on narrow counters, so the replay
// sizing must bound the misses as well as the cycles — an overflow
// PMI landing inside a span would be delivered late
// ---------------------------------------------------------------------

Fingerprint
runMissStorm(Mode mode)
{
    analysis::SimBundle b(builderFor(mode)
                              .cores(1)
                              .quantum(200'000)
                              .pmuWidth(10) // wraps every 1,024 misses
                              .trace()
                              .seed(37)
                              .build());
    pec::PecSession session(b.kernel());
    session.addEvent(0, EventType::L1DMiss);
    session.addEvent(1, EventType::DTlbMiss);

    for (unsigned i = 0; i < 2; ++i) {
        b.kernel().spawn(
            "miss" + std::to_string(i), [](Guest &g) -> Task<void> {
                // A page and a line further on each time (4,096 + 64
                // bytes): every load misses the DTLB and every cache.
                const sim::Addr base = 0x1000000 + g.tid() * 0x4000000;
                g.declareLoop({{OpKind::Load}, {OpKind::Compute, 4}});
                for (unsigned s = 0; s < 6'000; ++s) {
                    co_await g.load(base + s * 4'160);
                    co_await g.compute(4);
                }
            });
    }
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(SuperblockEquivalence, MissStormBitIdentical)
{
    twoWay(runMissStorm);
    if (sim::batchedExecutionDefault()) {
        // The misses ran inside replays rather than ending them.
        const Fingerprint fp = runMissStorm(Mode::Batched);
        EXPECT_GT(fp.sb.stallBridges, 10 * fp.sb.entries);
    }
}

// ---------------------------------------------------------------------
// DTLB-recency shape: a hot page's fast hits must reach the TLB's
// recency list before each miss that follows them, or a burst of
// cold pages evicts the hot one
// ---------------------------------------------------------------------

constexpr unsigned dtlbIters = 400;

Fingerprint
runDtlbRecency(Mode mode)
{
    analysis::SimBundle b(
        builderFor(mode).cores(1).seed(41).build());
    b.kernel().spawn("tlb", [](Guest &g) -> Task<void> {
        // One hot line on page P (L1 set 0), then one of 96 cold
        // pages cycling through the 64-entry DTLB, each on L1 set 1.
        g.declareLoop({{OpKind::Load}, {OpKind::Load}});
        for (unsigned s = 0; s < dtlbIters; ++s) {
            co_await g.load(0x100000);
            co_await g.load(0x400000 + (s % 96) * 4'096 + 64);
        }
    });
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(SuperblockEquivalence, DtlbRecencyBitIdentical)
{
    twoWay(runDtlbRecency);
    // Closed form: every cold load misses the DTLB, and the hot page
    // misses once and then stays resident (fingerprint layout: core
    // 0's DTLB misses sit at index 5).
    const Fingerprint fp = runDtlbRecency(Mode::Batched);
    EXPECT_EQ(fp.mem[5], dtlbIters + 1);
}

// ---------------------------------------------------------------------
// Sync shape: futex sleeps and wakeups puncture the hot loop, so
// replays end on discontinuities and re-arm afterwards
// ---------------------------------------------------------------------

Fingerprint
runFutexWakeups(Mode mode)
{
    analysis::SimBundle b(builderFor(mode)
                              .cores(2)
                              .quantum(10'000)
                              .seed(23)
                              .build());
    auto mu = std::make_unique<sync::Mutex>(0x9000);
    auto shared = std::make_unique<std::uint64_t>(0);

    for (unsigned i = 0; i < 4; ++i) {
        b.kernel().spawn(
            "futex" + std::to_string(i),
            [&mu, &shared](Guest &g) -> Task<void> {
                const sim::Addr base = 0x300000 + g.tid() * 0x40000;
                g.declareLoop({{OpKind::Load},
                               {OpKind::Compute, 5},
                               {OpKind::Store}});
                for (unsigned s = 0; s < 400; ++s) {
                    // Hot inner loop long enough to replay.
                    for (unsigned k = 0; k < 24; ++k) {
                        co_await g.load(base + (k % 64) * 8);
                        co_await g.compute(5);
                        co_await g.store(base + (k % 64) * 8 + 8);
                    }
                    co_await mu->lock(g);
                    co_await g.atomicFetchAdd(shared.get(), 0xa000, 1);
                    co_await mu->unlock(g);
                    if (s % 17 == 0) {
                        co_await g.syscall(
                            os::sysSleep,
                            {1 + g.rng().below(3'000), 0, 0, 0});
                    }
                }
            });
    }
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(SuperblockEquivalence, FutexWakeupsBitIdentical)
{
    twoWay(runFutexWakeups);
}

// ---------------------------------------------------------------------
// Fault-plan shape: the injected seam must fire at the same op no
// matter how many ops retire through replay
// ---------------------------------------------------------------------

Fingerprint
runFaultPlan(Mode mode)
{
    analysis::SimBundle b(builderFor(mode)
                              .cores(1)
                              .quantum(50'000)
                              .pmuWidth(20)
                              .seed(7)
                              .build());
    pec::PecSession session(b.kernel(),
                            {.policy = pec::OverflowPolicy::DoubleCheck});
    session.addEvent(0, EventType::Instructions, true, false);

    b.kernel().spawn("victim", [&session](Guest &g) -> Task<void> {
        g.declareLoop({{OpKind::Compute, 20}, {OpKind::Load}});
        std::uint64_t sum = 0;
        for (unsigned s = 0; s < 60; ++s) {
            for (unsigned k = 0; k < 50; ++k) {
                co_await g.compute(20);
                co_await g.load(0x500000 + (k % 128) * 8);
            }
            sum += co_await session.read(g, 0);
        }
        (void)sum;
    });
    b.kernel().spawn("competitor", [](Guest &g) -> Task<void> {
        for (unsigned s = 0; s < 2'000; ++s)
            co_await g.compute(40);
    });

    Plan plan;
    FaultSpec p;
    p.site = Site::PreemptRead;
    p.step = 1;
    plan.add(p);
    PlanController ctl(b.machine(), plan);
    b.machine().setFaults(&ctl);
    const sim::Tick end = b.machine().run();
    EXPECT_EQ(ctl.injected(), 1u);
    return collect(b, end);
}

TEST(SuperblockEquivalence, FaultSeamsFireIdentically)
{
    // An active fault controller refuses replay entry outright (the
    // plan's probe seams sit on per-op boundaries), so this scenario
    // proves the refusal path, not replay: zero ops replayed, every
    // entry attempt counted as a fault refusal, results identical.
    twoWay(runFaultPlan, /*expect_replays=*/false);
    if (sim::batchedExecutionDefault()) {
        const Fingerprint fp = runFaultPlan(Mode::Batched);
        EXPECT_EQ(fp.sb.opsReplayed, 0u);
        EXPECT_GT(fp.sb.refusedFaults, 0u);
    }
}

// ---------------------------------------------------------------------
// Delta-sum pin: the prefix-summed commit must land the closed-form
// event totals exactly, not just agree with another scheduler
// ---------------------------------------------------------------------

TEST(SuperblockReplay, CommittedDeltaSumsMatchClosedForm)
{
    if (!sim::batchedExecutionDefault())
        GTEST_SKIP() << "batched execution force-disabled";
    constexpr unsigned iters = 20'000;
    constexpr std::uint64_t computeInstrs = 8;
    // Flat memory: every access hits the fast path at a fixed latency,
    // so a branch-free loop has an exact closed-form ledger and
    // nothing can end a replay early except the horizon checks.
    analysis::SimBundle b(analysis::BundleOptions::Builder()
                              .cores(1)
                              .seed(3)
                              .flatMemory()
                              .build());
    b.kernel().spawn("pin", [](Guest &g) -> Task<void> {
        const sim::ComputeProfile p{.branchFrac = 0.0,
                                    .mispredictRate = 0.0};
        g.declareLoop({{OpKind::Load},
                       {OpKind::Store},
                       {OpKind::Compute, computeInstrs, p}});
        for (unsigned s = 0; s < iters; ++s) {
            co_await g.load(0x600000 + (s % 256) * 8);
            co_await g.store(0x600000 + (s % 256) * 8 + 8);
            co_await g.compute(computeInstrs, p);
        }
    });
    b.machine().run();

    const auto &ledger = b.kernel().thread(0).ctx.ledger();
    const auto user = [&](EventType e) {
        return ledger.count(e, PrivMode::User);
    };
    EXPECT_EQ(user(EventType::Instructions),
              iters * (computeInstrs + 2));
    EXPECT_EQ(user(EventType::Loads), iters);
    EXPECT_EQ(user(EventType::Stores), iters);
    EXPECT_EQ(user(EventType::Branches), 0u);
    EXPECT_EQ(user(EventType::BranchMisses), 0u);
    sim::EventDeltas scratch{};
    const sim::Tick memLat =
        b.machine().memory()->access(0, 0x600000, false, false, scratch);
    EXPECT_EQ(user(EventType::Cycles),
              iters * (computeInstrs + 2 * memLat));

    // The loop is declared from its first op and flat memory always
    // takes the fast path (no full accesses), so all but the few ops
    // at horizon and budget edges retire through replay.
    const sim::SuperblockStats &sb = b.machine().superblockStats();
    EXPECT_GE(sb.opsReplayed,
              static_cast<std::uint64_t>(iters) * 3 * 99 / 100);
    EXPECT_EQ(sb.stallBridges, 0u);
    EXPECT_EQ(sb.opsRecorded, 0u);
}

// ---------------------------------------------------------------------
// Misses inside a replay: a cache-missing stream keeps its replay
// across every line crossing instead of ending it there
// ---------------------------------------------------------------------

TEST(SuperblockReplay, StreamingLoopBridgesStalls)
{
    if (!sim::batchedExecutionDefault())
        GTEST_SKIP() << "batched execution force-disabled";
    constexpr unsigned iters = 60'000;
    analysis::SimBundle b(analysis::BundleOptions::Builder()
                              .cores(1)
                              .seed(5)
                              .build());
    b.kernel().spawn("stream", [](Guest &g) -> Task<void> {
        // Sequential walk: a line crossing (fast-path miss) every 8
        // accesses and a page crossing every 512.
        g.declareLoop({{OpKind::Load}, {OpKind::Compute, 4}});
        for (unsigned s = 0; s < iters; ++s) {
            co_await g.load(0x700000 + s * 8);
            co_await g.compute(4);
        }
    });
    b.machine().run();
    const sim::SuperblockStats &sb = b.machine().superblockStats();
    // Every crossing ran its full access inside a replay...
    EXPECT_GE(sb.stallBridges, iters / 8);
    EXPECT_GE(sb.opsReplayed + sb.stallBridges,
              static_cast<std::uint64_t>(iters) * 2 * 99 / 100);
    // ...without ending it: a replay that ended at each crossing
    // would have been armed again after it, once per full access.
    EXPECT_LT(sb.entries * 10, sb.stallBridges);
}

// ---------------------------------------------------------------------
// Quantum-end shape: a woken thread is charged its switch-in cost
// after the kernel set its quantum end, so under a quantum shorter
// than that cost its first op already starts past the quantum end —
// and here that op starts the declared body
// ---------------------------------------------------------------------

Fingerprint
runWakePastQuantumEnd(Mode mode)
{
    analysis::SimBundle b(builderFor(mode)
                              .cores(1)
                              .flatMemory()
                              .quantum(2'000)
                              .seed(13)
                              .build());
    b.kernel().spawn("sleeper", [](Guest &g) -> Task<void> {
        g.declareLoop({{OpKind::Compute, 2}, {OpKind::Load}});
        for (unsigned s = 0; s < 50; ++s) {
            co_await g.compute(2);
            for (unsigned k = 0; k < 32; ++k) {
                co_await g.load(0x800000 + k * 64);
                co_await g.compute(2);
            }
            co_await g.syscall(os::sysSleep, {100, 0, 0, 0});
        }
    });
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(SuperblockEquivalence, WakePastQuantumEndBitIdentical)
{
    twoWay(runWakePastQuantumEnd);
}

// ---------------------------------------------------------------------
// Declaration contract: a declaration is a promise the replay checks
// op by op, so a wrong one costs replay and never bytes, and a loop
// nobody declared is never replayed
// ---------------------------------------------------------------------

/** Ways a declaration of {compute(6, p), load, store} can be wrong. */
enum class Misdeclared
{
    Instrs,      ///< compute(7) declared for compute(6)
    ProfileBits, ///< branchFrac off by one ulp
    Order,       ///< {compute, store, load}: not a rotation of the loop
};

Fingerprint
runMisdeclared(Mode mode, Misdeclared wrong)
{
    analysis::SimBundle b(builderFor(mode)
                              .cores(1)
                              .flatMemory()
                              .seed(17)
                              .build());
    b.kernel().spawn("misdeclared", [wrong](Guest &g) -> Task<void> {
        const sim::ComputeProfile p{
            .branchFrac = 0.06, .mispredictRate = 0.01};
        sim::ComputeProfile q = p;
        q.branchFrac = std::nextafter(p.branchFrac, 1.0);
        switch (wrong) {
          case Misdeclared::Instrs:
            g.declareLoop({{OpKind::Compute, 7, p},
                           {OpKind::Load},
                           {OpKind::Store}});
            break;
          case Misdeclared::ProfileBits:
            g.declareLoop({{OpKind::Compute, 6, q},
                           {OpKind::Load},
                           {OpKind::Store}});
            break;
          case Misdeclared::Order:
            g.declareLoop({{OpKind::Compute, 6, p},
                           {OpKind::Store},
                           {OpKind::Load}});
            break;
        }
        for (unsigned s = 0; s < 4'000; ++s) {
            co_await g.compute(6, p);
            co_await g.load(0x900000 + (s % 256) * 8);
            co_await g.store(0x900000 + (s % 256) * 8 + 8);
        }
    });
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(SuperblockDeclaration, WrongOperandsReplayNothing)
{
    for (Misdeclared wrong :
         {Misdeclared::Instrs, Misdeclared::ProfileBits}) {
        twoWay([wrong](Mode m) { return runMisdeclared(m, wrong); },
                 /*expect_replays=*/false);
        const Fingerprint fp = runMisdeclared(Mode::Batched, wrong);
        EXPECT_EQ(fp.sb.opsReplayed, 0u);
        if (sim::batchedExecutionDefault()) {
            // Entry was armed at every compute and ended by its
            // operand check, not skipped.
            EXPECT_GT(fp.sb.entries, 0u);
        }
    }
}

TEST(SuperblockDeclaration, WrongOrderNeverCompletesAnIteration)
{
    twoWay([](Mode m) { return runMisdeclared(m, Misdeclared::Order); },
             /*expect_replays=*/false);
    // A permutation that is not a rotation matches the op it entered
    // on (the compute) and then mismatches at once, on the load where
    // it expects the store: each entry retires that one op, and no
    // span ever covers a whole iteration.
    const Fingerprint fp =
        runMisdeclared(Mode::Batched, Misdeclared::Order);
    EXPECT_EQ(fp.sb.fullCommits, 0u);
    EXPECT_EQ(fp.sb.opsReplayed, fp.sb.partialFlushes);
    EXPECT_EQ(fp.sb.opsReplayed, fp.sb.entries);
}

Fingerprint
runUndeclared(Mode mode)
{
    analysis::SimBundle b(builderFor(mode)
                              .cores(1)
                              .flatMemory()
                              .seed(19)
                              .build());
    b.kernel().spawn("undeclared", [](Guest &g) -> Task<void> {
        for (unsigned s = 0; s < 20'000; ++s) {
            co_await g.load(0xa00000 + (s % 256) * 64);
            co_await g.compute(2);
        }
    });
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(SuperblockDeclaration, UndeclaredHotLoopReplaysNothing)
{
    twoWay(runUndeclared, /*expect_replays=*/false);
    const Fingerprint fp = runUndeclared(Mode::Batched);
    EXPECT_EQ(fp.sb.entries, 0u);
    EXPECT_EQ(fp.sb.opsReplayed, 0u);
    EXPECT_EQ(fp.sb.opsRecorded, 0u);
}

/** A memory model with no fast path: every access takes access(). */
class NoFastPathMemory : public sim::MemoryIf
{
  public:
    using sim::MemoryIf::access;

    sim::Tick
    access(sim::CoreId, sim::Addr, bool, bool, sim::EventDeltas &) override
    {
        return 7;
    }
};

Fingerprint
runWithoutFastPath(Mode mode)
{
    NoFastPathMemory memory;
    analysis::SimBundle b(builderFor(mode)
                              .cores(1)
                              .flatMemory()
                              .seed(23)
                              .build());
    b.machine().setMemory(&memory);
    b.kernel().spawn("nofast", [](Guest &g) -> Task<void> {
        g.declareLoop({{OpKind::Load}, {OpKind::Compute, 2}});
        for (unsigned s = 0; s < 5'000; ++s) {
            co_await g.load(0xc00000 + (s % 256) * 64);
            co_await g.compute(2);
        }
    });
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(SuperblockDeclaration, MemoryWithoutFastPathReplaysNothing)
{
    // A declared load has no fast-path latency to replay at, so the
    // declaration is dropped rather than entered.
    twoWay(runWithoutFastPath, /*expect_replays=*/false);
    const Fingerprint fp = runWithoutFastPath(Mode::Batched);
    EXPECT_EQ(fp.sb.entries, 0u);
    EXPECT_EQ(fp.sb.opsReplayed, 0u);
}

/**
 * A loop that changes shape half way ({load, compute(2)}, then
 * {load, compute(5)}) and re-declares itself every 1 000 iterations,
 * twice in a row (a wrong body, then the right one). `mid_replay`
 * counts re-declarations made while a replay cursor pointed into the
 * block being replaced, which must stay valid until the replay ends.
 */
Fingerprint
runRedeclared(Mode mode, unsigned *mid_replay = nullptr)
{
    analysis::SimBundle b(builderFor(mode)
                              .cores(1)
                              .flatMemory()
                              .seed(29)
                              .build());
    b.kernel().spawn("redeclared", [mid_replay](Guest &g) -> Task<void> {
        g.declareLoop({{OpKind::Load}, {OpKind::Compute, 2}});
        for (unsigned s = 0; s < 6'000; ++s) {
            const std::uint64_t instrs = s < 3'000 ? 2 : 5;
            co_await g.load(0xb00000 + (s % 256) * 64);
            co_await g.compute(instrs);
            if (s % 1'000 == 500) {
                if (mid_replay != nullptr && g.context().sbr.cur != nullptr)
                    ++*mid_replay;
                g.declareLoop({{OpKind::Load}, {OpKind::Compute, 9}});
                g.declareLoop({{OpKind::Load}, {OpKind::Compute, instrs}});
            }
        }
    });
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(SuperblockDeclaration, RedeclaringMidReplayIsBitIdentical)
{
    twoWay([](Mode m) { return runRedeclared(m); });
    if (sim::batchedExecutionDefault()) {
        unsigned mid_replay = 0;
        runRedeclared(Mode::Batched, &mid_replay);
        EXPECT_GT(mid_replay, 0u);
    }
}

/** Run one thread that calls `declare` and then issues one op. */
template <typename DeclareFn>
void
runDeclaring(DeclareFn declare)
{
    analysis::SimBundle b(analysis::BundleOptions::Builder()
                              .cores(1)
                              .flatMemory()
                              .build());
    b.kernel().spawn("declarer", [declare](Guest &g) -> Task<void> {
        declare(g);
        co_await g.compute(1);
    });
    b.machine().run();
}

TEST(SuperblockDeclarationDeathTest, RejectsAnEmptyBody)
{
    EXPECT_DEATH(runDeclaring([](Guest &g) { g.declareLoop({}); }),
                 "empty loop body");
}

TEST(SuperblockDeclarationDeathTest, RejectsOpsThatCannotReplay)
{
    for (OpKind bad :
         {OpKind::AtomicCas, OpKind::AtomicFetchAdd, OpKind::AtomicExchange,
          OpKind::AtomicLoad, OpKind::AtomicStore, OpKind::Syscall,
          OpKind::PmcRead, OpKind::PmcReadClear, OpKind::RegionEnter,
          OpKind::RegionExit}) {
        EXPECT_DEATH(runDeclaring([bad](Guest &g) {
                         g.declareLoop({{OpKind::Load}, {bad}});
                     }),
                     "cannot replay")
            << "op kind " << static_cast<unsigned>(bad);
    }
}

} // namespace
} // namespace limit
