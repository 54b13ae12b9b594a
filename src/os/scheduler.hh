/**
 * @file
 * Per-core round-robin run queues with idle-time work stealing.
 */

#ifndef LIMIT_OS_SCHEDULER_HH
#define LIMIT_OS_SCHEDULER_HH

#include <cstddef>
#include <deque>
#include <vector>

#include "sim/types.hh"

namespace limit::os {

/**
 * Run-queue bookkeeping only; state transitions live in the Kernel.
 * Threads are queued by id; affinity is a preference, not a contract,
 * unless the thread is pinned (the kernel filters steals for pins).
 */
class Scheduler
{
  public:
    explicit Scheduler(unsigned num_cores);

    /** Append to `core`'s queue. */
    void enqueue(sim::CoreId core, sim::ThreadId tid);

    /**
     * Pop the next thread for `core`: local queue first, then steal
     * from the longest remote queue (honouring `can_steal`).
     * @return invalidThread when nothing is runnable for this core.
     */
    template <typename StealFilter>
    sim::ThreadId
    dequeue(sim::CoreId core, StealFilter can_steal)
    {
        auto &local = queues_[core];
        if (!local.empty()) {
            const sim::ThreadId tid = local.front();
            local.pop_front();
            --queued_;
            return tid;
        }
        // Steal from the longest queue that has a stealable thread.
        for (;;) {
            std::size_t best_len = 0;
            sim::CoreId victim = 0;
            for (sim::CoreId c = 0; c < queues_.size(); ++c) {
                if (c != core && queues_[c].size() > best_len) {
                    best_len = queues_[c].size();
                    victim = c;
                }
            }
            if (best_len == 0)
                return sim::invalidThread;
            auto &q = queues_[victim];
            for (auto it = q.begin(); it != q.end(); ++it) {
                if (can_steal(*it)) {
                    const sim::ThreadId tid = *it;
                    q.erase(it);
                    --queued_;
                    return tid;
                }
            }
            // Everything in the longest queue is pinned elsewhere:
            // no other queue can be longer-with-stealables; scan all.
            for (sim::CoreId c = 0; c < queues_.size(); ++c) {
                if (c == core)
                    continue;
                auto &qc = queues_[c];
                for (auto it = qc.begin(); it != qc.end(); ++it) {
                    if (can_steal(*it)) {
                        const sim::ThreadId tid = *it;
                        qc.erase(it);
                        --queued_;
                        return tid;
                    }
                }
            }
            return sim::invalidThread;
        }
    }

    /** Total queued (not running/blocked) threads. */
    std::size_t queued() const { return queued_; }

  private:
    std::vector<std::deque<sim::ThreadId>> queues_;
    std::size_t queued_ = 0;
};

} // namespace limit::os

#endif // LIMIT_OS_SCHEDULER_HH
