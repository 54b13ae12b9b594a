#include "os/scheduler.hh"

#include "base/logging.hh"

namespace limit::os {

Scheduler::Scheduler(unsigned num_cores) : queues_(num_cores)
{
    fatal_if(num_cores == 0, "scheduler needs at least one core");
}

void
Scheduler::enqueue(sim::CoreId core, sim::ThreadId tid)
{
    panic_if(core >= queues_.size(), "bad core id ", core);
    queues_[core].push_back(tid);
    ++queued_;
}

} // namespace limit::os
