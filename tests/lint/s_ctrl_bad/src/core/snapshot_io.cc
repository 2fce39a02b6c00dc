#include "reconfig/probe.hh"

template <class Self, class A>
bool
ProbeController::io(Self &s, A &a)
{
    a.field(s.committed_);
    a.field(s.orphanCount_);
    // ghostTarget_ is never listed: checkpoints drop it.
    return a.ok();
}

// OrphanTracker::io() is never defined: nothing audits its members.
