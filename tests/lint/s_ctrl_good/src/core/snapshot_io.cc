#include "reconfig/probe.hh"

template <class Self, class A>
bool
ProbeController::io(Self &s, A &a)
{
    a.field(s.committed_);
    a.field(s.ghostTarget_);
    a.field(s.orphanCount_);
    return a.ok();
}
