#include "core/processor.hh"

template <class Self, class A>
bool
Processor::Snapshot::io(Self &s, A &a)
{
    a.field(s.cycle);
    a.field(s.pendingTarget);
    return a.ok();
}
