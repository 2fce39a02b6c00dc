// Fully covered miniature snapshot pipeline: every field flows
// through restore() and io(), and the one intentionally transient
// field carries a written S004 suppression.
struct Processor {
    struct Snapshot;
    void restore(const Snapshot &s);
    int cycle_ = 0;
    int pendingTarget_ = 0;
};

struct Processor::Snapshot {
    int cycle = 0;
    int pendingTarget = 0;
    // simlint-ignore(S004): derived debug scratch, recomputed on
    // restore; deliberately outside the serialized state.
    int debugScratch = 0;
    template <class Self, class A> static bool io(Self &s, A &a);
};
