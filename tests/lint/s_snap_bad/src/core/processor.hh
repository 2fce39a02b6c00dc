// Miniature snapshot pipeline for the S004 self-test: two fields each
// escape one leg of the checkpoint path and must both be reported;
// `cycle` is fully covered and must stay silent.
struct Processor {
    struct Snapshot;
    void restore(const Snapshot &s);
    int cycle_ = 0;
    int ghostPending_ = 0;
    int shadowDepth_ = 0;
};

struct Processor::Snapshot {
    int cycle = 0;
    int ghostPending = 0;  // serialized, but restore() never applies it
    int shadowDepth = 0;   // applied by restore(), never serialized
    template <class Self, class A> static bool io(Self &s, A &a);
};
