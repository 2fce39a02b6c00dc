// Miniature controller checkpoint pipeline for the S005 self-test:
// ghostTarget_ is missing from ProbeController::io(), and
// OrphanTracker declares an io() that snapshot_io.cc never defines;
// both must be reported. committed_ and orphanCount_ are listed and
// params_ carries a reasoned ignore, so they must stay silent. The
// inline method and the nested struct probe the member parser: a
// signature's parens must not swallow the member after the body, and
// a nested type is not a data member.
class SnapshotWriter;
class SnapshotReader;

class ProbeController {
  public:
    bool checkpoint(SnapshotWriter &w) const;
    bool checkpoint(SnapshotReader &r);
    int targetClusters() const { return ghostTarget_; }
    template <class Self, class A> static bool io(Self &s, A &a);

  private:
    struct TableEntry {
        int advice = 16;
    };

    // simlint-ignore(S005): constructor identity, rebuilt by the factory
    int params_ = 0;
    unsigned long committed_ = 0;
    int ghostTarget_ = 16; // never listed: checkpoints drop it
    int orphanCount_ = 0;
};

class OrphanTracker {
  public:
    template <class Self, class A> static bool io(Self &s, A &a);

  private:
    int depth_ = 0;
};
