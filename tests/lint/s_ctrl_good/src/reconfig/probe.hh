// The S005 self-test's covered twin: every dynamic member is listed in
// io(), and the one identity member carries a written suppression. The
// tree must lint clean.
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
    int ghostTarget_ = 16;
    int orphanCount_ = 0;
};
