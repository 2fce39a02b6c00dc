/**
 * @file
 * Translation lookaside buffer: 128 entries, 8 KB pages (Table 1).
 */

#ifndef CLUSTERSIM_MEMORY_TLB_HH
#define CLUSTERSIM_MEMORY_TLB_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace clustersim {

/** Set-associative TLB with LRU replacement and a fixed miss penalty. */
class Tlb
{
  public:
    /**
     * @param entries      Total entries (128 in the paper).
     * @param ways         Associativity.
     * @param page_bytes   Page size (8 KB in the paper).
     * @param miss_penalty Cycles added on a miss (software walk).
     */
    Tlb(std::size_t entries = 128, int ways = 4,
        std::size_t page_bytes = 8192, Cycle miss_penalty = 30);

    /**
     * Translate; returns the extra latency (0 on hit, missPenalty on
     * miss) and installs the mapping.
     */
    Cycle translate(Addr addr);

    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    Cycle missPenalty() const { return missPenalty_; }
    void resetStats();

    /** Checkpointed fields (defined in core/snapshot_io.cc). */
    template <class Self, class A> static bool io(Self &s, A &a);

  private:
    struct Entry {
        bool valid = false;
        Addr vpn = 0;
        std::uint64_t lastUse = 0;
    };

    std::size_t sets_;
    int ways_;
    int pageShift_;
    Cycle missPenalty_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    /**
     * Slot of the most recently used entry: a lookup hint for the
     * same-page fast path in translate(). The vpn check rejects stale
     * hints, and the index survives value copies (snapshot restore).
     */
    std::size_t lastIdx_ = 0;

    Counter accesses_;
    Counter misses_;
};

} // namespace clustersim

#endif // CLUSTERSIM_MEMORY_TLB_HH
