/**
 * @file
 * The checkpointed fields of Processor::Snapshot and every component it
 * contains: one io() walk per type, serving both the writer and the
 * reader (see core/snapshot_io.hh for the archive primitives and the
 * encoding).
 *
 * The walks live here, declared as static members on each class, so
 * the field coverage is auditable in one place and simlint can
 * cross-check it: every Snapshot member against Processor::restore
 * (rule S004), every controller data member against its io() (S005).
 * To checkpoint a new field, add one line to its owner's io() -- and,
 * since the bytes change, bump snapshotFormatVersion and the
 * checkpoint salt.
 *
 * Reading is donor-based: the caller captures a snapshot() from a
 * processor built with the same configuration and reads the payload
 * into it. Config-derived shapes (table sizes, ring capacities, FU
 * counts) are therefore already correct in the donor and are *verified*
 * rather than resized; a mismatch means the payload came from a
 * different configuration and the load fails.
 */

#include "core/snapshot_io.hh"

#include <cstdint>
#include <string>

#include "core/cluster.hh"
#include "core/processor.hh"
#include "core/rob.hh"
#include "memory/cache_bank.hh"
#include "memory/l2_cache.hh"
#include "memory/lsq.hh"
#include "memory/tlb.hh"
#include "predictor/bank_predictor.hh"
#include "predictor/bimodal.hh"
#include "predictor/branch_unit.hh"
#include "predictor/btb.hh"
#include "predictor/combining.hh"
#include "predictor/criticality.hh"
#include "predictor/ras.hh"
#include "predictor/twolevel.hh"
#include "reconfig/distant_ilp.hh"
#include "reconfig/finegrain.hh"
#include "reconfig/ineffectuality.hh"
#include "reconfig/interval_explore.hh"
#include "reconfig/interval_ilp.hh"
#include "reconfig/oracle.hh"

namespace clustersim {

namespace {

template <class R, class A>
void
reg(A &a, R &r)
{
    a.bounded(r, invalidReg, numLogicalRegs - 1);
}

template <class Op, class A>
void
microOpIo(Op &op, A &a)
{
    a.field(op.pc);
    a.bounded(op.op, 0, numOpClasses - 1);
    reg(a, op.src1);
    reg(a, op.src2);
    reg(a, op.dest);
    a.field(op.effAddr);
    a.field(op.taken);
    a.field(op.target);
}

template <class V, class A>
void
valueInfoIo(V &v, A &a)
{
    a.field(v.producer);
    a.field(v.producerPc);
    a.bounded(v.cluster, 0, maxClusters - 1);
    a.field(v.completeAt);
    a.field(v.availAt);
}

template <class D, class A>
void
dynInstIo(D &d, A &a)
{
    microOpIo(d.op, a);
    a.field(d.seq);
    a.bounded(d.cluster, invalidCluster, maxClusters - 1);
    a.field(d.fetchCycle);
    a.field(d.dispatchCycle);
    a.field(d.enterIqCycle);
    a.field(d.issueCycle);
    a.field(d.completeCycle);
    a.field(d.srcReady);
    a.field(d.srcProducerPc);
    a.bounded(d.pendingSrcs, 0, 2);
    a.field(d.issueScheduled);
    a.field(d.completed);
    valueInfoIo(d.value, a);
    a.seq(d.waiters, 4096, [&](auto &w) {
        a.field(w.consumer);
        a.bounded(w.srcIdx, 0, 1);
    });
    a.field(d.addrGenScheduled);
    a.field(d.addrReadyAt);
    a.field(d.addrAtBankAt);
    a.field(d.storeDataAt);
    a.bounded(d.bank, -1, 63);
    a.bounded(d.predictedBank, -1, 63);
    a.field(d.loadIssuedToCache);
    a.field(d.mispredicted);
    a.field(d.distant);
    reg(a, d.prevDest);
    a.bounded(d.prevDestCluster, invalidCluster, maxClusters - 1);
    a.field(d.prevDestHadReg);
    a.field(d.retryArmed);
}

/** Highest valid index of a ring (0 for an empty one). */
template <class C>
std::size_t
lastIndex(const C &c)
{
    return c.empty() ? 0 : c.size() - 1;
}

} // namespace

// --- predictors ------------------------------------------------------------

template <class Self, class A>
bool
BimodalPredictor::io(Self &s, A &a)
{
    a.fixed(s.table_);
    return a.ok();
}

template <class Self, class A>
bool
TwoLevelPredictor::io(Self &s, A &a)
{
    a.fixed(s.historyTable_, [&](auto &h) {
        a.field(h);
        a.check((h & ~s.historyMask_) == 0);
    });
    a.fixed(s.patternTable_);
    return a.ok();
}

template <class Self, class A>
bool
CombiningPredictor::io(Self &s, A &a)
{
    a.field(s.bimodal_);
    a.field(s.twoLevel_);
    a.fixed(s.chooser_);
    return a.ok();
}

template <class Self, class A>
bool
Btb::io(Self &s, A &a)
{
    a.fixed(s.entries_, [&](auto &e) {
        a.field(e.valid);
        a.field(e.tag);
        a.field(e.target);
        a.field(e.lastUse);
    });
    a.field(s.useClock_);
    return a.ok();
}

template <class Self, class A>
bool
ReturnAddressStack::io(Self &s, A &a)
{
    a.shape(s.stack_.size());
    a.bounded(s.topIdx_, 0, lastIndex(s.stack_));
    a.bounded(s.size_, 0, s.stack_.size());
    for (auto &addr : s.stack_)
        a.field(addr);
    return a.ok();
}

template <class Self, class A>
bool
BranchUnit::io(Self &s, A &a)
{
    a.field(s.direction_);
    a.field(s.btb_);
    a.field(s.ras_);
    a.field(s.lookups_);
    a.field(s.mispredicts_);
    a.field(s.dirMispredicts_);
    a.field(s.targetMispredicts_);
    return a.ok();
}

template <class Self, class A>
bool
BankPredictor::io(Self &s, A &a)
{
    a.fixed(s.historyTable_);
    // predict() indexes clusters with these values directly
    a.fixed(s.bankTable_,
            [&](auto &b) { a.bounded(b, 0, s.maxBanks_ - 1); });
    a.field(s.lookups_);
    a.field(s.correct_);
    return a.ok();
}

template <class Self, class A>
bool
CriticalityPredictor::io(Self &s, A &a)
{
    a.fixed(s.table_);
    return a.ok();
}

// --- memory ---------------------------------------------------------------

template <class Self, class A>
bool
CacheBank::io(Self &s, A &a)
{
    a.fixed(s.lines_, [&](auto &l) {
        a.field(l.valid);
        a.field(l.dirty);
        a.field(l.tag);
        a.field(l.lastUse);
    });
    a.field(s.useClock_);
    a.bounded(s.lastIdx_, 0, lastIndex(s.lines_));
    a.field(s.accesses_);
    a.field(s.misses_);
    a.field(s.writebacks_);
    return a.ok();
}

template <class Self, class A>
bool
Tlb::io(Self &s, A &a)
{
    a.fixed(s.entries_, [&](auto &e) {
        a.field(e.valid);
        a.field(e.vpn);
        a.field(e.lastUse);
    });
    a.field(s.useClock_);
    a.bounded(s.lastIdx_, 0, lastIndex(s.entries_));
    a.field(s.accesses_);
    a.field(s.misses_);
    return a.ok();
}

template <class Self, class A>
bool
L2Cache::io(Self &s, A &a)
{
    a.field(s.array_);
    a.field(s.port_);
    return a.ok();
}

template <class Self, class A>
bool
LoadStoreQueue::io(Self &s, A &a)
{
    a.fixed(s.slots_, [&](auto &e) {
        a.field(e.seq);
        a.field(e.isStore);
        a.bounded(e.cluster, 0, s.numClusters_ - 1);
        a.bounded(e.bank, 0, 63);
        a.field(e.addr);
        a.field(e.addrValid);
        a.field(e.addrKnownAt);
        a.field(e.broadcastAt);
        a.field(e.dataReadyAt);
        a.field(e.accessed);
        a.bounded(e.dummyClusters, 0, s.numClusters_);
        a.seq(e.loadWaiters, s.slots_.size());
    });
    a.bounded(s.head_, 0, s.slots_.size() - 1);
    a.bounded(s.size_, 0, s.slots_.size());
    auto slot_index = [&](auto &v) {
        a.bounded(v, 0, s.slots_.size() - 1);
    };
    a.fixed(s.seqMap_, slot_index);
    a.fixed(s.storeRing_, slot_index);
    a.bounded(s.storeHead_, 0, s.storeRing_.size() - 1);
    a.bounded(s.storeCount_, 0, s.storeRing_.size());
    a.fixed(s.occupancy_, [&](auto &o) {
        a.bounded(o, 0, s.perCluster_ * s.numClusters_);
    });
    a.seq(s.woken_, s.slots_.size());
    a.field(s.forwards_);
    a.field(s.blocked_);
    return a.ok();
}

// --- core ------------------------------------------------------------------

template <class Self, class A>
bool
Cluster::io(Self &s, A &a)
{
    a.bounded(s.intIqUsed_, 0, s.params_.intIssueQueue);
    a.bounded(s.fpIqUsed_, 0, s.params_.fpIssueQueue);
    a.bounded(s.intRegsUsed_, 0, s.params_.intRegs);
    a.bounded(s.fpRegsUsed_, 0, s.params_.fpRegs);
    a.fixed(s.intAlus_);
    a.fixed(s.intMultDivs_);
    a.fixed(s.fpAlus_);
    a.fixed(s.fpMultDivs_);
    return a.ok();
}

template <class Self, class A>
bool
ReorderBuffer::io(Self &s, A &a)
{
    // Every ring slot travels, live or not: recycled slots carry the
    // exact residual state a straight-line run would have, which is
    // what bit-identical restore requires.
    a.fixed(s.slots_, [&](auto &d) { dynInstIo(d, a); });
    a.bounded(s.head_, 0, s.slots_.size() - 1);
    a.bounded(s.size_, 0, s.slots_.size());
    a.field(s.nextSeq_);
    a.check(s.nextSeq_ >= 1);
    return a.ok();
}

// --- reconfiguration controllers -------------------------------------------

/** The virtual checkpoint entry points of a controller, both of which
 *  forward to its io() field list. */
#define CSIM_CONTROLLER_CHECKPOINT(Cls)                                    \
    bool Cls::checkpoint(SnapshotWriter &w) const { return io(*this, w); } \
    bool Cls::checkpoint(SnapshotReader &r) { return io(*this, r); }

template <class Self, class A>
bool
DistantIlpTracker::io(Self &s, A &a)
{
    a.fixed(s.ring_, [&](auto &slot) {
        a.field(slot.pc);
        a.field(slot.distant);
        a.field(slot.marked);
    });
    a.bounded(s.head_, 0, lastIndex(s.ring_));
    a.bounded(s.size_, 0, s.ring_.size());
    a.bounded(s.count_, 0, s.size_);
    return a.ok();
}

template <class Self, class A>
bool
IntervalExploreController::io(Self &s, A &a)
{
    a.field(s.intervalLength_);
    a.field(s.instsInInterval_);
    a.field(s.branchesInInterval_);
    a.field(s.memrefsInInterval_);
    a.field(s.intervalStartCycle_);
    a.field(s.startCycleValid_);
    a.field(s.haveReference_);
    a.field(s.stable_);
    a.field(s.discontinued_);
    a.field(s.numIpcVariations_);
    a.field(s.instability_);
    a.field(s.refBranches_);
    a.field(s.refMemrefs_);
    a.field(s.refIpc_);
    a.bounded(s.exploreIdx_, 0, s.allConfigs_.size());
    a.seq(s.exploreIpc_, s.allConfigs_.size());
    a.seq(s.popularity_, maxClusters, [&](auto &cfg, auto &count) {
        a.bounded(cfg, 1, s.hwClusters_);
        a.field(count);
    });
    a.bounded(s.target_, 1, s.hwClusters_);
    a.field(s.phaseChanges_);
    a.field(s.explorations_);
    a.field(s.failedExplorations_);
    a.field(s.chgBranch_);
    a.field(s.chgMem_);
    a.field(s.chgIpc_);
    return a.ok();
}
CSIM_CONTROLLER_CHECKPOINT(IntervalExploreController)

template <class Self, class A>
bool
IntervalIlpController::io(Self &s, A &a)
{
    a.field(s.instsInInterval_);
    a.field(s.branchesInInterval_);
    a.field(s.memrefsInInterval_);
    a.field(s.distantInInterval_);
    a.field(s.intervalStartCycle_);
    a.field(s.startCycleValid_);
    a.field(s.measuring_);
    a.field(s.haveReference_);
    a.field(s.refBranches_);
    a.field(s.refMemrefs_);
    a.field(s.refIpc_);
    a.field(s.refIpcValid_);
    a.bounded(s.target_, 1, s.hwClusters_);
    a.field(s.phaseChanges_);
    return a.ok();
}
CSIM_CONTROLLER_CHECKPOINT(IntervalIlpController)

template <class Self, class A>
bool
FinegrainController::io(Self &s, A &a)
{
    a.fixed(s.table_, [&](auto &e) {
        a.field(e.valid);
        a.field(e.tag);
        a.bounded(e.samples, 0, s.params_.samplesNeeded);
        a.field(e.distantSum);
        a.field(e.decided);
        // Only decided advice is ever installed; an undecided entry
        // keeps its default, which may exceed a smaller machine.
        a.bounded(e.advice, 1, e.decided ? s.hwClusters_ : maxClusters);
    });
    a.field(s.tracker_);
    a.bounded(s.branchCounter_, 0, s.params_.branchStride);
    a.field(s.sinceFlush_);
    a.bounded(s.target_, 1, s.hwClusters_);
    a.field(s.reconfigPoints_);
    a.field(s.tableFlushes_);
    a.field(s.tableConflicts_);
    return a.ok();
}
CSIM_CONTROLLER_CHECKPOINT(FinegrainController)

template <class Self, class A>
bool
IneffectualityController::io(Self &s, A &a)
{
    a.field(s.instsInInterval_);
    a.field(s.mispredictsInInterval_);
    a.bounded(s.ladderIdx_, 0, s.params_.configs.size() - 1);
    a.bounded(s.target_, 1, s.hwClusters_);
    a.field(s.intervals_);
    a.field(s.gateEvents_);
    a.field(s.ungateEvents_);
    a.field(s.predictedWasted_);
    a.field(s.lastFraction_);
    return a.ok();
}
CSIM_CONTROLLER_CHECKPOINT(IneffectualityController)

template <class Self, class A>
bool
OracleController::io(Self &s, A &a)
{
    // The schedule and interval length are identity, rebuilt by the
    // factory; only the replay position is dynamic. target_ travels
    // too, and a payload from a different schedule (or horizon), which
    // would desync the replay, fails the cross-check.
    a.field(s.committed_);
    a.bounded(s.target_, 1, s.hwClusters_);
    a.check(s.target_ == s.targetAt(s.committed_));
    return a.ok();
}
CSIM_CONTROLLER_CHECKPOINT(OracleController)

#undef CSIM_CONTROLLER_CHECKPOINT

// --- the whole snapshot -----------------------------------------------------

template <class Self, class A>
bool
Processor::Snapshot::io(Self &s, A &a)
{
    a.shape(snapshotFormatVersion);

    // fetch
    a.field(s.fetch.branch);
    a.field(s.fetch.icache);
    a.seq(s.fetch.queue, 65536, [&](auto &e) {
        microOpIo(e.op, a);
        a.field(e.readyAt);
        a.field(e.mispredicted);
    });
    a.optional(s.fetch.pending, [&](auto &op) { microOpIo(op, a); });
    a.field(s.fetch.stalledOnBranch);
    a.field(s.fetch.stallUntil);
    a.field(s.fetch.fetched);
    a.field(s.fetch.icacheMisses);

    // network (link count and window size are topology shape)
    a.fixed(s.network.occupancy, [&](auto &link) { a.fixed(link); });
    a.field(s.network.transfers);
    a.field(s.network.totalHops);
    a.field(s.network.totalLatency);

    // L1 / L2 / LSQ
    a.fixed(s.l1.arrays);
    a.fixed(s.l1.ports);
    a.field(s.l2);
    a.field(s.lsq);

    // clusters and predictors
    a.fixed(s.clusters);
    a.field(s.dtlb);
    a.field(s.bankPred);
    a.field(s.critPred);

    // ROB and rename state
    a.field(s.rob);
    a.field(s.renameTable);
    for (auto &v : s.archValues)
        valueInfoIo(v, a);

    // scalar core state
    a.field(s.cycle);
    a.bounded(s.activeClusters, 0, maxClusters);
    a.bounded(s.pendingTarget, 0, maxClusters);
    a.field(s.dispatchStallUntil);
    a.seq(s.pendingLoads, s.rob.capacity());
    a.bounded(s.armedPending, 0, s.pendingLoads.size());
    a.bounded(s.lastDispatchStall, 0, static_cast<int>(StallCause::Reg));
    a.field(s.lastStepIdle);
    CalendarQueue<IqEvent>::io(s.iqEvents, a, [&](auto &ev) {
        a.field(ev.seq);
        a.bounded(ev.cluster, 0, maxClusters - 1);
        a.field(ev.fp);
    });

    // statistics
    a.field(s.stats.cycles);
    a.field(s.stats.committed);
    a.field(s.stats.committedBranches);
    a.field(s.stats.mispredicts);
    a.field(s.stats.loads);
    a.field(s.stats.stores);
    a.field(s.stats.distantIssued);
    a.field(s.stats.regTransfers);
    a.field(s.stats.bankLookups);
    a.field(s.stats.bankMispredicts);
    a.field(s.stats.reconfigurations);
    a.field(s.stats.flushWritebacks);
    a.field(s.stats.stallIq);
    a.field(s.stats.stallReg);
    a.field(s.stats.stallLsq);
    a.field(s.stats.stallRob);
    a.field(s.stats.stallEmpty);
    a.field(s.stats.activeClusterSum);

    a.field(s.tracePosition);

    // controller: the donor snapshot's clone (same factory as the
    // stored one by key construction) receives the dynamic state;
    // presence and name must agree or the payload is from a different
    // plan.
    a.shape(s.controller != nullptr);
    if (s.controller && a.ok()) {
        a.shape(s.controller->name());
        a.check(s.controller->checkpoint(a));
    }
    return a.ok();
}

template bool Processor::Snapshot::io(const Processor::Snapshot &,
                                      SnapshotWriter &);
template bool Processor::Snapshot::io(Processor::Snapshot &,
                                      SnapshotReader &);

} // namespace clustersim
