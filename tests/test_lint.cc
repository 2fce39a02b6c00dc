/**
 * @file
 * Self-tests for simlint, the project-native static checker.
 *
 * Each tests/lint/bad_*.cc fixture must trip exactly its advertised
 * rule id; the good fixtures and the real source tree must come back
 * clean. The S-rule fixture trees are miniature stats pipelines
 * (processor.hh / simulation.* / sweep.cc / test_properties.cc) that
 * prove a scratch ProcessorStats field cannot escape golden coverage
 * silently.
 *
 * The driver shells out to the real binary (SIMLINT_BIN, injected by
 * CMake) so the exit-code contract is tested exactly as CI uses it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

namespace {

struct LintRun {
    int exitCode;
    std::string output;
};

LintRun
runSimlint(const std::string &args)
{
    std::string cmd = std::string(SIMLINT_BIN) + " " + args + " 2>&1";
    FILE *p = popen(cmd.c_str(), "r");
    EXPECT_NE(p, nullptr) << cmd;
    if (!p)
        return {-1, ""};
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        out.append(buf, n);
    int status = pclose(p);
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

std::string
fixture(const std::string &name)
{
    return std::string(CLUSTERSIM_LINT_FIXTURES) + "/" + name;
}

/** A bad fixture must exit non-zero and name its rule id. */
void
expectFires(const std::string &file, const std::string &rule)
{
    LintRun r = runSimlint("--no-stats --quiet " + fixture(file));
    EXPECT_NE(r.exitCode, 0) << file << "\n" << r.output;
    EXPECT_NE(r.output.find(rule), std::string::npos)
        << file << " should report " << rule << "; got:\n" << r.output;
}

} // namespace

TEST(SimlintSelfTest, BadFixturesFireTheirRule)
{
    expectFires("bad_d001.cc", "D001");
    expectFires("bad_d002.cc", "D002");
    expectFires("bad_d003.cc", "D003");
    expectFires("bad_d004.cc", "D004");
    expectFires("bad_d005.cc", "D005");
    expectFires("bad_h001.cc", "H001");
    expectFires("bad_h002.cc", "H002");
    expectFires("bad_h003.cc", "H003");
    expectFires("bad_h004.cc", "H004");
    expectFires("bad_t001.cc", "T001");
    expectFires("bad_l001.cc", "L001");
    expectFires("bad_c001.cc", "C001");
    expectFires("bad_c002.cc", "C002");
    expectFires("bad_c003.cc", "C003");
    expectFires("bad_c004.cc", "C004");
    expectFires("bad_c005.cc", "C005");
}

TEST(SimlintSelfTest, ConcurrencyRulesPassOnDisciplinedCode)
{
    // Annotated members, reasoned suppressions, predicate waits, a
    // DAG lock order, declared guards, and a blessed launcher file:
    // every C rule's negative case in one fixture.
    LintRun r = runSimlint("--no-stats --quiet " +
                           fixture("good_concurrency.cc"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(SimlintSelfTest, LockOrderCycleNamesTheCycle)
{
    LintRun r = runSimlint("--no-stats --quiet " +
                           fixture("bad_c004.cc"));
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("C004"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("a_ -> b_ -> c_ -> a_"), std::string::npos)
        << "the finding should spell out the cycle:\n" << r.output;
}

TEST(SimlintSelfTest, LockGraphDumpListsDeclaredEdges)
{
    LintRun r = runSimlint("--no-stats --quiet --lock-graph " +
                           fixture("bad_c004.cc"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("a_ -> b_"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("c_ -> a_"), std::string::npos) << r.output;
}

TEST(SimlintSelfTest, RuleSelectionFiltersByCategory)
{
    // The same fixture is clean under --rules D and fires under
    // --rules C: selection gates both the findings and the exit code.
    LintRun rd = runSimlint("--no-stats --quiet --rules D " +
                            fixture("bad_c001.cc"));
    EXPECT_EQ(rd.exitCode, 0) << rd.output;
    LintRun rc = runSimlint("--no-stats --quiet --rules C " +
                            fixture("bad_c001.cc"));
    EXPECT_NE(rc.exitCode, 0);
    EXPECT_NE(rc.output.find("C001"), std::string::npos) << rc.output;
}

TEST(SimlintSelfTest, SummaryLineReportsPerRuleCounts)
{
    // Without --quiet the stderr summary carries the file count, the
    // per-rule breakdown, and a wall time.
    LintRun r = runSimlint("--no-stats " + fixture("bad_c001.cc"));
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("1 file(s)"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("[C001 x1]"), std::string::npos) << r.output;
}

TEST(SimlintSelfTest, TraceGateRuleSparesColdRegions)
{
    // The T001 fixture names the sink on one hot-path line (two
    // identifiers, so two findings) and again inside a cold region,
    // which must stay silent.
    LintRun r = runSimlint("--no-stats --quiet " +
                           fixture("bad_t001.cc"));
    EXPECT_NE(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("T001"), std::string::npos) << r.output;
    EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 2)
        << "only the hot-path line should fire:\n" << r.output;
}

TEST(SimlintSelfTest, HotPathRulesStayQuietWithoutAnnotation)
{
    // The H002 fixture minus its hot-path annotation is ordinary cold
    // code: strip the annotation by scanning the D-rule-only good file
    // instead (push_back/new outside hot files must not fire).
    LintRun r = runSimlint("--no-stats --quiet " +
                           fixture("good_clean.cc"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(SimlintSelfTest, SuppressionsAndColdRegionsSilenceFindings)
{
    LintRun r = runSimlint("--no-stats --quiet " +
                           fixture("good_suppressed.cc"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(SimlintSelfTest, StatsRulesCatchEscapedCounters)
{
    std::string tree = fixture("s_bad");
    LintRun r = runSimlint("--quiet --project-root " + tree + " " +
                           tree + "/src");
    EXPECT_NE(r.exitCode, 0);
    // The scratch ProcessorStats field escapes the equivalence
    // comparator (S001) and the per-field reset (S003); the ghost and
    // orphan SimResult metrics escape the export path (S002).
    EXPECT_NE(r.output.find("S001"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("scratchCounter"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("S002"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("orphanMetric"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("ghostMetric"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("S003"), std::string::npos) << r.output;
}

TEST(SimlintSelfTest, StatsRulesPassOnCoveredTree)
{
    std::string tree = fixture("s_good");
    LintRun r = runSimlint("--quiet --project-root " + tree + " " +
                           tree + "/src");
    EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(SimlintSelfTest, SnapshotRuleCatchesEscapedFields)
{
    std::string tree = fixture("s_snap_bad");
    LintRun r = runSimlint("--quiet --project-root " + tree + " " +
                           tree + "/src");
    EXPECT_NE(r.exitCode, 0);
    // Each fixture field escapes a different leg of the checkpoint
    // path: ghostPending is never applied by restore(), shadowDepth is
    // never listed in the snapshot's io().
    EXPECT_NE(r.output.find("S004"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("ghostPending is not applied"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("shadowDepth is not listed"),
              std::string::npos)
        << r.output;
    // The fully covered field stays silent.
    EXPECT_EQ(r.output.find("Snapshot::cycle"), std::string::npos)
        << r.output;
}

TEST(SimlintSelfTest, SnapshotRulePassesOnCoveredTree)
{
    // Full restore/io coverage plus one deliberately transient
    // field behind a written S004 suppression: clean.
    std::string tree = fixture("s_snap_good");
    LintRun r = runSimlint("--quiet --project-root " + tree + " " +
                           tree + "/src");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(SimlintSelfTest, ControllerRuleCatchesEscapedState)
{
    std::string tree = fixture("s_ctrl_bad");
    LintRun r = runSimlint("--quiet --project-root " + tree + " " +
                           tree + "/src");
    EXPECT_NE(r.exitCode, 0);
    // ghostTarget_ is missing from ProbeController::io(), and
    // OrphanTracker declares an io() that is never defined.
    EXPECT_NE(r.output.find("S005"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("ghostTarget_"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("OrphanTracker::io()"), std::string::npos)
        << r.output;
    // The listed members and the suppressed identity member stay
    // silent, and the nested type is not mistaken for a data member.
    EXPECT_EQ(r.output.find("committed_"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("orphanCount_"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("params_"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("TableEntry"), std::string::npos)
        << r.output;
}

TEST(SimlintSelfTest, ControllerRulePassesOnCoveredTree)
{
    // Full io() coverage plus one identity member
    // behind a written S005 suppression: clean.
    std::string tree = fixture("s_ctrl_good");
    LintRun r = runSimlint("--quiet --project-root " + tree + " " +
                           tree + "/src");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(SimlintSelfTest, FixListSummarizesByRule)
{
    LintRun r = runSimlint("--no-stats --quiet --fix-list " +
                           fixture("bad_d001.cc"));
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("fix list:"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("D001"), std::string::npos) << r.output;
}

TEST(SimlintSelfTest, RealSourceTreeIsClean)
{
    // The acceptance gate: the shipped tree carries no diagnostics —
    // every finding is fixed or suppressed with a written reason.
    std::string root = CLUSTERSIM_SOURCE_ROOT;
    LintRun r = runSimlint("--quiet --project-root " + root + " " +
                           root + "/src");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}
