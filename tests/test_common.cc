/**
 * @file
 * Unit tests for the common utilities: RNG, saturating counters,
 * statistics, slot reservation, and table formatting.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/resource.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace clustersim;

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, Deterministic)
{
    Rng a(42, 7);
    Rng b(42, 7);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.next32(), b.next32());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next32() == b.next32())
            same++;
    EXPECT_LT(same, 3);
}

TEST(Rng, DifferentStreamsDiffer)
{
    Rng a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next32() == b.next32())
            same++;
    EXPECT_LT(same, 3);
}

TEST(Rng, RangeBounds)
{
    Rng r(3);
    for (std::uint32_t bound : {1u, 2u, 7u, 100u, 1000000u}) {
        for (int i = 0; i < 200; i++) {
            std::uint32_t v = r.range(bound);
            EXPECT_LT(v, bound);
        }
    }
}

TEST(Rng, RangeZeroReturnsZero)
{
    Rng r(3);
    EXPECT_EQ(r.range(0), 0u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; i++) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(5);
    for (int i = 0; i < 100; i++) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 20000; i++)
        if (r.chance(0.3))
            hits++;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng r(13);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; i++)
        sum += r.geometric(0.25);
    // Mean of geometric (failures before success) is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(21);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next32() == b.next32())
            same++;
    EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------------------
// SatCounter
// ---------------------------------------------------------------------------

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 0);
    for (int i = 0; i < 10; i++)
        c.increment();
    EXPECT_EQ(c.value(), 3);
    EXPECT_TRUE(c.predictTaken());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 3);
    for (int i = 0; i < 10; i++)
        c.decrement();
    EXPECT_EQ(c.value(), 0);
    EXPECT_FALSE(c.predictTaken());
}

TEST(SatCounter, MidpointPredictsNotTaken)
{
    SatCounter c(2, 1); // weakly not-taken
    EXPECT_FALSE(c.predictTaken());
    c.update(true);
    EXPECT_TRUE(c.predictTaken()); // 2: weakly taken
}

TEST(SatCounter, HysteresisNeedsTwoFlips)
{
    SatCounter c(2, 3); // strongly taken
    c.update(false);
    EXPECT_TRUE(c.predictTaken());
    c.update(false);
    EXPECT_FALSE(c.predictTaken());
}

TEST(SatCounter, ThreeBitRange)
{
    SatCounter c(3, 0);
    for (int i = 0; i < 20; i++)
        c.increment();
    EXPECT_EQ(c.value(), 7);
    EXPECT_EQ(c.max(), 7);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageMean)
{
    Average a;
    a.sample(1.0);
    a.sample(2.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Stats, AverageEmptyIsZero)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Stats, GeomeanAndAmean)
{
    std::vector<double> v = {1.0, 4.0};
    EXPECT_DOUBLE_EQ(geomean(v), 2.0);
    EXPECT_DOUBLE_EQ(amean(v), 2.5);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(amean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({1.0, 0.0}), 0.0); // non-positive guard
}

TEST(Stats, SafeRateClampsVanishingDenominator)
{
    // Ordinary denominators divide normally.
    EXPECT_DOUBLE_EQ(safeRate(100.0, 2.0), 50.0);
    EXPECT_DOUBLE_EQ(safeRate(5.0, 1e-6), 5.0e6);
    // A ~0 wall time must give a huge-but-finite rate, never inf: the
    // JSON writer spells inf as null, which poisons any later read of
    // the value (the perfbench --quick baseline regression).
    EXPECT_TRUE(std::isfinite(safeRate(1e6, 0.0)));
    EXPECT_DOUBLE_EQ(safeRate(1e6, 0.0), 1e6 / 1e-9);
    EXPECT_DOUBLE_EQ(safeRate(1e6, -1.0), 1e6 / 1e-9);
    EXPECT_DOUBLE_EQ(safeRate(0.0, 0.0), 0.0);
}

// ---------------------------------------------------------------------------
// SlotReserver
// ---------------------------------------------------------------------------

TEST(SlotReserver, SequentialConflictsPushBack)
{
    SlotReserver r(64);
    EXPECT_EQ(r.reserve(10), 10u);
    EXPECT_EQ(r.reserve(10), 11u);
    EXPECT_EQ(r.reserve(10), 12u);
    EXPECT_EQ(r.reserve(11), 13u);
}

TEST(SlotReserver, IndependentCyclesFree)
{
    SlotReserver r(64);
    EXPECT_EQ(r.reserve(5), 5u);
    EXPECT_EQ(r.reserve(100), 100u);
    EXPECT_EQ(r.reserve(7), 7u);
}

TEST(SlotReserver, WindowWrapTreatsStaleAsFree)
{
    SlotReserver r(16);
    EXPECT_EQ(r.reserve(3), 3u);
    // 3 + 16 maps to the same slot but is a different cycle: free.
    EXPECT_EQ(r.reserve(19), 19u);
}

TEST(SlotReserver, ReserveSpanContiguous)
{
    SlotReserver r(64);
    EXPECT_EQ(r.reserveSpan(10, 5), 10u); // occupies 10..14
    EXPECT_EQ(r.reserve(12), 15u);
    EXPECT_EQ(r.reserveSpan(13, 3), 16u); // next 3 free cycles 16..18
}

TEST(SlotReserver, SpanSkipsPartialHoles)
{
    SlotReserver r(64);
    r.reserve(11);
    // A 3-cycle span at 10 collides with 11 -> starts at 12.
    EXPECT_EQ(r.reserveSpan(10, 3), 12u);
}

TEST(SlotReserver, SpanEqualToWindowFits)
{
    SlotReserver r(16);
    EXPECT_EQ(r.reserveSpan(4, 16), 4u); // occupies 4..19 exactly
    // Every slot is now busy until its cycle passes; the next request
    // for an occupied cycle is pushed to the first cycle whose slot
    // has gone stale.
    EXPECT_EQ(r.reserve(4), 20u);
}

TEST(SlotReserver, SpanLongerThanWindowIsFatal)
{
    // A span longer than the window can never fit: any candidate start
    // collides with its own tail modulo the window, so the search
    // would spin forever. The reserver must report instead of looping.
    SlotReserver r(16);
    EXPECT_THROW(r.reserveSpan(0, 17), SimError);
    EXPECT_THROW(r.firstFreeSpan(0, 17), SimError);
}

// ---------------------------------------------------------------------------
// Table / logging
// ---------------------------------------------------------------------------

TEST(Table, FormatsAlignedColumns)
{
    Table t({"name", "value"});
    t.startRow();
    t.cell("alpha");
    t.cell(1.5, 1);
    t.startRow();
    t.cell("b");
    t.cell(std::uint64_t{42});
    std::string out = t.format();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Logging, FatalThrowsSimError)
{
    EXPECT_THROW(fatal("boom ", 42), SimError);
}
