/// \file Unit tests of the benchmark harness utilities (the numbers in
/// EXPERIMENTS.md are only as trustworthy as these helpers).
#include <bench_util/bench_util.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

TEST(BenchStats, BasicMoments)
{
    auto const s = bench::computeStats({4.0, 1.0, 3.0, 2.0, 5.0});
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
}

TEST(BenchStats, EvenMedianInterpolates)
{
    EXPECT_DOUBLE_EQ(bench::computeStats({4.0, 1.0, 3.0, 2.0}).median, 2.5);
}

TEST(BenchStats, EmptyIsZeroed)
{
    auto const s = bench::computeStats({});
    EXPECT_EQ(s.mean, 0.0);
    EXPECT_EQ(s.stddev, 0.0);
}

TEST(BenchTime, MeasuresElapsedWallClock)
{
    auto const t = bench::timeOnce([] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
    EXPECT_GE(t, 0.018);
    EXPECT_LT(t, 0.5);
}

//! Each repetition times itself. timeBestOf's timing of a repetition
//! brackets the repetition's own, so it is longer by only the few
//! instructions between the two clock reads: the best-of lies between
//! the shortest self-timed repetition and that plus a 2 ms margin,
//! however late a sleep woke up. The mean (about 20 ms) or the last
//! repetition (30 ms) of a run whose short repetition really took about
//! 1 ms lies far outside.
TEST(BenchTime, BestOfTakesTheMinimum)
{
    std::vector<double> own;
    own.reserve(3);
    auto const t = bench::timeBestOf(
        3,
        [&]
        {
            auto const start = std::chrono::steady_clock::now();
            std::this_thread::sleep_for(std::chrono::milliseconds(own.size() == 1 ? 1 : 30));
            own.push_back(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
        });
    ASSERT_EQ(own.size(), 3u);
    auto const shortest = *std::min_element(own.begin(), own.end());
    EXPECT_GE(t, shortest);
    EXPECT_LT(t, shortest + 0.002) << "did not pick the fastest repetition (self-timed: " << own[0] << ", "
                                   << own[1] << ", " << own[2] << " s)";
}

TEST(BenchPaired, SummarizesTheRatioSpread)
{
    auto const p = bench::summarizePairs({1.0, 2.0, 1.0, 1.0}, {1.0, 2.4, 1.1, 1.4});
    EXPECT_EQ(p.n, 4u);
    EXPECT_DOUBLE_EQ(p.min, 1.0);
    EXPECT_DOUBLE_EQ(p.max, 1.4);
    EXPECT_DOUBLE_EQ(p.median, 1.15);
    EXPECT_NEAR(p.iqr, 1.25 - 1.075, 1e-12);
    EXPECT_DOUBLE_EQ(p.aSeconds, 1.0);
    EXPECT_DOUBLE_EQ(p.bSeconds, 1.25);
}

TEST(BenchPaired, EmptyIsZeroed)
{
    auto const p = bench::summarizePairs({}, {});
    EXPECT_EQ(p.n, 0u);
    EXPECT_EQ(p.median, 0.0);
}

TEST(BenchPaired, InterleavesSidesAndPreparesEachUntimed)
{
    std::string trace;
    auto const p = bench::paired(
        2,
        [&] { trace += 'a'; },
        [&] { trace += 'b'; },
        3,
        [&](bench::Side side) { trace += side == bench::Side::a ? 'A' : 'B'; });
    EXPECT_EQ(trace, "AaaaBbbbAaaaBbbb");
    EXPECT_EQ(p.n, 2u);
}

TEST(BenchGates, PrintEveryCheckAndNameTheFailures)
{
    std::ostringstream out;
    auto* const old = std::cout.rdbuf(out.rdbuf());
    bench::Gates gates;
    gates.atLeast("speedup", 3.0, 2.0);
    gates.below("error", 0.5, 0.1);
    gates.equal("matches", true, true);
    gates.above("geomean", 0.9, 0.9);
    std::cout.rdbuf(old);
    EXPECT_EQ(
        out.str(),
        "gate speedup: 3 >= 2 PASS\n"
        "gate error: 0.5 < 0.1 FAIL\n"
        "gate matches: true == true PASS\n"
        "gate geomean: 0.9 > 0.9 FAIL\n");
    EXPECT_FALSE(gates.ok());
    EXPECT_EQ(gates.failedNames(), "error, geomean");
}

TEST(BenchGflops, Arithmetic)
{
    EXPECT_DOUBLE_EQ(bench::gflops(2e9, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(bench::gflops(1e9, 0.5), 2.0);
}

TEST(BenchFmt, FixedPrecision)
{
    EXPECT_EQ(bench::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(bench::fmt(1.0, 3), "1.000");
}

TEST(BenchTable, AlignedOutputContainsAllCells)
{
    bench::Table t({"col_a", "b"});
    t.addRow({"1", "long-cell-value"});
    t.addRow({"22", "x"});
    std::ostringstream os;
    t.print(os);
    auto const out = os.str();
    EXPECT_NE(out.find("col_a"), std::string::npos);
    EXPECT_NE(out.find("long-cell-value"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(BenchTable, CsvRowsMatchData)
{
    bench::Table t({"n", "v"});
    t.addRow({"1", "2.5"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "csv: n,v\ncsv: 1,2.5\n");
}

TEST(BenchEnv, FullSweepDefaultsOff)
{
    // The test environment must not set ALPAKA_BENCH_FULL; quick sweeps
    // keep CI fast.
    if(std::getenv("ALPAKA_BENCH_FULL") == nullptr)
    {
        EXPECT_FALSE(bench::fullSweep());
    }
}
