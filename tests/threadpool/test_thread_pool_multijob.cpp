/// \file Concurrency tests of the multi-slot job ring (DESIGN.md §3.5):
/// N submitter threads × M jobs each on ONE pool. Invariant 1 (every index
/// visited exactly once) must hold per job under concurrent submission,
/// exceptions must stay confined to their submitting job, re-entrant
/// submission must stay rejected (typed: threadpool::UsageError), and the
/// degenerate single-worker pool must still complete everything. These
/// tests are part of the ThreadSanitizer CI layer — they exercise the
/// publish/steal/close protocol from many threads at once on purpose.
#include <threadpool/team_pool.hpp>
#include <threadpool/thread_pool.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace
{
    //! Runs \p submitters threads, each performing \p jobsEach parallelFor
    //! calls of \p count indices on \p pool, and verifies per-job exact
    //! coverage. Distinct counts per submitter shake the grain formula.
    void churn(threadpool::ThreadPool& pool, int submitters, int jobsEach, std::size_t count)
    {
        std::barrier startLine(submitters);
        std::atomic<int> failures{0};
        std::vector<std::jthread> threads;
        threads.reserve(static_cast<std::size_t>(submitters));
        for(int s = 0; s < submitters; ++s)
            threads.emplace_back(
                [&, s]
                {
                    // Per-submitter count: exercises different grains in
                    // concurrently open slots.
                    auto const myCount = count + static_cast<std::size_t>(s);
                    std::vector<std::atomic<std::uint8_t>> visits(myCount);
                    startLine.arrive_and_wait();
                    for(int j = 0; j < jobsEach; ++j)
                    {
                        for(auto& v : visits)
                            v.store(0, std::memory_order_relaxed);
                        pool.parallelFor(myCount, [&](std::size_t i) { visits[i].fetch_add(1); });
                        for(std::size_t i = 0; i < myCount; ++i)
                            if(visits[i].load() != 1)
                                failures.fetch_add(1);
                    }
                });
        threads.clear(); // join
        EXPECT_EQ(failures.load(), 0);
    }
} // namespace

TEST(ThreadPoolMultiJob, ConcurrentSubmittersCoverEveryIndexExactlyOnce)
{
    threadpool::ThreadPool pool(3);
    churn(pool, 4, 50, 64);
}

TEST(ThreadPoolMultiJob, TinyGridsUnderHeavySubmitterChurn)
{
    // count=1..8: the regime where publish/close dominates and stale
    // workers are most likely to race a republish.
    threadpool::ThreadPool pool(2);
    churn(pool, 6, 100, 1);
    churn(pool, 6, 100, 8);
}

TEST(ThreadPoolMultiJob, MoreSubmittersThanSlotsStillComplete)
{
    // Exceeding the ring capacity exercises the blocking fallback (a
    // submitter queuing behind a slot holder).
    threadpool::ThreadPool pool(2);
    churn(
        pool,
        static_cast<int>(threadpool::ThreadPool::slotCount) + 4,
        20,
        32);
}

TEST(ThreadPoolMultiJob, SingleWorkerPoolCompletesConcurrentJobs)
{
    threadpool::ThreadPool pool(1);
    churn(pool, 4, 40, 16);
}

TEST(ThreadPoolMultiJob, JobsFromDistinctSubmittersOverlap)
{
    // The tentpole property, asserted by dependence instead of timing: job
    // A cannot finish until job B ran. If concurrent submitters serialized
    // at the pool (the PR 1 single-slot engine: A's submitter holds the
    // submit mutex until A drained), B could never start and this would
    // deadlock; with the job ring, B publishes into its own slot and B's
    // submitter drains it itself.
    threadpool::ThreadPool pool(1); // even with every worker stuck in A
    std::atomic<bool> bRan{false};
    std::atomic<bool> aStarted{false};
    std::jthread a(
        [&]
        {
            pool.parallelFor(
                1,
                [&](std::size_t)
                {
                    aStarted.store(true);
                    while(!bRan.load())
                        std::this_thread::yield();
                });
        });
    std::jthread b(
        [&]
        {
            while(!aStarted.load())
                std::this_thread::yield();
            pool.parallelFor(1, [&](std::size_t) { bRan.store(true); });
        });
    a.join();
    b.join();
    EXPECT_TRUE(bRan.load());
}

TEST(ThreadPoolMultiJob, ExceptionsStayConfinedToTheSubmittingJob)
{
    threadpool::ThreadPool pool(3);
    constexpr int submitters = 4;
    constexpr int rounds = 50;
    std::barrier startLine(submitters);
    std::atomic<int> wrongCatches{0};
    std::vector<std::jthread> threads;
    for(int s = 0; s < submitters; ++s)
        threads.emplace_back(
            [&, s]
            {
                auto const tag = "boom from submitter " + std::to_string(s);
                bool const throwing = (s % 2 == 0);
                startLine.arrive_and_wait();
                for(int r = 0; r < rounds; ++r)
                {
                    std::atomic<int> executed{0};
                    bool caught = false;
                    try
                    {
                        pool.parallelFor(
                            48,
                            [&](std::size_t i)
                            {
                                executed.fetch_add(1);
                                if(throwing && i == 17)
                                    throw std::runtime_error(tag);
                            });
                    }
                    catch(std::runtime_error const& e)
                    {
                        caught = true;
                        // The error must be the one thrown inside THIS
                        // submitter's job, even though pool workers drain
                        // chunks of several jobs concurrently.
                        if(e.what() != tag)
                            wrongCatches.fetch_add(1);
                    }
                    if(caught != throwing)
                        wrongCatches.fetch_add(1);
                    if(executed.load() != 48)
                        wrongCatches.fetch_add(1);
                }
            });
    threads.clear();
    EXPECT_EQ(wrongCatches.load(), 0);
}

TEST(ThreadPoolMultiJob, NestedSubmissionRejectedUnderConcurrency)
{
    threadpool::ThreadPool pool(2);
    constexpr int submitters = 3;
    std::atomic<int> rejected{0};
    std::vector<std::jthread> threads;
    for(int s = 0; s < submitters; ++s)
        threads.emplace_back(
            [&]
            {
                for(int r = 0; r < 20; ++r)
                    pool.parallelFor(
                        8,
                        [&](std::size_t)
                        {
                            try
                            {
                                pool.parallelFor(2, [](std::size_t) {});
                            }
                            catch(threadpool::UsageError const&)
                            {
                                rejected.fetch_add(1);
                            }
                        });
            });
    threads.clear();
    EXPECT_EQ(rejected.load(), submitters * 20 * 8);
}

// ---------------------------------------------------------------------
// Typed usage errors (DESIGN.md invariant 4): the pools reject misuse with
// threadpool::UsageError, which is-a std::logic_error for legacy catchers.

TEST(ThreadPoolUsage, ReentrantSubmissionThrowsTypedUsageError)
{
    threadpool::ThreadPool pool(2);
    std::atomic<int> typed{0};
    pool.parallelFor(
        4,
        [&](std::size_t)
        {
            try
            {
                pool.parallelFor(1, [](std::size_t) {});
            }
            catch(threadpool::UsageError const&)
            {
                typed.fetch_add(1);
            }
        });
    EXPECT_EQ(typed.load(), 4);
    static_assert(std::is_base_of_v<std::logic_error, threadpool::UsageError>);
}

TEST(ThreadPoolUsage, NestedTeamRunThrowsTypedUsageError)
{
    threadpool::TeamPool pool;
    std::atomic<int> typed{0};
    pool.runTeam(
        2,
        [&](std::size_t)
        {
            try
            {
                pool.runTeam(1, [](std::size_t) {});
            }
            catch(threadpool::UsageError const&)
            {
                typed.fetch_add(1);
            }
        });
    EXPECT_EQ(typed.load(), 2);
}

TEST(ThreadPoolMultiJob, MixedJobAndTeamTrafficCoexists)
{
    // ThreadPool jobs and TeamPool barrier teams share the process; they
    // must not interfere (distinct substrates, but the test pins the
    // combined wakeup paths under contention).
    threadpool::ThreadPool jobs(2);
    threadpool::TeamPool teams;
    std::atomic<std::uint64_t> jobTotal{0};
    std::atomic<std::uint64_t> teamTotal{0};
    std::jthread jobThread(
        [&]
        {
            for(int r = 0; r < 60; ++r)
                jobs.parallelFor(32, [&](std::size_t) { jobTotal.fetch_add(1); });
        });
    std::jthread teamThread(
        [&]
        {
            for(int r = 0; r < 60; ++r)
                teams.runTeam(3, [&](std::size_t) { teamTotal.fetch_add(1); });
        });
    jobThread.join();
    teamThread.join();
    EXPECT_EQ(jobTotal.load(), 60u * 32u);
    EXPECT_EQ(teamTotal.load(), 60u * 3u);
}

// ---------------------------------------------------------------------
// Pre-built jobs (DESIGN.md §4.3: the graph replay engine submits its
// frozen job descriptor per replay).

TEST(ThreadPoolPrebuilt, PrebuiltJobRunsRepeatedlyWithExactCoverage)
{
    threadpool::ThreadPool pool(2);
    constexpr std::size_t count = 97;
    std::vector<std::atomic<std::uint32_t>> visits(count);
    auto const body = [&](std::size_t i) { visits[i].fetch_add(1); };
    auto const job = pool.prebuild(count, body);
    EXPECT_EQ(job.count(), count);

    constexpr int runs = 5;
    for(int r = 0; r < runs; ++r)
        pool.runPrebuilt(job);
    for(std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(visits[i].load(), static_cast<std::uint32_t>(runs)) << "index " << i;
}

TEST(ThreadPoolPrebuilt, EmptyPrebuiltIsNoop)
{
    threadpool::ThreadPool pool(1);
    int runs = 0;
    auto const body = [&](std::size_t) { ++runs; };
    auto const job = pool.prebuild(0, body);
    EXPECT_NO_THROW(pool.runPrebuilt(job));
    EXPECT_EQ(runs, 0);
}

// ---------------------------------------------------------------------
// Per-stream slot affinity hint (ROADMAP open item): a thread that keeps
// submitting re-acquires the slot it used last time instead of walking
// the ticket scan.

TEST(ThreadPoolAffinity, SequentialSubmitterReusesItsSlot)
{
    threadpool::ThreadPool pool(2);
    std::jthread submitter(
        [&]
        {
            pool.parallelFor(16, [](std::size_t) {});
            auto const first = threadpool::ThreadPool::lastSlotHint();
            ASSERT_NE(first, threadpool::ThreadPool::npos);
            for(int r = 0; r < 20; ++r)
            {
                pool.parallelFor(16, [](std::size_t) {});
                EXPECT_EQ(threadpool::ThreadPool::lastSlotHint(), first)
                    << "uncontended sequential submissions must stay on one slot";
            }
        });
}

TEST(ThreadPoolAffinity, HintYieldsWhenSlotIsHeld)
{
    // Two submitters ping-ponging on one pool: when a submitter's hinted
    // slot is held by the other, it must fall back to another slot and
    // still complete (the hint is an optimization, never a constraint).
    threadpool::ThreadPool pool(2);
    std::atomic<std::uint64_t> total{0};
    std::barrier startLine(2);
    std::vector<std::jthread> submitters;
    for(int s = 0; s < 2; ++s)
        submitters.emplace_back(
            [&]
            {
                startLine.arrive_and_wait();
                for(int r = 0; r < 200; ++r)
                    pool.parallelFor(8, [&](std::size_t) { total.fetch_add(1); });
            });
    submitters.clear();
    EXPECT_EQ(total.load(), 2u * 200u * 8u);
}
