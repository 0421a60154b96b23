/// \file Unit tests of the persistent worker pool substrate.
#include <threadpool/spin.hpp>
#include <threadpool/thread_pool.hpp>

#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <vector>

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    threadpool::ThreadPool pool(2);
    std::vector<std::atomic<int>> visits(1000);
    pool.parallelFor(1000, [&](std::size_t i) { visits[i] += 1; });
    for(auto const& v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ZeroCountIsANoop)
{
    threadpool::ThreadPool pool(2);
    EXPECT_NO_THROW(pool.parallelFor(0, [](std::size_t) { FAIL(); }));
}

TEST(ThreadPool, ReusableAcrossManyLoops)
{
    threadpool::ThreadPool pool(3);
    for(int round = 0; round < 50; ++round)
    {
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(100, [&](std::size_t i) { sum += i; });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

TEST(ThreadPool, SubmitterHelpsOnWork)
{
    // Even a pool whose workers are busy elsewhere can't deadlock: the
    // submitting thread participates in its own loop.
    threadpool::ThreadPool pool(1);
    std::atomic<int> count{0};
    pool.parallelFor(64, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, WorkerIndexIsStableAndBounded)
{
    threadpool::ThreadPool pool(2);
    std::mutex m;
    std::set<std::size_t> seen;
    pool.parallelFor(
        200,
        [&](std::size_t)
        {
            auto const w = threadpool::ThreadPool::currentWorkerIndex();
            std::scoped_lock lock(m);
            seen.insert(w);
        });
    // Either a pool worker (0..1) or the helping submitter (npos).
    for(auto const w : seen)
        EXPECT_TRUE(w < 2 || w == threadpool::ThreadPool::npos);
}

TEST(ThreadPool, NonWorkerThreadHasNoIndex)
{
    EXPECT_EQ(threadpool::ThreadPool::currentWorkerIndex(), threadpool::ThreadPool::npos);
}

TEST(ThreadPool, ExceptionsArePropagatedAfterDrain)
{
    threadpool::ThreadPool pool(2);
    std::atomic<int> executed{0};
    EXPECT_THROW(
        pool.parallelFor(
            100,
            [&](std::size_t i)
            {
                ++executed;
                if(i == 13)
                    throw std::runtime_error("injected");
            }),
        std::runtime_error);
    // All indices were still dispatched (no premature abort of siblings).
    EXPECT_EQ(executed.load(), 100);
    // Pool remains usable.
    std::atomic<int> ok{0};
    pool.parallelFor(10, [&](std::size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, ReentrantUseRejected)
{
    // Nested parallelFor from ANY participating thread — pool worker or the
    // helping submitter — must be rejected instead of corrupting the job.
    threadpool::ThreadPool pool(2);
    std::atomic<int> threwInside{0};
    pool.parallelFor(
        4,
        [&](std::size_t)
        {
            try
            {
                pool.parallelFor(2, [](std::size_t) {});
            }
            catch(threadpool::UsageError const&)
            {
                // Typed rejection (DESIGN invariant 4); is-a std::logic_error.
                ++threwInside;
            }
        });
    EXPECT_EQ(threwInside.load(), 4);
}

TEST(ThreadPool, GlobalPoolSingleton)
{
    auto& a = threadpool::ThreadPool::global();
    auto& b = threadpool::ThreadPool::global();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.workerCount(), 1u);
}

TEST(ThreadPool, LargeDynamicLoadIsBalancedToCompletion)
{
    threadpool::ThreadPool pool(4);
    std::atomic<std::uint64_t> total{0};
    // Skewed work: index i costs ~i iterations.
    pool.parallelFor(
        500,
        [&](std::size_t i)
        {
            std::uint64_t local = 0;
            for(std::size_t k = 0; k < i; ++k)
                local += k;
            total += local + 1;
        });
    std::uint64_t expected = 0;
    for(std::size_t i = 0; i < 500; ++i)
        expected += i * (i - 1) / 2 + 1;
    EXPECT_EQ(total.load(), expected);
}

TEST(PublishWord, ParkingConsumerNeverSleepsThroughRacingPublishers)
{
    // Lost-wake regression: one consumer that parks as soon as it finds
    // nothing, two publishers racing one item each per round. A publisher
    // stalled between its epoch bump and its wake decision must not be
    // able to eat the wake a later publisher owes the re-parked consumer.
    using Clock = std::chrono::steady_clock;
    constexpr int maxRounds = 100000;
    constexpr auto budget = std::chrono::seconds(3);
    constexpr auto consumeTimeout = std::chrono::seconds(1);

    // Shared with the consumer by ownership: on a lost wake it may never
    // return, so it is detached instead of joined.
    struct Shared
    {
        threadpool::detail::PublishWord word;
        std::array<std::atomic<bool>, 2> pending{};
        std::atomic<bool> stop{false};
    };
    auto const shared = std::make_shared<Shared>();
    std::thread consumer(
        [shared]
        {
            for(;;)
            {
                auto const seen = shared->word.snapshot();
                bool took = false;
                for(auto& item : shared->pending)
                    took = item.exchange(false, std::memory_order_acq_rel) || took;
                if(took)
                    continue;
                if(shared->stop.load(std::memory_order_acquire))
                    return;
                shared->word.park(seen);
            }
        });

    auto const start = Clock::now();
    int rounds = 0;
    bool done = false;
    std::atomic<int> lostRound{-1};
    std::atomic<int> lostPublisher{-1};
    std::barrier sync(
        2,
        [&]() noexcept
        {
            done = rounds == maxRounds || Clock::now() - start > budget || lostRound.load() >= 0;
            if(!done)
                ++rounds;
        });
    auto publisher = [&](int index)
    {
        std::mt19937 rng(0x5eed + index);
        std::uniform_int_distribution<int> jitter(0, 2047);
        for(;;)
        {
            sync.arrive_and_wait();
            if(done)
                return;
            for(int spin = jitter(rng); spin > 0; --spin)
                threadpool::detail::cpuRelax();
            auto& item = shared->pending[index];
            item.store(true, std::memory_order_release);
            shared->word.publish();
            auto const deadline = Clock::now() + consumeTimeout;
            while(item.load(std::memory_order_acquire))
            {
                if(Clock::now() > deadline)
                {
                    lostRound.store(rounds);
                    lostPublisher.store(index);
                    break;
                }
                std::this_thread::yield();
            }
        }
    };
    std::thread first(publisher, 0);
    std::thread second(publisher, 1);
    first.join();
    second.join();

    EXPECT_EQ(lostRound.load(), -1) << "publisher " << lostPublisher.load() << "'s item of round "
                                    << lostRound.load() << " was not consumed within 1 s (lost wake)";
    EXPECT_GT(rounds, 0);
    shared->stop.store(true, std::memory_order_release);
    shared->word.publish();
    if(lostRound.load() < 0)
        consumer.join();
    else
        consumer.detach();
}

//! The spin budget follows the calling thread's affinity mask, not the
//! machine's core count: a pool or service built on a thread confined to
//! one CPU must never spin (its threads inherit that one CPU).
TEST(SpinBudget, ThreadPinnedToOneCpuNeverSpins)
{
    cpu_set_t all;
    CPU_ZERO(&all);
    ASSERT_EQ(sched_getaffinity(0, sizeof(all), &all), 0);
    int first = 0;
    while(!CPU_ISSET(first, &all))
        ++first;
    int budget = -1;
    unsigned cpus = 0;
    std::thread pinned(
        [&]
        {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(first, &one);
            if(pthread_setaffinity_np(pthread_self(), sizeof(one), &one) != 0)
                return;
            cpus = threadpool::detail::usableCpus();
            budget = threadpool::detail::machineSpinBudget();
        });
    pinned.join();
    EXPECT_EQ(cpus, 1u);
    EXPECT_EQ(budget, 0);
}

TEST(SpinBudget, UnpinnedThreadOnSeveralCpusSpins)
{
    cpu_set_t all;
    CPU_ZERO(&all);
    ASSERT_EQ(sched_getaffinity(0, sizeof(all), &all), 0);
    if(CPU_COUNT(&all) < 2)
        GTEST_SKIP() << "this process may use only one CPU";
    int budget = -1;
    std::thread unpinned([&] { budget = threadpool::detail::machineSpinBudget(); });
    unpinned.join();
    EXPECT_EQ(budget, threadpool::detail::spinBeforePark);
}
