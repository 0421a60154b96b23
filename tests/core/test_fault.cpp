// Fault-injection framework (DESIGN.md §7.2): seeded deterministic
// schedules, scoped plans, and the zero-code-when-off contract
// (invariant 17). The schedule-math tests (Plan::decides is a pure
// function) run in every build; the live-site tests need the sites
// compiled in and skip unless ALPAKA_REPRO_FAULTINJECT=ON.

#include "alpaka/core/fault.hpp"
#include "alpaka/core/hash.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <set>
#include <thread>
#include <vector>

using alpaka::fault::InjectedFault;
using alpaka::fault::Plan;
using alpaka::fault::Trigger;

namespace
{
    auto stressSeed() -> std::uint64_t
    {
        return Plan::envSeed();
    }

    // A test-owned site: exercises the framework without depending on
    // any production code path.
    void pokeSite()
    {
        ALPAKA_FAULT_POINT("test.site");
    }
} // namespace

// ---------------------------------------------------------------- schedules

TEST(FaultDecides, OnceFiresExactlyOnNthHit)
{
    auto const t = Trigger::once(3);
    EXPECT_FALSE(Plan::decides(1, "s", t, 1));
    EXPECT_FALSE(Plan::decides(1, "s", t, 2));
    EXPECT_TRUE(Plan::decides(1, "s", t, 3));
    EXPECT_FALSE(Plan::decides(1, "s", t, 4));
    EXPECT_FALSE(Plan::decides(1, "s", t, 1000));
}

TEST(FaultDecides, EveryKthFromFirst)
{
    auto const t = Trigger::every(3, 2); // hits 2, 5, 8, ...
    std::vector<std::uint64_t> fired;
    for(std::uint64_t hit = 1; hit <= 10; ++hit)
        if(Plan::decides(1, "s", t, hit))
            fired.push_back(hit);
    EXPECT_EQ(fired, (std::vector<std::uint64_t>{2, 5, 8}));
}

TEST(FaultDecides, ProbabilityIsDeterministicInSeedSiteAndHit)
{
    auto const t = Trigger::withProbability(0.5);
    for(std::uint64_t hit = 1; hit <= 64; ++hit)
        EXPECT_EQ(
            Plan::decides(42, "site.a", t, hit),
            Plan::decides(42, "site.a", t, hit)); // pure: same inputs, same answer
    // Different seeds and different sites give different schedules
    // (overwhelmingly; check over a window so the test is robust).
    int diffSeed = 0;
    int diffSite = 0;
    for(std::uint64_t hit = 1; hit <= 256; ++hit)
    {
        diffSeed += Plan::decides(1, "site.a", t, hit) != Plan::decides(2, "site.a", t, hit);
        diffSite += Plan::decides(1, "site.a", t, hit) != Plan::decides(1, "site.b", t, hit);
    }
    EXPECT_GT(diffSeed, 0);
    EXPECT_GT(diffSite, 0);
}

TEST(FaultDecides, ProbabilityRoughlyCalibrated)
{
    auto const t = Trigger::withProbability(0.25);
    int fired = 0;
    constexpr int hits = 4000;
    for(std::uint64_t hit = 1; hit <= hits; ++hit)
        fired += Plan::decides(stressSeed(), "calib", t, hit);
    // 4000 Bernoulli(0.25) trials: mean 1000, sigma ~27. +-8 sigma.
    EXPECT_GT(fired, 780);
    EXPECT_LT(fired, 1220);
}

TEST(FaultDecides, BoundaryProbabilities)
{
    EXPECT_TRUE(Plan::decides(1, "s", Trigger::withProbability(1.0), 7));
    EXPECT_FALSE(Plan::decides(1, "s", Trigger::withProbability(0.0), 7));
}

// The fault plan and the router's ring share one FNV-1a and one mixer
// (alpaka/core/hash.hpp); these values pin both, so recorded chaos seeds
// and tenant placements replay across releases.
TEST(FaultDecides, HashesAndSchedulesArePinned)
{
    using alpaka::core::fnv1a;
    using alpaka::core::mix64;
    EXPECT_EQ(fnv1a("serve.kernel_throw"), 0xe37d66cb125478f0ULL);
    EXPECT_EQ(mix64(fnv1a("tenant-0")), 0x30a446adc7db6d64ULL);
    EXPECT_EQ(mix64(fnv1a("shard/0/0")), 0x0dce5c3104764b25ULL);

    // The seeds of 1..40 whose first serve.kernel_throw hit fires at
    // p = 0.25.
    std::set<std::uint64_t> firstHitFires;
    for(std::uint64_t seed = 1; seed <= 40; ++seed)
        if(Plan::decides(seed, "serve.kernel_throw", Trigger::withProbability(0.25), 1))
            firstHitFires.insert(seed);
    EXPECT_EQ(firstHitFires, (std::set<std::uint64_t>{5, 17, 25, 26, 32, 40}));
}

// ---------------------------------------------------------------- live sites

#if defined(ALPAKA_REPRO_FAULTINJECT)
#    define REQUIRES_FAULTINJECT() (void) 0
#else
#    define REQUIRES_FAULTINJECT() GTEST_SKIP() << "built without ALPAKA_REPRO_FAULTINJECT"
#endif

TEST(FaultPlan, UnarmedSiteDoesNothing)
{
    // No plan installed: the site must be a no-op in every build mode.
    EXPECT_NO_THROW(pokeSite());
}

TEST(FaultPlan, FailFiresOnScheduleAndCounts)
{
    REQUIRES_FAULTINJECT();
    Plan plan(7);
    plan.fail("test.site", Trigger::once(2));
    EXPECT_NO_THROW(pokeSite()); // hit 1
    EXPECT_THROW(pokeSite(), InjectedFault); // hit 2
    EXPECT_NO_THROW(pokeSite()); // hit 3: one-shot is spent
    EXPECT_EQ(plan.hits("test.site"), 3u);
    EXPECT_EQ(plan.fires("test.site"), 1u);
}

TEST(FaultPlan, CustomExceptionFactory)
{
    REQUIRES_FAULTINJECT();
    Plan plan(7);
    plan.fail("test.site", Trigger::once(1), [] { return std::make_exception_ptr(std::bad_alloc()); });
    EXPECT_THROW(pokeSite(), std::bad_alloc);
}

TEST(FaultPlan, DelayDelaysInsteadOfThrowing)
{
    REQUIRES_FAULTINJECT();
    Plan plan(7);
    plan.delay("test.site", std::chrono::milliseconds(30), Trigger::once(1));
    auto const start = std::chrono::steady_clock::now();
    EXPECT_NO_THROW(pokeSite());
    auto const elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_GE(elapsed, std::chrono::milliseconds(25));
    EXPECT_EQ(plan.fires("test.site"), 1u);
}

TEST(FaultPlan, ScopedUninstall)
{
    REQUIRES_FAULTINJECT();
    {
        Plan plan(7);
        plan.fail("test.site", Trigger::every(1));
        EXPECT_THROW(pokeSite(), InjectedFault);
    }
    // Plan destroyed: the site is disarmed again.
    EXPECT_NO_THROW(pokeSite());
}

TEST(FaultPlan, MaxFiresCapsAPeriodicRule)
{
    REQUIRES_FAULTINJECT();
    Plan plan(7);
    plan.fail("test.site", Trigger{1, 1, 1.0, 2}); // every hit, at most twice
    EXPECT_THROW(pokeSite(), InjectedFault);
    EXPECT_THROW(pokeSite(), InjectedFault);
    for(int i = 0; i < 5; ++i)
        EXPECT_NO_THROW(pokeSite());
    EXPECT_EQ(plan.fires("test.site"), 2u);
}

TEST(FaultPlan, SeededScheduleIsReproducibleAcrossPlans)
{
    REQUIRES_FAULTINJECT();
    auto const seed = stressSeed();
    auto const run = [&]() -> std::vector<int>
    {
        Plan plan(seed);
        plan.fail("test.site", Trigger::withProbability(0.3));
        std::vector<int> outcome;
        for(int i = 0; i < 200; ++i)
        {
            try
            {
                pokeSite();
                outcome.push_back(0);
            }
            catch(InjectedFault const&)
            {
                outcome.push_back(1);
            }
        }
        return outcome;
    };
    auto const first = run();
    auto const second = run();
    EXPECT_EQ(first, second); // fresh plan, same seed: bit-identical schedule
    // And the offline oracle re-derives it without running anything.
    for(std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(
            first[i] == 1,
            Plan::decides(seed, "test.site", Trigger::withProbability(0.3), i + 1));
}

TEST(FaultPlan, ConcurrentHittersAgreeOnTheSchedule)
{
    REQUIRES_FAULTINJECT();
    // N threads hammer one site armed to fire on exactly one hit index;
    // the hit counter is shared, so exactly one thread must see the
    // throw, however the threads interleave.
    Plan plan(7);
    plan.fail("test.site", Trigger::once(500));
    std::atomic<int> thrown{0};
    std::vector<std::thread> threads;
    for(int t = 0; t < 4; ++t)
        threads.emplace_back(
            [&]
            {
                for(int i = 0; i < 250; ++i)
                {
                    try
                    {
                        pokeSite();
                    }
                    catch(InjectedFault const&)
                    {
                        thrown.fetch_add(1);
                    }
                }
            });
    for(auto& t : threads)
        t.join();
    EXPECT_EQ(thrown.load(), 1);
    EXPECT_EQ(plan.hits("test.site"), 1000u);
}

TEST(FaultPlan, StackedPlansBothApply)
{
    REQUIRES_FAULTINJECT();
    Plan outer(7);
    outer.fail("test.site", Trigger::once(2));
    {
        Plan inner(7);
        inner.delay("test.site", std::chrono::milliseconds(1), Trigger::once(1));
        // Hit 1: inner delays (its own counter), outer counts hit 1.
        EXPECT_NO_THROW(pokeSite());
        EXPECT_EQ(inner.fires("test.site"), 1u);
    }
    // Hit 2 on outer's counter: fires.
    EXPECT_THROW(pokeSite(), InjectedFault);
}
