/// \file Seeded chaos across the whole stack (DESIGN.md §7.4): injected
/// substrate faults (copy failures, fence-poll and park delays), then
/// the full serving stack under multi-tenant traffic with stalls, OOM,
/// kernel throws, deadlines and cancellations at once. The contract
/// under chaos is threefold: nothing hangs, every future resolves
/// exactly once with a typed outcome (invariant 16), and nothing leaks
/// (allocation counts return to baseline). Phase A additionally proves
/// the chaos is DETERMINISTIC: the same ALPAKA_STRESS_SEED replays the
/// same fault schedule bit-for-bit, so any failure found here is
/// re-runnable. Injection-dependent tests skip unless the build was
/// configured with ALPAKA_REPRO_FAULTINJECT=ON (the CI chaos lane).
#include <serve/service.hpp>

#include <alpaka/alpaka.hpp>
#include <alpaka/core/fault.hpp>

#include <gpusim/gpusim.hpp>

#include <threadpool/thread_pool.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace alpaka;
using namespace std::chrono_literals;

#if defined(ALPAKA_REPRO_FAULTINJECT)
#    define REQUIRES_FAULTINJECT() (void) 0
#else
#    define REQUIRES_FAULTINJECT() GTEST_SKIP() << "built without ALPAKA_REPRO_FAULTINJECT"
#endif

namespace
{
    auto stressSeed() -> std::uint64_t
    {
        return fault::Plan::envSeed();
    }

    struct Payload
    {
        double in = 0.0;
        double out = 0.0;
    };

    [[nodiscard]] auto scaleTemplate(std::size_t maxBatch) -> serve::TemplateDesc
    {
        serve::TemplateDesc desc;
        desc.name = "scale";
        desc.scratchBytes = sizeof(double);
        desc.maxBatch = maxBatch;
        desc.body = [](serve::RequestItem const& item)
        {
            auto* const p = static_cast<Payload*>(item.payload);
            auto* const scratch = static_cast<double*>(item.scratch);
            *scratch = p->in * 2.0;
            p->out = *scratch + 1.0;
        };
        return desc;
    }

    struct Gate
    {
        std::atomic<bool> started{false};
        std::atomic<bool> release{false};

        [[nodiscard]] auto desc() -> serve::TemplateDesc
        {
            serve::TemplateDesc d;
            d.name = "gate";
            d.body = [this](serve::RequestItem const&)
            {
                started.store(true, std::memory_order_release);
                while(!release.load(std::memory_order_acquire))
                    std::this_thread::sleep_for(1ms);
            };
            return d;
        }

        //! Bounded: a gate body that never starts (say, its dispatch was
        //! failed by an armed rule) fails the test instead of spinning.
        void awaitStarted()
        {
            auto const deadline = std::chrono::steady_clock::now() + 10s;
            while(!started.load(std::memory_order_acquire))
            {
                if(std::chrono::steady_clock::now() > deadline)
                {
                    release.store(true, std::memory_order_release);
                    throw std::runtime_error("gate body did not start within 10 s");
                }
                std::this_thread::sleep_for(1ms);
            }
        }
    };

    //! Typed-outcome classification of one resolved future.
    enum Outcome : int
    {
        ok = 0,
        injected = 1,
        deadline = 2,
        cancelled = 3,
        workerLost = 4,
        overload = 5,
        oom = 6,
        other = 9,
    };

    auto classify(serve::Future const& future) -> int
    {
        auto const error = future.error();
        if(error == nullptr)
            return ok;
        try
        {
            std::rethrow_exception(error);
        }
        catch(fault::InjectedFault const&)
        {
            return injected;
        }
        catch(serve::DeadlineError const&)
        {
            return deadline;
        }
        catch(serve::CancelledError const&)
        {
            return cancelled;
        }
        catch(serve::WorkerLostError const&)
        {
            return workerLost;
        }
        catch(serve::OverloadError const&)
        {
            return overload;
        }
        catch(std::bad_alloc const&)
        {
            return oom; // an injected upstream OOM the pool could not absorb
        }
        catch(...)
        {
            return other;
        }
    }
} // namespace

// ------------------------------------------------------- substrate chaos

TEST(ChaosSubstrate, CopyFaultSurfacesTypedAndDoesNotPoisonTheDevice)
{
    REQUIRES_FAULTINJECT();
    gpusim::Device dev(gpusim::genericSpec());
    auto* const dst = dev.memory().allocate(256);
    std::vector<char> src(256, 42);

    fault::Plan plan;
    plan.fail("gpusim.copy_fail", fault::Trigger::once(1));
    EXPECT_THROW(dev.memory().copyHtoD(dst, src.data(), src.size()), fault::InjectedFault);
    // One injected failure, then the device serves copies again.
    EXPECT_NO_THROW(dev.memory().copyHtoD(dst, src.data(), src.size()));
    std::vector<char> back(256, 0);
    dev.memory().copyDtoH(back.data(), dst, back.size());
    EXPECT_EQ(back, src);
    dev.memory().free(dst);
    EXPECT_EQ(plan.fires("gpusim.copy_fail"), 1u);
}

TEST(ChaosSubstrate, ParkDelaysOnlySlowThePoolNeverCorruptIt)
{
    REQUIRES_FAULTINJECT();
    fault::Plan plan;
    plan.delay("threadpool.park_delay", 2ms, fault::Trigger::withProbability(0.3));

    threadpool::ThreadPool pool(3);
    for(int round = 0; round < 20; ++round)
    {
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(256, [&](std::size_t i) { sum += i; });
        EXPECT_EQ(sum.load(), 256u * 255u / 2u);
    }
}

TEST(ChaosSubstrate, FencePollDelaysOnlySlowServingNeverCorruptIt)
{
    REQUIRES_FAULTINJECT();
    fault::Plan plan;
    plan.delay("mempool.fence_poll", 1ms, fault::Trigger::withProbability(0.25));

    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 2});
    auto const id = svc.registerTemplate(scaleTemplate(8));
    std::vector<Payload> payloads(64);
    std::vector<serve::Future> futures;
    for(std::size_t i = 0; i < payloads.size(); ++i)
    {
        payloads[i].in = static_cast<double>(i);
        futures.push_back(svc.submit(id, "t", &payloads[i]));
    }
    for(std::size_t i = 0; i < futures.size(); ++i)
    {
        futures[i].wait();
        EXPECT_DOUBLE_EQ(payloads[i].out, payloads[i].in * 2.0 + 1.0);
    }
    EXPECT_GT(plan.hits("mempool.fence_poll"), 0u);
}

// --------------------------------------------------------- serving chaos

//! Phase A: the whole point of SEEDED injection. One worker, four
//! tenants, a queue frozen behind a gate, probability-armed kernel
//! throws plus deterministic cancellations and expired deadlines — run
//! twice under the same seed, the per-request outcome vectors must be
//! bit-identical. Chaos that reproduces is chaos you can debug.
TEST(ChaosService, SeededChaosIsBitReproducible)
{
    REQUIRES_FAULTINJECT();
    auto const seed = stressSeed();
    auto const dev = dev::PltfCudaSim::getDevByIdx(0);
    (void) mempool::Pool::forDev(dev).trim(0);
    auto const baseline = dev.simDevice().memory().allocationCount();

    constexpr std::size_t requestCount = 48;
    auto const run = [&]() -> std::vector<int>
    {
        Gate gate;
        serve::ServiceOptions options;
        options.cpuWorkers = 0;
        options.simDevs = {dev}; // one sim worker: a deterministic dispatch order
        serve::Service svc(std::move(options));
        auto const gateId = svc.registerTemplate(gate.desc());
        auto const scaleId = svc.registerTemplate(scaleTemplate(4));

        int gatePayload = 0;
        auto gateFuture = svc.submit(gateId, "gate", &gatePayload);
        gate.awaitStarted();
        // Armed only now: a rule live before the gate runs could fail the
        // gate's own dispatch, and its body would never start.
        fault::Plan plan(seed);
        plan.fail("serve.kernel_throw", fault::Trigger::withProbability(0.25));

        // The queue now forms from this one thread: submission order,
        // tenant rotation and batching are all deterministic.
        std::vector<Payload> payloads(requestCount);
        std::vector<serve::Future> futures;
        std::vector<serve::CancelToken> tokens(requestCount);
        std::string const tenants[4] = {"t0", "t1", "t2", "t3"};
        for(std::size_t i = 0; i < requestCount; ++i)
        {
            payloads[i].in = static_cast<double>(i);
            serve::Request request;
            request.tmpl = scaleId;
            request.tenant = tenants[i % 4];
            request.payload = &payloads[i];
            if(i % 7 == 3)
                request.deadline = std::chrono::steady_clock::now() + 5ms; // expired by release
            if(i % 5 == 0)
            {
                tokens[i] = serve::CancelToken::make();
                request.cancel = tokens[i];
            }
            futures.push_back(svc.submit(request));
        }
        for(std::size_t i = 0; i < requestCount; i += 5)
            tokens[i].cancel();
        std::this_thread::sleep_for(30ms); // all 5ms deadlines lapse
        gate.release.store(true, std::memory_order_release);
        gateFuture.wait();
        svc.drain();

        std::vector<int> outcomes;
        outcomes.reserve(requestCount);
        for(std::size_t i = 0; i < requestCount; ++i)
        {
            EXPECT_TRUE(futures[i].poll()) << "future " << i << " unresolved after drain()";
            outcomes.push_back(classify(futures[i]));
            if(outcomes.back() == ok)
                EXPECT_DOUBLE_EQ(payloads[i].out, payloads[i].in * 2.0 + 1.0);
            else
                EXPECT_DOUBLE_EQ(payloads[i].out, 0.0) << "failed request " << i << " ran anyway";
        }
        return outcomes;
    };

    auto const first = run();
    auto const second = run();
    EXPECT_EQ(first, second) << "same seed must replay the same fault schedule";

    // The chaos mix actually covered the taxonomy: cancellations and
    // deadlines land by construction; the p=0.25 schedule over ~30
    // surviving dispatches misses all of them with probability ~1e-4
    // (and deterministically so for a given seed — bump the seed if a
    // chosen one happens to be that unlucky).
    EXPECT_EQ(std::count(first.begin(), first.end(), cancelled), 10);
    EXPECT_EQ(std::count(first.begin(), first.end(), deadline), 5); // i%7==3 minus the i%5==0 overlaps
    EXPECT_GT(std::count(first.begin(), first.end(), injected), 0);
    EXPECT_GT(std::count(first.begin(), first.end(), ok), 0);
    EXPECT_EQ(std::count(first.begin(), first.end(), other), 0);

    (void) mempool::Pool::forDev(dev).trim(0);
    EXPECT_EQ(dev.simDevice().memory().allocationCount(), baseline) << "chaos leaked device allocations";
}

//! Phase B: everything at once, concurrently — four client threads,
//! CPU + simulated-GPU workers, supervision, overload shedding, and a
//! plan injecting kernel throws, a worker stall and an upstream OOM.
//! No bit-equality here (client interleaving is real concurrency);
//! the assertions are the chaos contract itself: bounded wall-clock,
//! every future resolves exactly once with a typed outcome, consistent
//! accounting, and no leaked device memory.
TEST(ChaosService, ConcurrentChaosStaysLiveTypedAndLeakFree)
{
    REQUIRES_FAULTINJECT();
    auto const dev = dev::PltfCudaSim::getDevByIdx(0);
    (void) mempool::Pool::forDev(dev).trim(0);
    auto const baseline = dev.simDevice().memory().allocationCount();
    auto const start = std::chrono::steady_clock::now();

    fault::Plan plan;
    plan.fail("serve.kernel_throw", fault::Trigger::withProbability(0.03));
    plan.delay("serve.worker_stall", 500ms, fault::Trigger::once(20));
    plan.fail(
        "mempool.upstream_oom",
        fault::Trigger::once(3),
        [] { return std::make_exception_ptr(std::bad_alloc()); });

    constexpr std::size_t clients = 4;
    constexpr std::size_t perClient = 50;
    std::vector<std::vector<serve::Future>> futures(clients);
    std::vector<std::vector<Payload>> payloads(clients, std::vector<Payload>(perClient));
    {
        serve::ServiceOptions options;
        options.cpuWorkers = 2;
        options.simDevs = {dev};
        options.stallTimeout = 100ms;
        options.shedWatermark = 128;
        serve::Service svc(std::move(options));
        auto const id = svc.registerTemplate(scaleTemplate(8));

        std::vector<std::thread> threads;
        for(std::size_t c = 0; c < clients; ++c)
            threads.emplace_back(
                [&, c]
                {
                    std::string const tenant = "tenant-" + std::to_string(c);
                    for(std::size_t i = 0; i < perClient; ++i)
                    {
                        payloads[c][i].in = static_cast<double>(i);
                        serve::Request request;
                        request.tmpl = id;
                        request.tenant = tenant;
                        request.payload = &payloads[c][i];
                        if(i % 9 == 5)
                            request.deadline = std::chrono::steady_clock::now() + 1ms;
                        serve::CancelToken token;
                        if(i % 11 == 7)
                        {
                            token = serve::CancelToken::make();
                            request.cancel = token;
                        }
                        futures[c].push_back(svc.submit(request));
                        if(token.valid())
                            token.cancel(); // races dispatch on purpose
                        if(i % 16 == 0)
                            std::this_thread::sleep_for(1ms);
                    }
                });
        for(auto& t : threads)
            t.join();
        svc.drain();

        // Every admitted request resolved, each with a typed outcome.
        std::vector<std::size_t> byOutcome(10, 0);
        for(std::size_t c = 0; c < clients; ++c)
            for(std::size_t i = 0; i < perClient; ++i)
            {
                ASSERT_TRUE(futures[c][i].poll()) << "future unresolved after drain()";
                ++byOutcome[static_cast<std::size_t>(classify(futures[c][i]))];
                if(futures[c][i].error() == nullptr)
                    EXPECT_DOUBLE_EQ(payloads[c][i].out, payloads[c][i].in * 2.0 + 1.0);
            }
        EXPECT_EQ(byOutcome[other], 0u) << "an untyped error escaped the failure taxonomy";

        auto const stats = svc.stats();
        EXPECT_EQ(stats.queued, 0u);
        EXPECT_EQ(stats.inFlight, 0u);
        EXPECT_EQ(stats.completed, clients * perClient);
        EXPECT_EQ(stats.failed, clients * perClient - byOutcome[ok]);
        if(plan.fires("serve.worker_stall") > 0)
        {
            EXPECT_GE(stats.workersLost, 1u);
            EXPECT_EQ(stats.workerRestarts, stats.workersLost);
            EXPECT_GE(byOutcome[workerLost], 1u);
        }

        auto const report = svc.shutdown(10s);
        EXPECT_TRUE(report.clean);
    }

    EXPECT_LT(std::chrono::steady_clock::now() - start, 60s) << "chaos must stay bounded";
    (void) mempool::Pool::forDev(dev).trim(0);
    EXPECT_EQ(dev.simDevice().memory().allocationCount(), baseline) << "chaos leaked device allocations";
}

//! The no-injection sibling of Phase B, running in EVERY build: the
//! same multi-tenant concurrent traffic with deadlines, cancellations,
//! supervision and shedding enabled must drain clean purely under
//! natural timing chaos.
TEST(ChaosService, ConcurrentTrafficWithResilienceEnabledDrainsClean)
{
    auto const dev = dev::PltfCudaSim::getDevByIdx(0);
    (void) mempool::Pool::forDev(dev).trim(0);
    auto const baseline = dev.simDevice().memory().allocationCount();

    constexpr std::size_t clients = 4;
    constexpr std::size_t perClient = 40;
    std::vector<std::vector<serve::Future>> futures(clients);
    std::vector<std::vector<Payload>> payloads(clients, std::vector<Payload>(perClient));
    {
        serve::ServiceOptions options;
        options.cpuWorkers = 2;
        options.simDevs = {dev};
        options.stallTimeout = 5s; // supervision on, never tripped
        options.shedWatermark = 128;
        serve::Service svc(std::move(options));
        auto const id = svc.registerTemplate(scaleTemplate(8));

        std::vector<std::thread> threads;
        for(std::size_t c = 0; c < clients; ++c)
            threads.emplace_back(
                [&, c]
                {
                    std::string const tenant = "tenant-" + std::to_string(c);
                    for(std::size_t i = 0; i < perClient; ++i)
                    {
                        payloads[c][i].in = static_cast<double>(i);
                        serve::Request request;
                        request.tmpl = id;
                        request.tenant = tenant;
                        request.payload = &payloads[c][i];
                        if(i % 9 == 5)
                            request.deadline = std::chrono::steady_clock::now() + 500us;
                        futures[c].push_back(svc.submit(request));
                    }
                });
        for(auto& t : threads)
            t.join();
        svc.drain();

        for(auto const& clientFutures : futures)
            for(auto const& f : clientFutures)
            {
                ASSERT_TRUE(f.poll());
                auto const outcome = classify(f);
                // The burst (160 requests, watermark 128) legitimately
                // sheds deadline-bearing requests under overload too.
                EXPECT_TRUE(outcome == ok || outcome == deadline || outcome == overload)
                    << "unexpected outcome " << outcome;
            }
        EXPECT_EQ(svc.stats().workersLost, 0u);
        EXPECT_TRUE(svc.shutdown(10s).clean);
    }
    (void) mempool::Pool::forDev(dev).trim(0);
    EXPECT_EQ(dev.simDevice().memory().allocationCount(), baseline);
}
