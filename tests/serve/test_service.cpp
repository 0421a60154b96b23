/// \file Kernel-service runtime tests (DESIGN.md §6, invariants 13–15):
/// template registration and lowering, per-tenant fair scheduling,
/// bounded admission with typed backpressure, adaptive batching, future
/// semantics, the mixed CPU + simulated-GPU fleet, and a seeded
/// randomized load test reproducible via ALPAKA_STRESS_SEED. Part of the
/// TSan/ASan CI lanes: submissions, dispatches, pool scratch recycling
/// and future completions all cross threads.
#include <serve/service.hpp>

#include <alpaka/alpaka.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace alpaka;
using namespace std::chrono_literals;
using Size = std::size_t;

namespace
{
    struct Payload
    {
        double in = 0.0;
        double out = 0.0;
    };

    //! in * 2 + 1, staged through the request-scoped scratch block so the
    //! test observes that scratch is real, distinct and writable.
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

    //! Blocks its worker until released — the load gate the batching,
    //! fairness and backpressure tests use to pile up a queue.
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

        void awaitStarted() const
        {
            while(!started.load(std::memory_order_acquire))
                std::this_thread::sleep_for(1ms);
        }
    };

    //! A posted request (Service::post) that records its one outcome.
    struct Recorded : serve::Posted
    {
        Recorded() noexcept : serve::Posted(&onComplete, nullptr, &describe)
        {
        }

        static void describe(serve::Posted& posted, serve::Request& out) noexcept
        {
            out = static_cast<Recorded&>(posted).request;
        }

        static void onComplete(serve::Completion& completion, std::exception_ptr e) noexcept
        {
            auto& self = static_cast<Recorded&>(completion);
            self.error = std::move(e);
            self.fired.fetch_add(1, std::memory_order_release);
        }

        serve::Request request;
        std::exception_ptr error;
        std::atomic<int> fired{0};
    };

    [[nodiscard]] auto stressSeed() -> std::uint64_t
    {
        if(char const* const env = std::getenv("ALPAKA_STRESS_SEED"))
            return std::strtoull(env, nullptr, 10);
        return 0x5EDBA7C4ull;
    }
} // namespace

// ---------------------------------------------------------------- registration

TEST(ServeService, RegistrationValidatesDescriptors)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1});

    serve::TemplateDesc neither;
    neither.name = "neither";
    EXPECT_THROW((void) svc.registerTemplate(neither), UsageError);

    auto both = scaleTemplate(1);
    both.graph = [](serve::GraphContext&) { return graph::Graph{}; };
    EXPECT_THROW((void) svc.registerTemplate(both), UsageError);

    auto zeroBatch = scaleTemplate(1);
    zeroBatch.maxBatch = 0;
    EXPECT_THROW((void) svc.registerTemplate(zeroBatch), UsageError);

    Payload p;
    EXPECT_THROW((void) svc.submit(42, "t", &p), UsageError);

    auto const id = svc.registerTemplate(scaleTemplate(4));
    p.in = 3.0;
    svc.submit(id, "t", &p).wait();
    EXPECT_DOUBLE_EQ(p.out, 7.0);

    // An empty future is typed misuse, never a null dereference.
    serve::Future empty;
    EXPECT_FALSE(empty.valid());
    EXPECT_THROW((void) empty.poll(), UsageError);
    EXPECT_THROW(empty.wait(), UsageError);
    EXPECT_THROW((void) empty.error(), UsageError);
}

TEST(ServeService, TenantBoundRejectsNewTenantsTyped)
{
    serve::ServiceOptions options;
    options.cpuWorkers = 1;
    options.maxTenants = 2;
    serve::Service svc(std::move(options));
    auto const id = svc.registerTemplate(scaleTemplate(1));

    Payload p;
    svc.submit(id, "first", &p).wait();
    svc.submit(id, "second", &p).wait();
    // Known tenants keep working; a third distinct tenant is rejected.
    EXPECT_THROW((void) svc.submit(id, "third", &p), serve::AdmissionError);
    svc.submit(id, "first", &p).wait();
    EXPECT_GE(svc.stats().rejected, 1u);
    EXPECT_EQ(svc.stats().tenants.size(), 2u);
}

TEST(ServeService, KernelTemplateServesManyRequests)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 2});
    auto const id = svc.registerTemplate(scaleTemplate(8));

    constexpr int requests = 200;
    std::vector<Payload> payloads(requests);
    std::vector<serve::Future> futures;
    futures.reserve(requests);
    for(int i = 0; i < requests; ++i)
    {
        payloads[i].in = static_cast<double>(i);
        futures.push_back(svc.submit(id, i % 2 == 0 ? "even" : "odd", &payloads[i]));
    }
    for(auto const& f : futures)
        f.wait();
    for(int i = 0; i < requests; ++i)
        EXPECT_DOUBLE_EQ(payloads[i].out, static_cast<double>(i) * 2.0 + 1.0);

    auto const stats = svc.stats();
    EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(requests));
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.inFlight, 0u);
    EXPECT_EQ(stats.latency.count, static_cast<std::uint64_t>(requests));
    EXPECT_LE(stats.latency.p50Us, stats.latency.p99Us);
    EXPECT_EQ(stats.tenants.size(), 2u);
    ASSERT_FALSE(stats.devicePools.empty());
}

TEST(ServeService, GraphTemplatePreInstantiatedPerWorker)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 2});

    std::atomic<int> builds{0};
    serve::TemplateDesc desc;
    desc.name = "pipeline";
    desc.scratchBytes = sizeof(double);
    desc.maxBatch = 4;
    desc.graph = [&builds](serve::GraphContext& ctx)
    {
        builds.fetch_add(1, std::memory_order_relaxed);
        EXPECT_FALSE(ctx.onSim());
        auto const* const cell = ctx.batch();
        graph::Graph g;
        auto const stage = g.addHost(
            {},
            [cell]
            {
                auto const& view = **cell;
                for(std::size_t i = 0; i < view.size(); ++i)
                    *static_cast<double*>(view[i].scratch) = static_cast<Payload*>(view[i].payload)->in * 3.0;
            });
        g.addHost(
            {stage},
            [cell]
            {
                auto const& view = **cell;
                for(std::size_t i = 0; i < view.size(); ++i)
                    static_cast<Payload*>(view[i].payload)->out = *static_cast<double*>(view[i].scratch) + 2.0;
            });
        return g;
    };
    auto const id = svc.registerTemplate(std::move(desc));
    // Lowered once per worker stream at registration, not per request.
    EXPECT_EQ(builds.load(), 2);

    constexpr int requests = 60;
    std::vector<Payload> payloads(requests);
    std::vector<serve::Future> futures;
    for(int i = 0; i < requests; ++i)
    {
        payloads[i].in = static_cast<double>(i);
        futures.push_back(svc.submit(id, "pipe", &payloads[i]));
    }
    for(auto const& f : futures)
        f.wait();
    EXPECT_EQ(builds.load(), 2); // still: dispatch = replay, no relowering
    for(int i = 0; i < requests; ++i)
        EXPECT_DOUBLE_EQ(payloads[i].out, static_cast<double>(i) * 3.0 + 2.0);
}

// ------------------------------------------------------------------- batching

TEST(ServeService, AdaptiveBatchingCoalescesQueuedRuns)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1});
    Gate gate;
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(8));

    Payload gatePayload;
    auto const gateFuture = svc.submit(gateId, "t", &gatePayload);
    gate.awaitStarted();

    // 16 compatible requests pile up behind the gate; once it opens, the
    // single worker must serve them as ceil(16 / maxBatch) = 2 dispatches.
    constexpr int requests = 16;
    std::vector<Payload> payloads(requests);
    std::vector<serve::Future> futures;
    for(int i = 0; i < requests; ++i)
    {
        payloads[i].in = static_cast<double>(i);
        futures.push_back(svc.submit(scaleId, "t", &payloads[i]));
    }
    EXPECT_EQ(svc.stats().queued, static_cast<std::size_t>(requests));

    gate.release.store(true, std::memory_order_release);
    gateFuture.wait();
    for(auto const& f : futures)
        f.wait();
    for(int i = 0; i < requests; ++i)
        EXPECT_DOUBLE_EQ(payloads[i].out, static_cast<double>(i) * 2.0 + 1.0);

    auto const stats = svc.stats();
    EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(requests) + 1);
    EXPECT_EQ(stats.batches, 3u); // gate + two batches of 8
}

// ------------------------------------------------------------------- fairness

TEST(ServeService, RoundRobinFairnessAcrossThreeTenants)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1});
    Gate gate;
    auto const gateId = svc.registerTemplate(gate.desc());

    std::mutex orderMutex;
    std::vector<std::string> order;
    serve::TemplateDesc tag;
    tag.name = "tag";
    tag.body = [&](serve::RequestItem const& item)
    {
        std::scoped_lock lock(orderMutex);
        order.push_back(*static_cast<std::string const*>(item.payload));
    };
    auto const tagId = svc.registerTemplate(std::move(tag));

    Payload gatePayload;
    auto const gateFuture = svc.submit(gateId, "zz", &gatePayload);
    gate.awaitStarted();

    // Deliberately skewed submission order: all of a, then all of b, then
    // all of c. Fair dispatch must interleave them round-robin anyway.
    std::string a = "a", b = "b", c = "c";
    std::vector<serve::Future> futures;
    for(int i = 0; i < 4; ++i)
        futures.push_back(svc.submit(tagId, "a", &a));
    for(int i = 0; i < 4; ++i)
        futures.push_back(svc.submit(tagId, "b", &b));
    for(int i = 0; i < 4; ++i)
        futures.push_back(svc.submit(tagId, "c", &c));

    gate.release.store(true, std::memory_order_release);
    gateFuture.wait();
    for(auto const& f : futures)
        f.wait();

    ASSERT_EQ(order.size(), 12u);
    // Invariant 14 (window fairness): in every prefix, tenants with still
    // non-empty queues differ by at most one dispatched request (maxBatch
    // is 1 here). With all three queues full that forces strict rotation.
    for(std::size_t i = 0; i + 2 < order.size(); i += 3)
    {
        std::vector<std::string> window{order[i], order[i + 1], order[i + 2]};
        std::sort(window.begin(), window.end());
        EXPECT_EQ(window, (std::vector<std::string>{"a", "b", "c"})) << "window at " << i;
    }
}

// --------------------------------------------------------------- backpressure

TEST(ServeService, BoundedAdmissionRejectsTypedAndBlocksWithDeadline)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1, .queueCapacity = 4});
    Gate gate;
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(1));

    Payload gatePayload;
    auto const gateFuture = svc.submit(gateId, "t", &gatePayload);
    gate.awaitStarted(); // the gate is in flight, not queued

    std::vector<Payload> payloads(8);
    std::vector<serve::Future> futures;
    for(int i = 0; i < 4; ++i)
        futures.push_back(svc.submit(scaleId, "t", &payloads[i]));

    // Queue full: fail-fast submit is typed, blocking submit times out.
    EXPECT_THROW((void) svc.submit(scaleId, "t", &payloads[4]), serve::AdmissionError);
    EXPECT_THROW((void) svc.submitFor(scaleId, "t", &payloads[4], 50ms), serve::AdmissionError);
    EXPECT_GE(svc.stats().rejected, 2u);

    // Opening the gate frees space; the blocking submit then admits.
    gate.release.store(true, std::memory_order_release);
    futures.push_back(svc.submitFor(scaleId, "t", &payloads[4], 5s));
    gateFuture.wait();
    for(auto const& f : futures)
        f.wait();
    EXPECT_EQ(svc.stats().rejected, 2u);
}

TEST(ServeService, PerTenantCapacityIsolatesNoisyNeighbour)
{
    serve::Service svc(
        serve::ServiceOptions{.cpuWorkers = 1, .queueCapacity = 16, .tenantCapacity = 2});
    Gate gate;
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(1));

    Payload gatePayload;
    auto const gateFuture = svc.submit(gateId, "noisy", &gatePayload);
    gate.awaitStarted();

    std::vector<Payload> payloads(4);
    std::vector<serve::Future> futures;
    futures.push_back(svc.submit(scaleId, "noisy", &payloads[0]));
    futures.push_back(svc.submit(scaleId, "noisy", &payloads[1]));
    // The noisy tenant hit its own bound — the quiet tenant still admits.
    EXPECT_THROW((void) svc.submit(scaleId, "noisy", &payloads[2]), serve::AdmissionError);
    futures.push_back(svc.submit(scaleId, "quiet", &payloads[3]));

    gate.release.store(true, std::memory_order_release);
    gateFuture.wait();
    for(auto const& f : futures)
        f.wait();
}

//! A posted span (DESIGN.md §6.2): the worker admits it in one pass, and
//! each request still gets its own outcome through its completion —
//! admitted, refused by its tenant's bound (which ends the tenant's run),
//! resolved on the spot (cancelled, expired) or refused as an unknown
//! template — with the stats settled for each.
TEST(ServeService, PostedSpanGivesEveryRequestItsOwnOutcome)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1, .queueCapacity = 16, .tenantCapacity = 2});
    Gate gate;
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(4));
    Payload gatePayload;
    auto const gateFuture = svc.submit(gateId, "a", &gatePayload);
    gate.awaitStarted(); // in flight: tenant "a" holds nothing queued

    auto const cancelled = serve::CancelToken::make();
    cancelled.cancel();
    auto const past = std::chrono::steady_clock::now() - 1s;
    std::vector<Payload> payloads(7);
    for(std::size_t i = 0; i < payloads.size(); ++i)
        payloads[i].in = static_cast<double>(i);
    std::vector<serve::Request> const requests{
        {scaleId, "a", &payloads[0], std::nullopt, {}},
        {9999, "a", &payloads[1], std::nullopt, {}},
        {scaleId, "a", &payloads[2], std::nullopt, cancelled},
        {scaleId, "b", &payloads[3], past, {}},
        {scaleId, "a", &payloads[4], std::nullopt, {}},
        {scaleId, "a", &payloads[5], std::nullopt, {}}, // past tenant "a"'s bound of 2
        {scaleId, "b", &payloads[6], std::nullopt, {}},
    };
    std::vector<Recorded> posted(requests.size());
    std::vector<serve::Posted*> pointers;
    for(std::size_t i = 0; i < requests.size(); ++i)
    {
        posted[i].request = requests[i];
        pointers.push_back(&posted[i]);
    }
    // Posted while the only worker is held: it admits all seven in one
    // pass once the gate opens.
    svc.post(pointers);
    gate.release.store(true, std::memory_order_release);
    gateFuture.wait();
    svc.drain();

    auto const rethrows = [](std::exception_ptr const& e, auto tag)
    {
        try
        {
            std::rethrow_exception(e);
        }
        catch(decltype(tag) const&)
        {
            return true;
        }
        catch(...)
        {
            return false;
        }
    };
    for(std::size_t i = 0; i < posted.size(); ++i)
        EXPECT_EQ(posted[i].fired.load(std::memory_order_acquire), 1) << "request " << i;
    for(std::size_t i : {0U, 4U, 6U})
    {
        EXPECT_EQ(posted[i].error, nullptr) << "request " << i;
        EXPECT_EQ(payloads[i].out, 2.0 * payloads[i].in + 1.0) << "request " << i;
    }
    EXPECT_TRUE(rethrows(posted[1].error, serve::UnknownTemplateError("")));
    EXPECT_TRUE(rethrows(posted[2].error, serve::CancelledError("")));
    EXPECT_TRUE(rethrows(posted[3].error, serve::DeadlineError("")));
    EXPECT_TRUE(rethrows(posted[5].error, serve::AdmissionError("")));
    for(std::size_t i : {1U, 2U, 3U, 5U})
        EXPECT_EQ(payloads[i].out, 0.0) << "request " << i;

    auto const stats = svc.stats();
    EXPECT_EQ(stats.queued, 0U);
    EXPECT_EQ(stats.admitted, 4U); // the gate and three of the span
    EXPECT_EQ(stats.rejected, 1U);
    EXPECT_EQ(stats.shedCancelled, 1U);
    EXPECT_EQ(stats.shedExpired, 1U);
    EXPECT_EQ(stats.completed, 6U) << "the two resolved at admission count too";
    EXPECT_EQ(stats.failed, 2U);
}

//! Admission pushes straight into the tenant queues under the
//! scheduling lock (DESIGN.md §6.2, §8.7), with no buffer between: with
//! the worker blocked, submits admit up to the queue bound, lose nothing
//! and keep each tenant's order; past the bound they are refused.
TEST(ServeService, AdmissionPastTheRingKeepsOrderAndBound)
{
    constexpr std::size_t capacity = 300;
    constexpr std::size_t offered = 400;
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1, .queueCapacity = capacity});
    Gate gate;
    auto const gateId = svc.registerTemplate(gate.desc());
    struct Seq
    {
        int tenant = 0;
        int seq = 0;
    };
    std::mutex logMutex;
    std::vector<Seq> log;
    serve::TemplateDesc record;
    record.name = "record";
    record.maxBatch = 1; // one request per dispatch: the log is the dispatch order
    record.body = [&](serve::RequestItem const& item)
    {
        std::scoped_lock lock(logMutex);
        log.push_back(*static_cast<Seq*>(item.payload));
    };
    auto const recordId = svc.registerTemplate(record);
    Payload gatePayload;
    auto const gateFuture = svc.submit(gateId, "gate", &gatePayload);
    gate.awaitStarted();

    // Runs of three requests alternate between the two tenants.
    std::string const tenants[] = {"even", "odd"};
    std::vector<Seq> payloads(offered);
    std::vector<serve::Future> futures;
    for(std::size_t i = 0; i < offered; ++i)
    {
        auto const tenant = static_cast<int>((i / 3) % 2);
        payloads[i] = Seq{tenant, static_cast<int>(i)};
        if(i < capacity)
            futures.push_back(svc.submit(recordId, tenants[tenant], &payloads[i]));
        else
            EXPECT_THROW((void) svc.submit(recordId, tenants[tenant], &payloads[i]), serve::AdmissionError)
                << "request " << i;
    }
    EXPECT_EQ(svc.stats().queued, capacity);

    gate.release.store(true, std::memory_order_release);
    gateFuture.wait();
    for(std::size_t i = 0; i < capacity; ++i)
        EXPECT_NO_THROW(futures[i].wait()) << "request " << i;
    svc.drain();
    ASSERT_EQ(log.size(), capacity);
    int last[2] = {-1, -1};
    for(auto const& entry : log)
    {
        EXPECT_GT(entry.seq, last[entry.tenant]) << "tenant " << entry.tenant << " out of order";
        last[entry.tenant] = entry.seq;
    }
    auto const stats = svc.stats();
    EXPECT_EQ(stats.queued, 0U);
    EXPECT_EQ(stats.completed, capacity + 1);
    EXPECT_EQ(stats.rejected, offered - capacity);
}

// -------------------------------------------------------------------- futures

TEST(ServeService, FutureSemanticsPollThenErrorsConfined)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1});

    serve::TemplateDesc flaky;
    flaky.name = "flaky";
    flaky.maxBatch = 8;
    flaky.body = [](serve::RequestItem const& item)
    {
        auto* const p = static_cast<Payload*>(item.payload);
        if(p->in < 0.0)
            throw std::invalid_argument("negative request");
        p->out = p->in + 1.0;
    };
    auto const id = svc.registerTemplate(std::move(flaky));

    Gate gate;
    auto const gateId = svc.registerTemplate(gate.desc());
    Payload gatePayload;
    auto const gateFuture = svc.submit(gateId, "t", &gatePayload);
    gate.awaitStarted();

    // One bad request inside a healthy batch (both queue behind the gate,
    // so they coalesce into one dispatch).
    Payload good{.in = 1.0}, bad{.in = -1.0}, alsoGood{.in = 2.0};
    auto const goodF = svc.submit(id, "t", &good);
    auto const badF = svc.submit(id, "t", &bad);
    auto const alsoGoodF = svc.submit(id, "t", &alsoGood);

    EXPECT_FALSE(goodF.poll());
    EXPECT_FALSE(goodF.waitFor(10ms));

    std::atomic<int> thenRuns{0};
    std::atomic<bool> thenSawError{false};
    badF.then(
        [&](std::exception_ptr error)
        {
            thenSawError.store(error != nullptr);
            thenRuns.fetch_add(1);
        });

    gate.release.store(true, std::memory_order_release);
    gateFuture.wait();

    goodF.wait();
    alsoGoodF.wait();
    EXPECT_TRUE(goodF.poll());
    EXPECT_DOUBLE_EQ(good.out, 2.0);
    EXPECT_DOUBLE_EQ(alsoGood.out, 3.0);

    // Invariant 15: the throwing request fails alone, with its own error.
    EXPECT_THROW(badF.wait(), std::invalid_argument);
    EXPECT_NE(badF.error(), nullptr);
    EXPECT_EQ(goodF.error(), nullptr);

    // then() attached before completion ran once; attached after, inline.
    while(thenRuns.load() == 0)
        std::this_thread::sleep_for(1ms);
    EXPECT_TRUE(thenSawError.load());
    badF.then([&](std::exception_ptr error) { thenRuns.fetch_add(error != nullptr ? 1 : 100); });
    EXPECT_EQ(thenRuns.load(), 2);
    EXPECT_EQ(svc.stats().failed, 1u);
}

TEST(ServeService, GraphTemplateErrorFailsItsBatchOnly)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1});

    serve::TemplateDesc boom;
    boom.name = "boom";
    boom.graph = [](serve::GraphContext& ctx)
    {
        auto const* const cell = ctx.batch();
        graph::Graph g;
        g.addHost(
            {},
            [cell]
            {
                auto const& view = **cell;
                for(std::size_t i = 0; i < view.size(); ++i)
                    if(static_cast<Payload*>(view[i].payload)->in < 0.0)
                        throw std::invalid_argument("poisoned replay");
            });
        return g;
    };
    auto const boomId = svc.registerTemplate(std::move(boom));
    auto const scaleId = svc.registerTemplate(scaleTemplate(1));

    Payload bad{.in = -1.0};
    auto const badF = svc.submit(boomId, "t", &bad);
    EXPECT_THROW(badF.wait(), std::invalid_argument);

    // The worker and its streams survive a poisoned replay: later
    // requests — including on the same template — serve normally.
    Payload fine{.in = 5.0}, scaled{.in = 7.0};
    svc.submit(boomId, "t", &fine).wait();
    svc.submit(scaleId, "t", &scaled).wait();
    EXPECT_DOUBLE_EQ(scaled.out, 15.0);
}

// ----------------------------------------------------------------- mixed fleet

namespace
{
    struct TripleKernel
    {
        template<typename TAcc>
        ALPAKA_FN_ACC void operator()(TAcc const& acc, double* data) const
        {
            auto const b = idx::getIdx<Grid, Blocks>(acc)[0];
            data[b] *= 3.0;
        }
    };
} // namespace

TEST(ServeService, MixedCpuAndSimFleetServesDeviceKernels)
{
    using CpuAcc = acc::AccCpuTaskBlocks<Dim1, Size>;
    using SimAcc = acc::AccGpuCudaSim<Dim1, Size>;
    auto const simDev = dev::PltfCudaSim::getDevByIdx(0);

    serve::ServiceOptions options;
    options.cpuWorkers = 1;
    options.simDevs = {simDev};
    serve::Service svc(std::move(options));
    ASSERT_EQ(svc.workerCount(), 2u);

    constexpr std::size_t maxBatch = 4;
    // Template-owned staging, one stable region per worker stream: the
    // pre-instantiated graphs bake these addresses into their kernels.
    std::vector<std::vector<double>> staging(svc.workerCount(), std::vector<double>(maxBatch, 0.0));

    serve::TemplateDesc device;
    device.name = "triple";
    device.maxBatch = maxBatch;
    device.graph = [&staging](serve::GraphContext& ctx)
    {
        auto const* const cell = ctx.batch();
        auto* const data = staging[ctx.workerIndex()].data();
        workdiv::WorkDivMembers<Dim1, Size> const wd(maxBatch, Size{1}, Size{1});
        graph::Graph g;
        auto const stage = g.addHost(
            {},
            [cell, data]
            {
                auto const& view = **cell;
                for(std::size_t i = 0; i < view.size(); ++i)
                    data[i] = static_cast<Payload*>(view[i].payload)->in;
            });
        auto const kernel = ctx.onSim()
                                ? g.addKernel({stage}, ctx.simDev(), exec::create<SimAcc>(wd, TripleKernel{}, data))
                                : g.addKernel({stage}, ctx.cpuDev(), exec::create<CpuAcc>(wd, TripleKernel{}, data));
        g.addHost(
            {kernel},
            [cell, data]
            {
                auto const& view = **cell;
                for(std::size_t i = 0; i < view.size(); ++i)
                    static_cast<Payload*>(view[i].payload)->out = data[i];
            });
        return g;
    };
    auto const id = svc.registerTemplate(std::move(device));

    constexpr int requests = 80;
    std::vector<Payload> payloads(requests);
    std::vector<serve::Future> futures;
    for(int i = 0; i < requests; ++i)
    {
        payloads[i].in = static_cast<double>(i + 1);
        futures.push_back(svc.submit(id, i % 3 == 0 ? "alpha" : "beta", &payloads[i]));
    }
    for(auto const& f : futures)
        f.wait();
    for(int i = 0; i < requests; ++i)
        EXPECT_DOUBLE_EQ(payloads[i].out, static_cast<double>(i + 1) * 3.0);

    auto const stats = svc.stats();
    EXPECT_EQ(stats.failed, 0u);
    // Both device pools are on the introspection surface (the fleet spans
    // the host and one simulated GPU).
    EXPECT_EQ(stats.devicePools.size(), 2u);
}

// --------------------------------------------------------------------- stress

TEST(ServeService, SeededRandomizedLoad)
{
    auto const seed = stressSeed();
    SCOPED_TRACE("ALPAKA_STRESS_SEED=" + std::to_string(seed));

    serve::ServiceOptions options;
    options.cpuWorkers = 2;
    options.simDevs = {dev::PltfCudaSim::getDevByIdx(0)};
    options.queueCapacity = 64; // small enough that backpressure engages
    serve::Service svc(std::move(options));

    auto const scaleId = svc.registerTemplate(scaleTemplate(8)); // out = in * 2 + 1
    serve::TemplateDesc add;
    add.name = "add";
    add.maxBatch = 1;
    add.body = [](serve::RequestItem const& item)
    {
        auto* const p = static_cast<Payload*>(item.payload);
        p->out = p->in + 100.0;
    };
    auto const addId = svc.registerTemplate(std::move(add));
    serve::TemplateDesc pipe;
    pipe.name = "pipe";
    pipe.scratchBytes = sizeof(double);
    pipe.maxBatch = 4;
    pipe.graph = [](serve::GraphContext& ctx)
    {
        auto const* const cell = ctx.batch();
        graph::Graph g;
        auto const stage = g.addHost(
            {},
            [cell]
            {
                auto const& view = **cell;
                for(std::size_t i = 0; i < view.size(); ++i)
                    *static_cast<double*>(view[i].scratch) = static_cast<Payload*>(view[i].payload)->in * 3.0;
            });
        g.addHost(
            {stage},
            [cell]
            {
                auto const& view = **cell;
                for(std::size_t i = 0; i < view.size(); ++i)
                    static_cast<Payload*>(view[i].payload)->out = *static_cast<double*>(view[i].scratch);
            });
        return g;
    };
    auto const pipeId = svc.registerTemplate(std::move(pipe));

    constexpr int clients = 4;
    constexpr int requestsPerClient = 150;
    std::array<char const*, 4> const tenants{"t0", "t1", "t2", "t3"};

    struct Issued
    {
        serve::TemplateId tmpl;
        Payload payload;
        serve::Future future;
    };
    std::vector<std::vector<Issued>> issued(clients);
    std::barrier startLine(clients);
    {
        std::vector<std::jthread> threads;
        for(int c = 0; c < clients; ++c)
            threads.emplace_back(
                [&, c]
                {
                    std::mt19937_64 rng(seed + static_cast<std::uint64_t>(c) * 7919);
                    auto& mine = issued[static_cast<std::size_t>(c)];
                    mine.resize(requestsPerClient);
                    for(auto& request : mine)
                        request.payload.in = static_cast<double>(rng() % 1000);
                    startLine.arrive_and_wait();
                    for(auto& request : mine)
                    {
                        request.tmpl = std::array{scaleId, addId, pipeId}[rng() % 3];
                        auto const* const tenant = tenants[rng() % tenants.size()];
                        // Blocking submits ride the backpressure; no
                        // request may be lost.
                        request.future = svc.submitFor(request.tmpl, tenant, &request.payload, 30s);
                    }
                });
    }

    for(auto& client : issued)
        for(auto& request : client)
        {
            ASSERT_TRUE(request.future.valid());
            request.future.wait();
            auto const in = request.payload.in;
            auto const expected = request.tmpl == scaleId ? in * 2.0 + 1.0 : request.tmpl == addId ? in + 100.0 : in * 3.0;
            ASSERT_DOUBLE_EQ(request.payload.out, expected);
        }

    auto const stats = svc.stats();
    auto const total = static_cast<std::uint64_t>(clients) * requestsPerClient;
    EXPECT_EQ(stats.completed, total);
    EXPECT_EQ(stats.admitted, total);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.inFlight, 0u);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_LE(stats.batches, static_cast<std::uint64_t>(total));
    EXPECT_EQ(stats.latency.count, total);
    EXPECT_LE(stats.latency.p50Us, stats.latency.p99Us);
    EXPECT_LE(stats.latency.p99Us, std::max(stats.latency.maxUs, stats.latency.p99Us));
    EXPECT_EQ(stats.tenants.size(), tenants.size());
    std::uint64_t perTenant = 0;
    for(auto const& t : stats.tenants)
    {
        EXPECT_EQ(t.admitted, t.completed);
        perTenant += t.completed;
    }
    EXPECT_EQ(perTenant, total);
}

namespace
{
    //! A Completion whose hook submits again. The hook of a request that
    //! expired before admission fires inline, before submit() returns.
    struct Resubmitting : serve::Completion
    {
        Resubmitting() noexcept : serve::Completion(&onComplete)
        {
        }

        static void onComplete(serve::Completion& completion, std::exception_ptr error) noexcept
        {
            auto& self = static_cast<Resubmitting&>(completion);
            self.error = std::move(error);
            try
            {
                self.next = self.svc->submit(self.tmpl, "a", &self.payload);
            }
            catch(serve::AdmissionError const&)
            {
            }
            self.fired.fetch_add(1, std::memory_order_release);
        }

        serve::Service* svc = nullptr;
        serve::TemplateId tmpl = 0;
        Payload payload;
        std::exception_ptr error;
        serve::Future next;
        std::atomic<int> fired{0};
    };
} // namespace

//! submit() and submitFor() racing shutdown(): admission reads stop_
//! under the lock shutdown() stores it under, so every call throws
//! AdmissionError or returns a future that resolves exactly once, and
//! nothing admitted is left behind. Three threads submit while the main
//! thread shuts down after 0–400 µs. Thread 2 calls submitFor() on a
//! tenant its slow requests keep full, so it often waits for space when
//! shutdown lands. Thread 0 also sends requests that expired before
//! admission, whose hook submits again from inside admission's caller:
//! no lock may be held there.
TEST(ServeService, SubmitsRacingShutdownEachThrowOrResolveOnce)
{
    auto const seed = stressSeed();
    SCOPED_TRACE("ALPAKA_STRESS_SEED=" + std::to_string(seed));
    constexpr std::size_t perThread = 48;
    struct Outcome
    {
        Payload payload;
        serve::Future future;
        std::atomic<int> fired{0};
    };
    for(int round = 0; round < 50; ++round)
    {
        SCOPED_TRACE("round " + std::to_string(round));
        std::mt19937_64 rng(seed + static_cast<std::uint64_t>(round));
        std::vector<std::vector<Outcome>> outcomes;
        for(int t = 0; t < 3; ++t)
            outcomes.emplace_back(perThread);
        std::vector<Resubmitting> expired(perThread / 8);
        {
            serve::Service svc(serve::ServiceOptions{.cpuWorkers = 2, .queueCapacity = 128, .tenantCapacity = 8});
            auto const scaleId = svc.registerTemplate(scaleTemplate(8));
            auto slow = scaleTemplate(2);
            slow.body = [body = slow.body](serve::RequestItem const& item)
            {
                std::this_thread::sleep_for(100us);
                body(item);
            };
            auto const slowId = svc.registerTemplate(slow);
            auto const submitter = [&](std::size_t t)
            {
                for(std::size_t i = 0; i < perThread; ++i)
                {
                    if(t == 0 && i % 8 == 0)
                    {
                        auto& e = expired[i / 8];
                        e.svc = &svc;
                        e.tmpl = scaleId;
                        serve::Request request{scaleId, "a", &e.payload, std::chrono::steady_clock::now() - 1ms, {}};
                        request.completion = &e;
                        EXPECT_FALSE(svc.submit(request).valid());
                        EXPECT_EQ(e.fired.load(std::memory_order_acquire), 1) << "fires inline";
                    }
                    auto& o = outcomes[t][i];
                    o.payload.in = static_cast<double>(i);
                    try
                    {
                        o.future = t == 2 ? (i < 8 ? svc.submit(slowId, "full", &o.payload)
                                                   : svc.submitFor(slowId, "full", &o.payload, 2ms))
                                          : svc.submit(scaleId, t == 0 ? "a" : "b", &o.payload);
                    }
                    catch(serve::AdmissionError const&)
                    {
                        continue;
                    }
                    o.future.then([&o](std::exception_ptr) { o.fired.fetch_add(1, std::memory_order_acq_rel); });
                }
            };
            std::vector<std::thread> threads;
            for(std::size_t t = 0; t < 3; ++t)
                threads.emplace_back(submitter, t);
            std::this_thread::sleep_for(std::chrono::microseconds(rng() % 400));
            EXPECT_TRUE(svc.shutdown(5s).clean);
            for(auto& thread : threads)
                thread.join();
            // Requests expired before admission count as completed (and
            // shed) without being admitted.
            auto const stats = svc.stats();
            EXPECT_EQ(stats.shedExpired, expired.size());
            EXPECT_EQ(stats.admitted, stats.completed - stats.shedExpired);
            EXPECT_EQ(stats.queued + stats.inFlight, 0U);
        }
        auto const resolvedOnce = [](serve::Future const& f, Payload const& p)
        {
            EXPECT_NO_THROW(EXPECT_TRUE(f.waitFor(5s)));
            EXPECT_DOUBLE_EQ(p.out, 2.0 * p.in + 1.0);
        };
        for(auto& perThreadOutcomes : outcomes)
            for(auto& o : perThreadOutcomes)
            {
                if(!o.future.valid())
                    continue; // refused
                resolvedOnce(o.future, o.payload);
                EXPECT_EQ(o.fired.load(std::memory_order_acquire), 1);
            }
        for(auto& e : expired)
        {
            ASSERT_EQ(e.fired.load(std::memory_order_acquire), 1);
            EXPECT_THROW(std::rethrow_exception(e.error), serve::DeadlineError);
            if(e.next.valid())
                resolvedOnce(e.next, e.payload);
        }
    }
}

// ----------------------------------------------------------------- drain/stats

TEST(ServeService, DrainWaitsForQuiescenceAndPoolStatsAreCoherent)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 2});
    auto const id = svc.registerTemplate(scaleTemplate(8));

    std::vector<Payload> payloads(64);
    std::vector<serve::Future> futures;
    for(std::size_t i = 0; i < payloads.size(); ++i)
    {
        payloads[i].in = static_cast<double>(i);
        futures.push_back(svc.submit(id, "t", &payloads[i]));
    }
    svc.drain();
    for(auto const& f : futures)
        EXPECT_TRUE(f.poll());

    auto const stats = svc.stats();
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.inFlight, 0u);
    ASSERT_FALSE(stats.devicePools.empty());
    // The coherent snapshot can never produce the impossible combination
    // racy getter composition could: more bytes in use than held.
    for(auto const& pool : stats.devicePools)
        EXPECT_LE(pool.pool.bytesInUse, pool.pool.bytesHeld);
}

// ------------------------------------------------- future resolution races

// The resilience layer (DESIGN.md §7) makes future-resolution races
// reachable: a worker declared lost may still finish its batch and race
// the supervisor to complete() (invariant 16 demands exactly one
// winner). These tests pin the State machinery directly through the
// test backdoor, with real thread interleavings.

TEST(ServeFuture, CompletionIsOneShotUnderConcurrentResolvers)
{
    for(int round = 0; round < 200; ++round)
    {
        serve::FutureTestAccess access;
        auto const future = access.future();
        std::atomic<int> winners{0};
        std::barrier sync(3);
        std::vector<std::thread> threads;
        // One "worker" resolving success, two "supervisors" resolving
        // typed errors — whoever wins, the future resolves exactly once.
        threads.emplace_back(
            [&]
            {
                sync.arrive_and_wait();
                winners += access.complete(nullptr);
            });
        for(int s = 0; s < 2; ++s)
            threads.emplace_back(
                [&]
                {
                    sync.arrive_and_wait();
                    winners += access.complete(
                        std::make_exception_ptr(serve::WorkerLostError("serve: worker lost")));
                });
        for(auto& t : threads)
            t.join();
        EXPECT_EQ(winners.load(), 1);
        EXPECT_TRUE(future.poll());
        // The observable state is the winner's, fixed forever: wait() and
        // error() agree with each other on every later inspection.
        if(future.error() == nullptr)
            EXPECT_NO_THROW(future.wait());
        else
            EXPECT_THROW(future.wait(), serve::WorkerLostError);
    }
}

TEST(ServeFuture, ThenRacingCompletionRunsExactlyOnceWithTheFinalError)
{
    for(int round = 0; round < 200; ++round)
    {
        serve::FutureTestAccess access;
        auto const future = access.future();
        std::atomic<int> ran{0};
        std::atomic<bool> sawError{false};
        std::barrier sync(2);
        std::thread completer(
            [&]
            {
                sync.arrive_and_wait();
                (void) access.complete(std::make_exception_ptr(serve::CancelledError("serve: cancelled")));
            });
        sync.arrive_and_wait();
        // Races the attach against the completion: the continuation must
        // fire exactly once either way (queued, or inline on attach).
        future.then(
            [&](std::exception_ptr error)
            {
                ran.fetch_add(1);
                sawError.store(error != nullptr);
            });
        completer.join();
        EXPECT_EQ(ran.load(), 1);
        EXPECT_TRUE(sawError.load());
    }
}

TEST(ServeFuture, CancelRacingCompletionResolvesExactlyOnceThroughTheService)
{
    // End-to-end flavour: a real service, a client cancelling while the
    // worker completes. Whichever side wins, the continuation count per
    // request is exactly one.
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 2});
    auto const id = svc.registerTemplate(scaleTemplate(4));
    constexpr int rounds = 100;
    std::atomic<int> resolutions{0};
    std::vector<Payload> payloads(rounds);
    std::vector<serve::CancelToken> tokens;
    std::vector<serve::Future> futures;
    tokens.reserve(rounds);
    futures.reserve(rounds);
    for(int i = 0; i < rounds; ++i)
    {
        payloads[i].in = 1.0;
        tokens.push_back(serve::CancelToken::make());
        serve::Request request;
        request.tmpl = id;
        request.tenant = "t";
        request.payload = &payloads[i];
        request.cancel = tokens[i];
        auto future = svc.submit(request);
        future.then([&](std::exception_ptr) { resolutions.fetch_add(1); });
        futures.push_back(std::move(future));
        if(i % 2 == 0)
            tokens[i].cancel(); // races the dispatch
    }
    svc.drain();
    for(int i = 0; i < rounds; ++i)
    {
        ASSERT_TRUE(futures[i].poll());
        // Either it ran (out is final) or it was shed (out untouched) —
        // never half-made state.
        if(futures[i].error() == nullptr)
            EXPECT_DOUBLE_EQ(payloads[i].out, 3.0);
        else
            EXPECT_DOUBLE_EQ(payloads[i].out, 0.0);
    }
    EXPECT_EQ(resolutions.load(), rounds);
}

// ------------------------------------------------------- teardown hygiene

TEST(ServeService, ServingWithShedAndCancelPathsLeavesNoDeviceAllocations)
{
    auto const simDev = dev::PltfCudaSim::getDevByIdx(0);
    (void) mempool::Pool::forDev(simDev).trim(0);
    auto const baseline = simDev.simDevice().memory().allocationCount();
    {
        serve::ServiceOptions options;
        options.cpuWorkers = 0;
        options.simDevs = {simDev};
        serve::Service svc(std::move(options));
        auto const id = svc.registerTemplate(scaleTemplate(4));
        std::vector<Payload> payloads(32);
        std::vector<serve::Future> futures;
        for(std::size_t i = 0; i < payloads.size(); ++i)
        {
            payloads[i].in = static_cast<double>(i);
            serve::Request request;
            request.tmpl = id;
            request.tenant = i % 2 == 0 ? "even" : "odd";
            request.payload = &payloads[i];
            if(i % 8 == 1)
                request.deadline = std::chrono::steady_clock::now() - 1ms; // shed at submit
            if(i % 8 == 5)
            {
                auto token = serve::CancelToken::make();
                request.cancel = token;
                token.cancel(); // shed at submit
            }
            futures.push_back(svc.submit(request));
        }
        svc.drain();
        for(auto const& f : futures)
            EXPECT_TRUE(f.poll());
    }
    // Scratch blocks travelled submit → pool → device and back on every
    // path (served, expired, cancelled); nothing may remain.
    (void) mempool::Pool::forDev(simDev).trim(0);
    EXPECT_EQ(simDev.simDevice().memory().allocationCount(), baseline);
}
