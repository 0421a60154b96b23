/// \file Serve-layer resilience under injected and natural faults
/// (DESIGN.md §7, invariants 15–17): deadline/cancellation shedding,
/// overload shedding, worker supervision and restart, bounded shutdown,
/// and the typed failure taxonomy — each recovery path provoked
/// deterministically. The injection-dependent tests skip unless the
/// build was configured with ALPAKA_REPRO_FAULTINJECT=ON (the CI chaos
/// lane); the shedding/supervision tests force their faults naturally
/// (slow bodies, short deadlines) and run everywhere, as do the
/// serve::Completion contract tests (one firing per admitted request,
/// whichever way it ends; none for a refusal) and the Service::post
/// contract tests (one firing per posted request, refusals included).
#include <serve/service.hpp>

#include <alpaka/alpaka.hpp>
#include <alpaka/core/fault.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
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
    struct Payload
    {
        double in = 0.0;
        double out = 0.0;
    };

    //! ALPAKA_STRESS_SEED (decimal) when set, the repo-wide convention.
    [[nodiscard]] auto testSeed() -> std::uint64_t
    {
        if(char const* const env = std::getenv("ALPAKA_STRESS_SEED"))
            return std::strtoull(env, nullptr, 10);
        return 0x5EF0457ULL;
    }

    //! in * 2 + 1 through request-scoped scratch (the test_service.cpp
    //! workhorse, reused so fault runs cover the scratch path too).
    [[nodiscard]] auto scaleTemplate(std::size_t maxBatch, std::size_t scratchBytes = sizeof(double))
        -> serve::TemplateDesc
    {
        serve::TemplateDesc desc;
        desc.name = "scale";
        desc.scratchBytes = scratchBytes;
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

    //! Blocks its worker until released — piles up a queue on demand.
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

    //! Leak guard around a test body: simulated-GPU device allocations
    //! must return to baseline once the service drained and the pool
    //! caches are trimmed (the leak-under-fault regression satellite).
    struct SimLeakCheck
    {
        dev::DevCudaSim dev = dev::PltfCudaSim::getDevByIdx(0);
        std::size_t baseline = 0;

        SimLeakCheck()
        {
            (void) mempool::Pool::forDev(dev).trim(0);
            baseline = dev.simDevice().memory().allocationCount();
        }

        void expectClean() const
        {
            (void) mempool::Pool::forDev(dev).trim(0);
            EXPECT_EQ(dev.simDevice().memory().allocationCount(), baseline)
                << "device allocations leaked across the fault path";
        }
    };

    template<typename ErrorT>
    void expectError(serve::Future const& future)
    {
        ASSERT_TRUE(future.valid());
        EXPECT_THROW(future.wait(), ErrorT);
    }

    //! True when \p error holds an ErrorT.
    template<typename ErrorT>
    [[nodiscard]] auto failsWith(std::exception_ptr error) -> bool
    {
        try
        {
            if(error != nullptr)
                std::rethrow_exception(error);
        }
        catch(ErrorT const&)
        {
            return true;
        }
        catch(...)
        {
        }
        return false;
    }

    //! A caller-owned completion target that counts its firings and
    //! records what stats().completed read inside the hook: the probe of
    //! the serve::Completion contract (fires once per admitted request,
    //! after the stats settled; never for a refusal). With \p tracksRelease
    //! it also counts Completion::release calls. Posted, it describes
    //! \p request.
    struct CountingCompletion : serve::Posted
    {
        explicit CountingCompletion(serve::Service& svc, bool tracksRelease = false) noexcept
            : serve::Posted(&onComplete, tracksRelease ? &onRelease : nullptr, &describe)
            , svc(&svc)
        {
        }

        static void describe(serve::Posted& posted, serve::Request& out) noexcept
        {
            out = static_cast<CountingCompletion&>(posted).request;
        }

        static void onComplete(serve::Completion& completion, std::exception_ptr e) noexcept
        {
            auto& self = static_cast<CountingCompletion&>(completion);
            self.completedSeen = self.svc->stats().completed;
            self.error = e;
            if(self.sequence != nullptr)
                self.firedAt = self.sequence->fetch_add(1, std::memory_order_relaxed);
            self.fired.fetch_add(1, std::memory_order_release);
        }

        static void onRelease(serve::Completion& completion) noexcept
        {
            static_cast<CountingCompletion&>(completion).released.fetch_add(1, std::memory_order_release);
        }

        //! Bounded wait for the first firing.
        [[nodiscard]] auto awaitFired() const -> bool
        {
            auto const until = std::chrono::steady_clock::now() + 5s;
            while(fired.load(std::memory_order_acquire) == 0)
            {
                if(std::chrono::steady_clock::now() > until)
                    return false;
                std::this_thread::sleep_for(1ms);
            }
            return true;
        }

        serve::Service* svc;
        serve::Request request; //!< what a post describes
        std::exception_ptr error;
        std::uint64_t completedSeen = 0;
        //! When set, the hook numbers its firing from this counter.
        std::atomic<std::size_t>* sequence = nullptr;
        std::size_t firedAt = 0;
        std::atomic<int> fired{0};
        std::atomic<int> released{0};
    };

    [[nodiscard]] auto oneWorker() -> serve::ServiceOptions
    {
        serve::ServiceOptions options;
        options.cpuWorkers = 1;
        return options;
    }

    //! What submit() told the submitter of a request with a completion.
    struct Outcome
    {
        bool admitted = false;
        std::exception_ptr error; //!< the refusal submit() threw, if any
    };

    //! \p request with \p completion attached, submitted.
    auto admitWith(serve::Service& svc, serve::Request request, CountingCompletion& completion) -> Outcome
    {
        request.completion = &completion;
        Outcome outcome;
        try
        {
            EXPECT_FALSE(svc.submit(request).valid()) << "a request with a completion gets no future";
            outcome.admitted = true;
        }
        catch(...)
        {
            outcome.error = std::current_exception();
        }
        return outcome;
    }

    [[nodiscard]] auto requestOf(serve::TemplateId tmpl, void* payload, std::string_view tenant = "t")
        -> serve::Request
    {
        serve::Request r;
        r.tmpl = tmpl;
        r.tenant = tenant;
        r.payload = payload;
        return r;
    }

    //! \p completion, describing \p request, posted (Service::post).
    void postWith(serve::Service& svc, serve::Request const& request, CountingCompletion& completion)
    {
        completion.request = request;
        serve::Posted* const posted = &completion;
        svc.post({&posted, 1});
    }
} // namespace

// -------------------------------------------------------- deadline/cancel

TEST(ServeResilience, ExpiredAndCancelledAtSubmitResolveWithoutQueueing)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1});
    auto const id = svc.registerTemplate(scaleTemplate(4));
    Payload p{3.0, 0.0};

    serve::Request expired;
    expired.tmpl = id;
    expired.tenant = "t";
    expired.payload = &p;
    expired.deadline = std::chrono::steady_clock::now() - 1ms;
    expectError<serve::DeadlineError>(svc.submit(expired));

    auto token = serve::CancelToken::make();
    token.cancel();
    serve::Request cancelled;
    cancelled.tmpl = id;
    cancelled.tenant = "t";
    cancelled.payload = &p;
    cancelled.cancel = token;
    expectError<serve::CancelledError>(svc.submit(cancelled));

    auto const stats = svc.stats();
    EXPECT_EQ(stats.shedExpired, 1u);
    EXPECT_EQ(stats.shedCancelled, 1u);
    EXPECT_EQ(stats.admitted, 0u); // neither ever occupied a queue slot
    EXPECT_DOUBLE_EQ(p.out, 0.0); // no kernel ran
}

TEST(ServeResilience, QueuedRequestsShedAtDispatchOnDeadlineAndCancellation)
{
    Gate gate;
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1});
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(8));

    // Occupy the single worker, then queue requests that will be doomed
    // by the time the worker returns to the queue.
    int gatePayload = 0;
    auto gateFuture = svc.submit(gateId, "t", &gatePayload);
    gate.awaitStarted();

    Payload doomed{1.0, 0.0};
    serve::Request withDeadline;
    withDeadline.tmpl = scaleId;
    withDeadline.tenant = "t";
    withDeadline.payload = &doomed;
    withDeadline.deadline = std::chrono::steady_clock::now() + 10ms;
    auto expiredFuture = svc.submit(withDeadline);

    auto token = serve::CancelToken::make();
    Payload cancelledPayload{2.0, 0.0};
    serve::Request cancellable;
    cancellable.tmpl = scaleId;
    cancellable.tenant = "t";
    cancellable.payload = &cancelledPayload;
    cancellable.cancel = token;
    auto cancelledFuture = svc.submit(cancellable);

    Payload fine{5.0, 0.0};
    auto fineFuture = svc.submit(scaleId, "t", &fine);

    token.cancel();
    std::this_thread::sleep_for(20ms); // let the deadline lapse while queued
    gate.release.store(true, std::memory_order_release);

    expectError<serve::DeadlineError>(expiredFuture);
    expectError<serve::CancelledError>(cancelledFuture);
    fineFuture.wait(); // shedding is surgical: the healthy neighbour runs
    EXPECT_DOUBLE_EQ(fine.out, 11.0);
    EXPECT_DOUBLE_EQ(doomed.out, 0.0); // shed before any kernel work
    EXPECT_DOUBLE_EQ(cancelledPayload.out, 0.0);
    gateFuture.wait();

    auto const stats = svc.stats();
    EXPECT_EQ(stats.shedExpired, 1u);
    EXPECT_EQ(stats.shedCancelled, 1u);
    svc.drain();
    EXPECT_EQ(svc.stats().queued, 0u);
}

TEST(ServeResilience, CancelAfterCompletionIsANoOp)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1});
    auto const id = svc.registerTemplate(scaleTemplate(1));
    auto token = serve::CancelToken::make();
    Payload p{4.0, 0.0};
    serve::Request request;
    request.tmpl = id;
    request.tenant = "t";
    request.payload = &p;
    request.cancel = token;
    auto future = svc.submit(request);
    future.wait(); // completed with the work's outcome...
    token.cancel(); // ...so a late cancel cannot re-resolve it (invariant 16)
    EXPECT_EQ(future.error(), nullptr);
    EXPECT_DOUBLE_EQ(p.out, 9.0);
}

// ----------------------------------------------------------------- overload

TEST(ServeResilience, OverloadShedsOldestDeadlineFirstAndSparesDeadlineless)
{
    Gate gate;
    serve::ServiceOptions options;
    options.cpuWorkers = 1;
    options.shedWatermark = 4;
    serve::Service svc(std::move(options));
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(1));

    int gatePayload = 0;
    auto gateFuture = svc.submit(gateId, "t", &gatePayload);
    gate.awaitStarted();

    // Fill to the watermark: two deadline-less, two with deadlines (the
    // 1h one is "younger" than the 1s one).
    std::vector<Payload> payloads(8);
    auto deadlineless0 = svc.submit(scaleId, "t", &payloads[0]);
    auto deadlineless1 = svc.submit(scaleId, "t", &payloads[1]);
    serve::Request old;
    old.tmpl = scaleId;
    old.tenant = "t";
    old.payload = &payloads[2];
    old.deadline = std::chrono::steady_clock::now() + 1s;
    auto oldest = svc.submit(old);
    serve::Request young;
    young.tmpl = scaleId;
    young.tenant = "t";
    young.payload = &payloads[3];
    young.deadline = std::chrono::steady_clock::now() + 1h;
    auto younger = svc.submit(young);
    EXPECT_EQ(svc.stats().queued, 4u);

    // Push past the watermark: the oldest deadline is shed, the
    // deadline-less requests are untouchable.
    auto pusher = svc.submit(scaleId, "t", &payloads[4]);
    expectError<serve::OverloadError>(oldest);
    EXPECT_EQ(svc.stats().queued, 4u);
    EXPECT_EQ(svc.stats().shedOverload, 1u);

    // Again: now the 1h deadline is the oldest one left.
    auto pusher2 = svc.submit(scaleId, "t", &payloads[5]);
    expectError<serve::OverloadError>(younger);
    EXPECT_EQ(svc.stats().queued, 4u);

    // Nothing sheddable left: the queue grows (hard capacity still
    // bounds it) instead of shedding deadline-less work.
    auto pusher3 = svc.submit(scaleId, "t", &payloads[6]);
    EXPECT_EQ(svc.stats().queued, 5u);
    EXPECT_EQ(svc.stats().shedOverload, 2u);

    gate.release.store(true, std::memory_order_release);
    svc.drain();
    for(auto* f : {&deadlineless0, &deadlineless1, &pusher, &pusher2, &pusher3})
        f->wait(); // the survivors all ran
    gateFuture.wait();
}

// -------------------------------------------------------------- supervision

TEST(ServeResilience, SupervisorRestartsStalledWorkerAndFailsItsBatchTyped)
{
    serve::ServiceOptions options;
    options.cpuWorkers = 1;
    options.stallTimeout = 50ms;
    serve::Service svc(std::move(options));

    std::atomic<bool> stallArmed{true};
    serve::TemplateDesc slow;
    slow.name = "slow";
    slow.body = [&](serve::RequestItem const&)
    {
        if(stallArmed.exchange(false))
            std::this_thread::sleep_for(400ms); // one natural stall, no injection needed
    };
    auto const slowId = svc.registerTemplate(slow);
    auto const scaleId = svc.registerTemplate(scaleTemplate(4));

    auto stalled = svc.submit(slowId, "t", nullptr);
    expectError<serve::WorkerLostError>(stalled); // resolves ~stallTimeout, not after 400ms

    // The replacement serves — including templates lowered before the
    // restart (their incarnations were rebuilt for the fresh streams).
    Payload p{8.0, 0.0};
    svc.submit(scaleId, "t", &p).wait();
    EXPECT_DOUBLE_EQ(p.out, 17.0);
    svc.submit(slowId, "t", nullptr).wait(); // the slow template itself is fine now
    svc.drain(); // the barrier for "every future resolved, every restart counted"

    auto const stats = svc.stats();
    EXPECT_EQ(stats.workersLost, 1u);
    EXPECT_EQ(stats.workerRestarts, 1u);
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.inFlight, 0u);
    // Destructor joins the zombie once its 400ms nap ends — bounded here.
}

TEST(ServeResilience, GraphTemplatesSurviveAWorkerRestart)
{
    serve::ServiceOptions options;
    options.cpuWorkers = 1;
    options.stallTimeout = 50ms;
    serve::Service svc(std::move(options));

    std::atomic<bool> stallArmed{true};
    serve::TemplateDesc slow;
    slow.name = "slow";
    slow.body = [&](serve::RequestItem const&)
    {
        if(stallArmed.exchange(false))
            std::this_thread::sleep_for(300ms);
    };
    auto const slowId = svc.registerTemplate(slow);

    // A graph template: out = in * 2 + 1 in two captured nodes.
    serve::TemplateDesc graphDesc;
    graphDesc.name = "graph-scale";
    graphDesc.maxBatch = 4;
    graphDesc.graph = [](serve::GraphContext& ctx)
    {
        auto const* const cell = ctx.batch();
        graph::Graph g;
        auto const scale = g.addHost(
            {},
            [cell]
            {
                auto const& view = **cell;
                for(std::size_t i = 0; i < view.size(); ++i)
                {
                    auto* const p = static_cast<Payload*>(view[i].payload);
                    p->out = p->in * 2.0;
                }
            });
        g.addHost(
            {scale},
            [cell]
            {
                auto const& view = **cell;
                for(std::size_t i = 0; i < view.size(); ++i)
                    static_cast<Payload*>(view[i].payload)->out += 1.0;
            });
        return g;
    };
    auto const graphId = svc.registerTemplate(graphDesc);

    Payload before{2.0, 0.0};
    svc.submit(serve::Request{graphId, "t", &before, std::nullopt, {}}).wait();
    EXPECT_DOUBLE_EQ(before.out, 5.0);

    expectError<serve::WorkerLostError>(svc.submit(slowId, "t", nullptr));

    // The replacement's graph::Exec is a fresh instantiation on fresh
    // streams; replay must still be correct.
    Payload after{10.0, 0.0};
    svc.submit(serve::Request{graphId, "t", &after, std::nullopt, {}}).wait();
    EXPECT_DOUBLE_EQ(after.out, 21.0);
    EXPECT_EQ(svc.stats().workerRestarts, 1u);
}

TEST(ServeResilience, ShutdownReportsAStuckWorkerInsteadOfHanging)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1}); // no supervision
    serve::TemplateDesc slow;
    slow.name = "slow";
    slow.body = [](serve::RequestItem const&) { std::this_thread::sleep_for(400ms); };
    auto const slowId = svc.registerTemplate(slow);
    auto const scaleId = svc.registerTemplate(scaleTemplate(1));

    auto inFlight = svc.submit(slowId, "t", nullptr);
    while(svc.stats().inFlight == 0)
        std::this_thread::sleep_for(1ms);
    Payload queuedPayload{1.0, 0.0};
    auto queued = svc.submit(scaleId, "t", &queuedPayload);

    auto const start = std::chrono::steady_clock::now();
    auto const report = svc.shutdown(50ms);
    EXPECT_LT(std::chrono::steady_clock::now() - start, 300ms) << "shutdown must not wait out the stall";
    EXPECT_FALSE(report.clean);
    ASSERT_EQ(report.stuckWorkers.size(), 1u);
    EXPECT_EQ(report.stuckWorkers[0], 0u);
    EXPECT_EQ(report.orphanedInFlight, 1u);
    EXPECT_EQ(report.abandonedQueued, 1u);
    expectError<serve::WorkerLostError>(inFlight);
    expectError<serve::CancelledError>(queued);
    EXPECT_DOUBLE_EQ(queuedPayload.out, 0.0);
    // Destructor joins the worker after its nap — bounded here too.
}

TEST(ServeResilience, CleanShutdownReportsClean)
{
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 2});
    auto const id = svc.registerTemplate(scaleTemplate(4));
    std::vector<Payload> payloads(16);
    std::vector<serve::Future> futures;
    for(auto& p : payloads)
    {
        p.in = 1.0;
        futures.push_back(svc.submit(id, "t", &p));
    }
    auto const report = svc.shutdown(5s);
    EXPECT_TRUE(report.clean);
    EXPECT_EQ(report.workersJoined, 2u);
    EXPECT_EQ(report.abandonedQueued, 0u);
    EXPECT_EQ(report.orphanedInFlight, 0u);
    for(auto& f : futures)
        f.wait(); // everything admitted finished before the fleet left
}

// ------------------------------------------------------ completion contract

TEST(ServeCompletion, FiresOnceOnSuccessAndOnAThrowingBody)
{
    serve::Service svc(oneWorker());
    auto const scaleId = svc.registerTemplate(scaleTemplate(4));
    serve::TemplateDesc throwing;
    throwing.name = "throwing";
    throwing.body = [](serve::RequestItem const&) { throw std::runtime_error("body failed"); };
    auto const throwId = svc.registerTemplate(throwing);

    Payload p{3.0, 0.0};
    CountingCompletion ok(svc);
    auto const okOutcome = admitWith(svc, requestOf(scaleId, &p), ok);
    EXPECT_EQ(okOutcome.error, nullptr);
    EXPECT_TRUE(okOutcome.admitted);
    ASSERT_TRUE(ok.awaitFired());
    EXPECT_EQ(ok.error, nullptr);
    EXPECT_DOUBLE_EQ(p.out, 7.0);
    EXPECT_EQ(ok.completedSeen, 1u) << "the hook reads its request as completed";

    CountingCompletion failed(svc);
    EXPECT_EQ(admitWith(svc, requestOf(throwId, nullptr), failed).error, nullptr);
    ASSERT_TRUE(failed.awaitFired());
    EXPECT_TRUE(failsWith<std::runtime_error>(failed.error));
    EXPECT_EQ(failed.completedSeen, 2u);

    svc.drain();
    EXPECT_EQ(ok.fired.load(), 1);
    EXPECT_EQ(failed.fired.load(), 1);
    EXPECT_EQ(svc.stats().failed, 1u);
}

TEST(ServeCompletion, FiresInlineForADeadlineOrCancelAtAdmission)
{
    serve::Service svc(oneWorker());
    auto const id = svc.registerTemplate(scaleTemplate(4));
    Payload p{1.0, 0.0};

    CountingCompletion expired(svc);
    auto request = requestOf(id, &p);
    request.deadline = std::chrono::steady_clock::now() - 1ms;
    auto const expiredOutcome = admitWith(svc, request, expired);
    EXPECT_EQ(expiredOutcome.error, nullptr) << "resolved at admission is admitted, not refused";
    EXPECT_TRUE(expiredOutcome.admitted);
    EXPECT_EQ(expired.fired.load(), 1) << "fired inline, before submit returned";
    EXPECT_TRUE(failsWith<serve::DeadlineError>(expired.error));
    EXPECT_EQ(expired.completedSeen, 1u);

    CountingCompletion cancelled(svc);
    auto token = serve::CancelToken::make();
    token.cancel();
    request = requestOf(id, &p);
    request.cancel = token;
    EXPECT_EQ(admitWith(svc, request, cancelled).error, nullptr);
    EXPECT_EQ(cancelled.fired.load(), 1);
    EXPECT_TRUE(failsWith<serve::CancelledError>(cancelled.error));
    EXPECT_EQ(cancelled.completedSeen, 2u);

    svc.drain();
    EXPECT_EQ(expired.fired.load(), 1);
    EXPECT_EQ(cancelled.fired.load(), 1);
    EXPECT_DOUBLE_EQ(p.out, 0.0);
}

TEST(ServeCompletion, FiresOnceWhenShedAtDispatch)
{
    Gate gate;
    serve::Service svc(oneWorker());
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(8));
    int gatePayload = 0;
    auto gateFuture = svc.submit(gateId, "t", &gatePayload);
    gate.awaitStarted();

    // Queued behind the gate: one expires, one is cancelled.
    Payload doomed{1.0, 0.0};
    CountingCompletion expired(svc);
    auto request = requestOf(scaleId, &doomed);
    request.deadline = std::chrono::steady_clock::now() + 10ms;
    EXPECT_EQ(admitWith(svc, request, expired).error, nullptr);
    CountingCompletion cancelled(svc);
    auto token = serve::CancelToken::make();
    request = requestOf(scaleId, &doomed);
    request.cancel = token;
    EXPECT_EQ(admitWith(svc, request, cancelled).error, nullptr);

    token.cancel();
    std::this_thread::sleep_for(20ms); // the deadline lapses while queued
    EXPECT_EQ(expired.fired.load(), 0);
    EXPECT_EQ(cancelled.fired.load(), 0);
    gate.release.store(true, std::memory_order_release);
    ASSERT_TRUE(expired.awaitFired());
    ASSERT_TRUE(cancelled.awaitFired());
    EXPECT_TRUE(failsWith<serve::DeadlineError>(expired.error));
    EXPECT_TRUE(failsWith<serve::CancelledError>(cancelled.error));
    EXPECT_GE(expired.completedSeen, 2u); // the gate request, then itself
    EXPECT_GE(cancelled.completedSeen, 2u);
    gateFuture.wait();

    svc.drain();
    EXPECT_EQ(expired.fired.load(), 1);
    EXPECT_EQ(cancelled.fired.load(), 1);
    EXPECT_DOUBLE_EQ(doomed.out, 0.0);
    EXPECT_EQ(svc.stats().shedExpired, 1u);
    EXPECT_EQ(svc.stats().shedCancelled, 1u);
}

TEST(ServeCompletion, FiresOnceWhenShedUnderOverload)
{
    Gate gate;
    serve::ServiceOptions options;
    options.cpuWorkers = 1;
    options.shedWatermark = 1;
    serve::Service svc(std::move(options));
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(1));
    int gatePayload = 0;
    auto gateFuture = svc.submit(gateId, "t", &gatePayload);
    gate.awaitStarted();

    Payload filler{1.0, 0.0};
    auto fillerFuture = svc.submit(scaleId, "t", &filler); // deadline-less: never shed
    Payload victim{1.0, 0.0};
    CountingCompletion overloaded(svc);
    auto request = requestOf(scaleId, &victim);
    request.deadline = std::chrono::steady_clock::now() + 1h;
    EXPECT_EQ(admitWith(svc, request, overloaded).error, nullptr) << "admitted, then shed";
    EXPECT_EQ(overloaded.fired.load(), 1) << "shed by its own submit, past the watermark";
    EXPECT_TRUE(failsWith<serve::OverloadError>(overloaded.error));
    EXPECT_EQ(overloaded.completedSeen, 1u);

    gate.release.store(true, std::memory_order_release);
    gateFuture.wait();
    fillerFuture.wait();
    svc.drain();
    EXPECT_EQ(overloaded.fired.load(), 1);
    EXPECT_DOUBLE_EQ(victim.out, 0.0);
    EXPECT_EQ(svc.stats().shedOverload, 1u);
}

TEST(ServeCompletion, FiresOnceForAWorkerLostToTheSupervisor)
{
    std::atomic<bool> stallArmed{true};
    std::atomic<bool> zombieDone{false};
    serve::TemplateDesc slow;
    slow.name = "slow";
    slow.body = [&](serve::RequestItem const&)
    {
        if(stallArmed.exchange(false))
        {
            std::this_thread::sleep_for(300ms);
            zombieDone.store(true, std::memory_order_release);
        }
    };
    serve::ServiceOptions options;
    options.cpuWorkers = 1;
    options.stallTimeout = 50ms;
    serve::Service svc(std::move(options));
    auto const slowId = svc.registerTemplate(slow);

    CountingCompletion lost(svc);
    EXPECT_EQ(admitWith(svc, requestOf(slowId, nullptr), lost).error, nullptr);
    ASSERT_TRUE(lost.awaitFired());
    EXPECT_TRUE(failsWith<serve::WorkerLostError>(lost.error));
    EXPECT_EQ(lost.completedSeen, 1u);

    // The zombie finishes its batch late and loses the claim: nothing
    // fires again, and the replacement serves.
    while(!zombieDone.load(std::memory_order_acquire))
        std::this_thread::sleep_for(1ms);
    CountingCompletion after(svc);
    EXPECT_EQ(admitWith(svc, requestOf(slowId, nullptr), after).error, nullptr);
    ASSERT_TRUE(after.awaitFired());
    EXPECT_EQ(after.error, nullptr);
    EXPECT_TRUE(svc.shutdown().clean); // joins the zombie thread too
    EXPECT_EQ(lost.fired.load(), 1);
    EXPECT_EQ(after.fired.load(), 1);
    EXPECT_EQ(svc.stats().workersLost, 1u);
}

TEST(ServeCompletion, FiresOnceForWorkOrphanedOrAbandonedAtShutdown)
{
    serve::TemplateDesc slow;
    slow.name = "slow";
    slow.body = [](serve::RequestItem const&) { std::this_thread::sleep_for(300ms); };
    std::optional<serve::Service> svc;
    svc.emplace(oneWorker()); // no supervision
    auto const slowId = svc->registerTemplate(slow);
    auto const scaleId = svc->registerTemplate(scaleTemplate(1));

    CountingCompletion orphaned(*svc);
    EXPECT_EQ(admitWith(*svc, requestOf(slowId, nullptr), orphaned).error, nullptr);
    while(svc->stats().inFlight == 0)
        std::this_thread::sleep_for(1ms);
    Payload queuedPayload{1.0, 0.0};
    CountingCompletion abandoned(*svc);
    EXPECT_EQ(admitWith(*svc, requestOf(scaleId, &queuedPayload), abandoned).error, nullptr);

    auto const report = svc->shutdown(50ms);
    EXPECT_EQ(report.orphanedInFlight, 1u);
    EXPECT_EQ(report.abandonedQueued, 1u);
    EXPECT_EQ(orphaned.fired.load(), 1);
    EXPECT_EQ(abandoned.fired.load(), 1);
    EXPECT_TRUE(failsWith<serve::WorkerLostError>(orphaned.error));
    EXPECT_TRUE(failsWith<serve::CancelledError>(abandoned.error));
    EXPECT_EQ(orphaned.completedSeen, 1u);
    EXPECT_EQ(abandoned.completedSeen, 2u);

    // The stuck worker wakes inside the destructor's join and loses the
    // claim: neither request fires a second time.
    svc.reset();
    EXPECT_EQ(orphaned.fired.load(), 1);
    EXPECT_EQ(abandoned.fired.load(), 1);
    EXPECT_DOUBLE_EQ(queuedPayload.out, 0.0);
}

TEST(ServeCompletion, NeverFiresForARefusal)
{
    Gate gate;
    serve::ServiceOptions options;
    options.cpuWorkers = 1;
    options.queueCapacity = 1;
    options.maxTenants = 1;
    serve::Service svc(std::move(options));
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(1));
    int gatePayload = 0;
    auto gateFuture = svc.submit(gateId, "t", &gatePayload);
    gate.awaitStarted();
    Payload p{1.0, 0.0};

    CountingCompletion unknown(svc);
    auto const unknownOutcome = admitWith(svc, requestOf(9999, &p), unknown);
    EXPECT_FALSE(unknownOutcome.admitted);
    EXPECT_TRUE(failsWith<UsageError>(unknownOutcome.error)) << "unknown template";

    CountingCompletion tenantBound(svc);
    auto const tenantOutcome = admitWith(svc, requestOf(scaleId, &p, "second-tenant"), tenantBound);
    EXPECT_FALSE(tenantOutcome.admitted);
    EXPECT_TRUE(failsWith<serve::AdmissionError>(tenantOutcome.error)) << "tenant bound";

    Payload queued{1.0, 0.0};
    auto filler = svc.submit(scaleId, "t", &queued); // the queue's one place
    CountingCompletion full(svc);
    auto const fullOutcome = admitWith(svc, requestOf(scaleId, &p), full);
    EXPECT_FALSE(fullOutcome.admitted);
    EXPECT_TRUE(failsWith<serve::AdmissionError>(fullOutcome.error)) << "queue full";

    gate.release.store(true, std::memory_order_release);
    gateFuture.wait();
    filler.wait();
    svc.drain();
    EXPECT_TRUE(svc.shutdown().clean);
    for(auto const* c : {&unknown, &tenantBound, &full})
        EXPECT_EQ(c->fired.load(), 0);
    EXPECT_DOUBLE_EQ(p.out, 0.0);
    EXPECT_EQ(svc.stats().completed, 2u);
}

// ------------------------------------------------------------ post contract
//
// Service::post: every posted request resolves exactly once through its
// completion, refusals included, on a worker (or on shutdown's thread
// for what its swap took, or on the poster for a post after it).

TEST(ServePost, FiresOnceOnSuccessAndOnAThrowingBodyAndDrainWaitsForIt)
{
    serve::Service svc(oneWorker());
    auto const scaleId = svc.registerTemplate(scaleTemplate(4));
    serve::TemplateDesc throwing;
    throwing.name = "throwing";
    throwing.body = [](serve::RequestItem const&) { throw std::runtime_error("body failed"); };
    auto const throwId = svc.registerTemplate(throwing);

    Payload p{3.0, 0.0};
    CountingCompletion ok(svc);
    auto okRequest = requestOf(scaleId, &p);
    postWith(svc, okRequest, ok);
    CountingCompletion failed(svc);
    auto failRequest = requestOf(throwId, nullptr);
    postWith(svc, failRequest, failed);
    svc.drain(); // covers the posted list: both fired before it returns
    EXPECT_EQ(ok.fired.load(), 1);
    EXPECT_EQ(failed.fired.load(), 1);
    EXPECT_EQ(ok.error, nullptr);
    EXPECT_DOUBLE_EQ(p.out, 7.0);
    EXPECT_TRUE(failsWith<std::runtime_error>(failed.error));
    EXPECT_GE(ok.completedSeen, 1u) << "the hook reads its request as completed";
    EXPECT_GE(failed.completedSeen, 1u);
    auto const stats = svc.stats();
    EXPECT_EQ(stats.admitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.failed, 1u);
}

TEST(ServePost, FiresOnceForTheTenantBoundAFullQueueAndAnUnknownTemplate)
{
    Gate gate;
    serve::ServiceOptions options;
    options.cpuWorkers = 1;
    options.queueCapacity = 1;
    options.maxTenants = 1;
    serve::Service svc(std::move(options));
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(1));
    int gatePayload = 0;
    auto gateFuture = svc.submit(gateId, "t", &gatePayload);
    gate.awaitStarted();
    Payload queuedPayload{1.0, 0.0};
    auto filler = svc.submit(scaleId, "t", &queuedPayload); // the queue's one place

    // Posted while the only worker is held: it decides once the gate opens.
    Payload p{1.0, 0.0};
    CountingCompletion unknown(svc);
    auto unknownRequest = requestOf(9999, &p);
    CountingCompletion tenantBound(svc);
    auto tenantRequest = requestOf(scaleId, &p, "second-tenant");
    CountingCompletion full(svc);
    auto fullRequest = requestOf(scaleId, &p);
    postWith(svc, unknownRequest, unknown);
    postWith(svc, tenantRequest, tenantBound);
    postWith(svc, fullRequest, full);
    std::this_thread::sleep_for(10ms);
    for(auto const* c : {&unknown, &tenantBound, &full})
        EXPECT_EQ(c->fired.load(), 0) << "decided by the worker, not the poster";

    gate.release.store(true, std::memory_order_release);
    gateFuture.wait();
    filler.wait();
    svc.drain();
    for(auto const* c : {&unknown, &tenantBound, &full})
        EXPECT_EQ(c->fired.load(), 1);
    EXPECT_TRUE(failsWith<serve::UnknownTemplateError>(unknown.error));
    EXPECT_TRUE(failsWith<serve::AdmissionError>(tenantBound.error)) << "tenant bound";
    EXPECT_TRUE(failsWith<serve::AdmissionError>(full.error)) << "queue full";
    EXPECT_DOUBLE_EQ(p.out, 0.0);
    auto const stats = svc.stats();
    EXPECT_EQ(stats.completed, 2u) << "refusals are not completions";
    EXPECT_EQ(stats.rejected, 2u);
}

TEST(ServePost, FiresOnceWhenExpiredOrCancelledAtAdmissionOrBeforeDispatch)
{
    Gate gate;
    serve::Service svc(oneWorker());
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(8));
    Payload doomed{1.0, 0.0};

    // At admission: already past its deadline, already cancelled.
    CountingCompletion expiredEarly(svc);
    auto expiredEarlyRequest = requestOf(scaleId, &doomed);
    expiredEarlyRequest.deadline = std::chrono::steady_clock::now() - 1ms;
    auto token = serve::CancelToken::make();
    token.cancel();
    CountingCompletion cancelledEarly(svc);
    auto cancelledEarlyRequest = requestOf(scaleId, &doomed);
    cancelledEarlyRequest.cancel = token;
    postWith(svc, expiredEarlyRequest, expiredEarly);
    postWith(svc, cancelledEarlyRequest, cancelledEarly);
    ASSERT_TRUE(expiredEarly.awaitFired());
    ASSERT_TRUE(cancelledEarly.awaitFired());
    EXPECT_TRUE(failsWith<serve::DeadlineError>(expiredEarly.error));
    EXPECT_TRUE(failsWith<serve::CancelledError>(cancelledEarly.error));

    // Before dispatch: admitted behind a held gate, doomed while queued.
    int gatePayload = 0;
    auto gateFuture = svc.submit(gateId, "t", &gatePayload);
    gate.awaitStarted();
    CountingCompletion expiredLate(svc);
    auto expiredLateRequest = requestOf(scaleId, &doomed);
    expiredLateRequest.deadline = std::chrono::steady_clock::now() + 10ms;
    auto lateToken = serve::CancelToken::make();
    CountingCompletion cancelledLate(svc);
    auto cancelledLateRequest = requestOf(scaleId, &doomed);
    cancelledLateRequest.cancel = lateToken;
    postWith(svc, expiredLateRequest, expiredLate);
    postWith(svc, cancelledLateRequest, cancelledLate);
    lateToken.cancel();
    std::this_thread::sleep_for(20ms); // the deadline lapses
    gate.release.store(true, std::memory_order_release);
    ASSERT_TRUE(expiredLate.awaitFired());
    ASSERT_TRUE(cancelledLate.awaitFired());
    EXPECT_TRUE(failsWith<serve::DeadlineError>(expiredLate.error));
    EXPECT_TRUE(failsWith<serve::CancelledError>(cancelledLate.error));
    gateFuture.wait();

    svc.drain();
    for(auto const* c : {&expiredEarly, &cancelledEarly, &expiredLate, &cancelledLate})
        EXPECT_EQ(c->fired.load(), 1);
    EXPECT_DOUBLE_EQ(doomed.out, 0.0);
    EXPECT_EQ(svc.stats().shedExpired, 2u);
    EXPECT_EQ(svc.stats().shedCancelled, 2u);
}

TEST(ServePost, FiresOnceWhenShedUnderOverload)
{
    Gate gate;
    serve::ServiceOptions options;
    options.cpuWorkers = 1;
    options.shedWatermark = 1;
    serve::Service svc(std::move(options));
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(1));
    int gatePayload = 0;
    auto gateFuture = svc.submit(gateId, "t", &gatePayload);
    gate.awaitStarted();

    Payload filler{1.0, 0.0};
    auto fillerFuture = svc.submit(scaleId, "t", &filler); // deadline-less: never shed
    Payload victim{1.0, 0.0};
    CountingCompletion overloaded(svc);
    auto request = requestOf(scaleId, &victim);
    request.deadline = std::chrono::steady_clock::now() + 1h;
    postWith(svc, request, overloaded);
    std::this_thread::sleep_for(10ms);
    EXPECT_EQ(overloaded.fired.load(), 0) << "the held worker has not admitted it yet";

    // The worker admits it behind the filler, past the watermark, and its
    // own admission sheds it.
    gate.release.store(true, std::memory_order_release);
    ASSERT_TRUE(overloaded.awaitFired());
    gateFuture.wait();
    fillerFuture.wait();
    svc.drain();
    EXPECT_EQ(overloaded.fired.load(), 1);
    EXPECT_TRUE(failsWith<serve::OverloadError>(overloaded.error));
    EXPECT_DOUBLE_EQ(victim.out, 0.0);
    EXPECT_EQ(svc.stats().shedOverload, 1u);
}

TEST(ServePost, FiresOnceForAWorkerLostAndReleasesOnceTheZombieLetGo)
{
    std::atomic<bool> stallArmed{true};
    std::atomic<bool> zombieDone{false};
    serve::TemplateDesc slow;
    slow.name = "slow";
    slow.body = [&](serve::RequestItem const&)
    {
        if(stallArmed.exchange(false))
        {
            std::this_thread::sleep_for(300ms);
            zombieDone.store(true, std::memory_order_release);
        }
    };
    serve::ServiceOptions options;
    options.cpuWorkers = 1;
    options.stallTimeout = 50ms;
    serve::Service svc(std::move(options));
    auto const slowId = svc.registerTemplate(slow);

    CountingCompletion lost(svc, /*tracksRelease=*/true);
    auto lostRequest = requestOf(slowId, nullptr);
    postWith(svc, lostRequest, lost);
    ASSERT_TRUE(lost.awaitFired());
    EXPECT_TRUE(failsWith<serve::WorkerLostError>(lost.error));
    EXPECT_FALSE(zombieDone.load(std::memory_order_acquire)) << "answered by the supervisor";
    EXPECT_EQ(lost.released.load(), 0) << "the zombie still runs the kernel";

    auto const until = std::chrono::steady_clock::now() + 5s;
    while(lost.released.load(std::memory_order_acquire) == 0 && std::chrono::steady_clock::now() < until)
        std::this_thread::sleep_for(1ms);
    EXPECT_EQ(lost.released.load(), 1);
    EXPECT_TRUE(zombieDone.load(std::memory_order_acquire)) << "released only after the kernel returned";

    CountingCompletion after(svc, /*tracksRelease=*/true);
    auto afterRequest = requestOf(slowId, nullptr);
    postWith(svc, afterRequest, after);
    ASSERT_TRUE(after.awaitFired());
    EXPECT_EQ(after.error, nullptr);
    EXPECT_TRUE(svc.shutdown().clean);
    EXPECT_EQ(lost.fired.load(), 1);
    EXPECT_EQ(lost.released.load(), 1);
    EXPECT_EQ(after.fired.load(), 1);
    EXPECT_EQ(after.released.load(), 0) << "only a lost worker's requests are released";
}

TEST(ServePost, ShutdownRefusesWhatIsStillInThePostedList)
{
    // A live worker held in a kernel: shutdown's swap takes the posted
    // requests it never reached and refuses them.
    {
        Gate gate;
        serve::Service svc(oneWorker());
        auto const gateId = svc.registerTemplate(gate.desc());
        auto const scaleId = svc.registerTemplate(scaleTemplate(4));
        int gatePayload = 0;
        auto gateFuture = svc.submit(gateId, "t", &gatePayload);
        gate.awaitStarted();
        Payload p{1.0, 0.0};
        std::vector<serve::Request> requests(3, requestOf(scaleId, &p));
        std::vector<std::unique_ptr<CountingCompletion>> completions;
        for(auto& r : requests)
        {
            completions.push_back(std::make_unique<CountingCompletion>(svc));
            postWith(svc, r, *completions.back());
        }
        serve::ShutdownReport report;
        std::thread stopper([&] { report = svc.shutdown(5s); });
        // Post until one is refused on the spot, on this thread: from then
        // on the list is closed. The ones posted before it were in the
        // list with the three when shutdown swapped it out, and were
        // refused there.
        std::vector<serve::Request> late(60, requestOf(scaleId, &p));
        std::vector<std::unique_ptr<CountingCompletion>> lateCompletions;
        bool refusedInline = false;
        for(auto& r : late)
        {
            lateCompletions.push_back(std::make_unique<CountingCompletion>(svc));
            postWith(svc, r, *lateCompletions.back());
            if(lateCompletions.back()->fired.load() == 1)
            {
                refusedInline = true;
                break;
            }
            std::this_thread::sleep_for(5ms);
        }
        EXPECT_TRUE(refusedInline) << "shutdown never stopped admission";
        gate.release.store(true, std::memory_order_release);
        stopper.join();
        gateFuture.wait();
        EXPECT_TRUE(report.clean);
        for(auto const* all : {&completions, &lateCompletions})
            for(auto const& c : *all)
            {
                EXPECT_EQ(c->fired.load(), 1);
                EXPECT_TRUE(failsWith<serve::AdmissionError>(c->error));
            }
        EXPECT_DOUBLE_EQ(p.out, 0.0);
    }
    // A stuck worker: shutdown refuses them before it waits for it.
    {
        Gate gate;
        std::optional<serve::Service> svc;
        svc.emplace(oneWorker());
        auto const gateId = svc->registerTemplate(gate.desc());
        auto const scaleId = svc->registerTemplate(scaleTemplate(4));
        int gatePayload = 0;
        auto gateFuture = svc->submit(gateId, "t", &gatePayload);
        gate.awaitStarted();
        Payload p{1.0, 0.0};
        auto request = requestOf(scaleId, &p);
        CountingCompletion swept(*svc);
        postWith(*svc, request, swept);
        auto const report = svc->shutdown(50ms);
        EXPECT_FALSE(report.clean);
        EXPECT_EQ(report.orphanedInFlight, 1u);
        EXPECT_EQ(swept.fired.load(), 1) << "refused by shutdown, before it returned";
        EXPECT_TRUE(failsWith<serve::AdmissionError>(swept.error));
        gate.release.store(true, std::memory_order_release);
        svc.reset(); // joins the stuck worker, which loses its claim
        EXPECT_EQ(swept.fired.load(), 1);
        EXPECT_THROW(gateFuture.wait(), serve::WorkerLostError);
        EXPECT_DOUBLE_EQ(p.out, 0.0);
    }
}

TEST(ServePost, APostWakesAParkedWorker)
{
    serve::Service svc(oneWorker());
    auto const scaleId = svc.registerTemplate(scaleTemplate(4));
    for(int round = 0; round < 5; ++round)
    {
        // Long enough for the worker to spend its spin budget and park;
        // only this post can wake it (no supervisor, no other traffic).
        std::this_thread::sleep_for(20ms);
        Payload p{static_cast<double>(round), 0.0};
        CountingCompletion done(svc);
        auto request = requestOf(scaleId, &p);
        postWith(svc, request, done);
        ASSERT_TRUE(done.awaitFired()) << "round " << round << ": the parked worker never woke";
        EXPECT_EQ(done.error, nullptr);
        EXPECT_DOUBLE_EQ(p.out, 2.0 * round + 1.0);
    }
}

TEST(ServePost, ALongSpanIsTakenWholeAndFiresInOrderOnceTheGateOpens)
{
    Gate gate;
    serve::ServiceOptions options;
    options.cpuWorkers = 1;
    options.queueCapacity = 4096;
    serve::Service svc(std::move(options));
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(64));
    int gatePayload = 0;
    auto gateFuture = svc.submit(gateId, "t", &gatePayload);
    gate.awaitStarted();

    constexpr std::size_t count = 1000; // far past one admission chunk
    std::atomic<std::size_t> sequence{0};
    std::vector<Payload> payloads(count);
    std::vector<std::unique_ptr<CountingCompletion>> completions;
    std::vector<serve::Posted*> pointers;
    for(std::size_t i = 0; i < count; ++i)
    {
        payloads[i].in = static_cast<double>(i);
        completions.push_back(std::make_unique<CountingCompletion>(svc));
        completions.back()->request = requestOf(scaleId, &payloads[i]);
        completions.back()->sequence = &sequence;
        pointers.push_back(completions.back().get());
    }
    svc.post(pointers); // one post takes the whole span
    std::this_thread::sleep_for(10ms);
    EXPECT_EQ(sequence.load(), 0u) << "nothing fires while the only worker is held";

    gate.release.store(true, std::memory_order_release);
    gateFuture.wait();
    svc.drain();
    for(std::size_t i = 0; i < count; ++i)
    {
        EXPECT_EQ(completions[i]->fired.load(), 1) << "request " << i;
        EXPECT_EQ(completions[i]->error, nullptr) << "request " << i;
        EXPECT_EQ(completions[i]->firedAt, i) << "request " << i << " fired out of post order";
        EXPECT_DOUBLE_EQ(payloads[i].out, 2.0 * payloads[i].in + 1.0) << "request " << i;
    }
    EXPECT_EQ(svc.stats().admitted, count + 1);
}

//! One thread posts spans of seeded lengths while another shuts the
//! service down: every completion fires exactly once, with its result or
//! AdmissionError, whichever side of the swap its post landed on.
TEST(ServePost, PostsRacingShutdownEachFireOnceWithTheirResultOrARefusal)
{
    auto const seed = testSeed();
    SCOPED_TRACE("ALPAKA_STRESS_SEED=" + std::to_string(seed));
    constexpr int rounds = 60;
    constexpr std::size_t perRound = 256;
    for(int round = 0; round < rounds; ++round)
    {
        SCOPED_TRACE("round " + std::to_string(round));
        std::mt19937_64 rng(seed + static_cast<std::uint64_t>(round));
        std::vector<Payload> payloads(perRound);
        std::vector<std::unique_ptr<CountingCompletion>> completions;
        std::vector<serve::Posted*> pointers;
        std::size_t posted = 0;
        {
            serve::Service svc(serve::ServiceOptions{.cpuWorkers = 2});
            auto const scaleId = svc.registerTemplate(scaleTemplate(8));
            for(std::size_t i = 0; i < perRound; ++i)
            {
                payloads[i].in = static_cast<double>(i);
                completions.push_back(std::make_unique<CountingCompletion>(svc));
                completions.back()->request = requestOf(scaleId, &payloads[i]);
                pointers.push_back(completions.back().get());
            }
            auto const stopAfter = std::chrono::microseconds(rng() % 400);
            std::thread poster(
                [&]
                {
                    std::mt19937_64 spans(rng());
                    while(posted < perRound)
                    {
                        auto const n = std::min<std::size_t>(1 + spans() % 16, perRound - posted);
                        svc.post(std::span(pointers).subspan(posted, n));
                        posted += n;
                        if(spans() % 4 == 0)
                            std::this_thread::yield();
                    }
                });
            std::this_thread::sleep_for(stopAfter);
            EXPECT_TRUE(svc.shutdown(5s).clean);
            poster.join();
        }
        ASSERT_EQ(posted, perRound);
        for(std::size_t i = 0; i < perRound; ++i)
        {
            ASSERT_EQ(completions[i]->fired.load(), 1) << "request " << i;
            if(completions[i]->error == nullptr)
                EXPECT_DOUBLE_EQ(payloads[i].out, 2.0 * payloads[i].in + 1.0) << "request " << i;
            else
            {
                EXPECT_TRUE(failsWith<serve::AdmissionError>(completions[i]->error)) << "request " << i;
                EXPECT_DOUBLE_EQ(payloads[i].out, 0.0) << "request " << i;
            }
        }
    }
}

//! drain() called right after a post, while the only worker is parked:
//! the list is not taken yet and nothing is queued, in flight or
//! resolving, so only the posted list keeps drain() waiting. The posted
//! requests are slow, so a drain() that returned early would see none of
//! them fired.
TEST(ServePost, DrainWaitsForAListNoWorkerHasTakenYet)
{
    serve::Service svc(oneWorker());
    serve::TemplateDesc slow;
    slow.name = "slow";
    slow.body = [](serve::RequestItem const& item)
    {
        std::this_thread::sleep_for(1ms);
        static_cast<Payload*>(item.payload)->out = 1.0;
    };
    auto const slowId = svc.registerTemplate(slow);
    for(int round = 0; round < 10; ++round)
    {
        SCOPED_TRACE("round " + std::to_string(round));
        std::this_thread::sleep_for(5ms); // past the spin budget: the worker parks
        std::vector<Payload> payloads(3);
        std::vector<std::unique_ptr<CountingCompletion>> completions;
        std::vector<serve::Posted*> pointers;
        for(auto& p : payloads)
        {
            completions.push_back(std::make_unique<CountingCompletion>(svc));
            completions.back()->request = requestOf(slowId, &p);
            pointers.push_back(completions.back().get());
        }
        svc.post(pointers);
        svc.drain();
        for(std::size_t i = 0; i < completions.size(); ++i)
        {
            ASSERT_EQ(completions[i]->fired.load(), 1) << "drain() returned before posted request " << i << " fired";
            EXPECT_EQ(completions[i]->error, nullptr);
            EXPECT_DOUBLE_EQ(payloads[i].out, 1.0);
        }
    }
}

// ---------------------------------------------------------- injected faults

TEST(ServeFaults, KernelThrowFailsExactlyOneRequest)
{
    REQUIRES_FAULTINJECT();
    SimLeakCheck leak;
    serve::ServiceOptions options;
    options.cpuWorkers = 0;
    options.simDevs = {leak.dev};
    serve::Service svc(std::move(options));
    auto const id = svc.registerTemplate(scaleTemplate(4));

    fault::Plan plan;
    plan.fail("serve.kernel_throw", fault::Trigger::once(3));

    std::vector<Payload> payloads(8);
    std::vector<serve::Future> futures;
    for(std::size_t i = 0; i < payloads.size(); ++i)
    {
        payloads[i].in = static_cast<double>(i);
        futures.push_back(svc.submit(id, "t", &payloads[i]));
    }
    svc.drain();

    std::size_t failed = 0;
    for(std::size_t i = 0; i < futures.size(); ++i)
    {
        if(futures[i].error() != nullptr)
        {
            ++failed;
            EXPECT_THROW(futures[i].wait(), fault::InjectedFault);
            EXPECT_DOUBLE_EQ(payloads[i].out, 0.0);
        }
        else
        {
            EXPECT_DOUBLE_EQ(payloads[i].out, payloads[i].in * 2.0 + 1.0);
        }
    }
    EXPECT_EQ(failed, 1u) << "confinement (invariant 15): one injected throw, one failed future";
    EXPECT_EQ(plan.fires("serve.kernel_throw"), 1u);
    svc.drain();
    leak.expectClean();
}

TEST(ServeFaults, DispatchFaultFailsTheWholeBatchTyped)
{
    REQUIRES_FAULTINJECT();
    Gate gate;
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1});
    auto const gateId = svc.registerTemplate(gate.desc());
    auto const scaleId = svc.registerTemplate(scaleTemplate(4));

    int gatePayload = 0;
    auto gateFuture = svc.submit(gateId, "t", &gatePayload);
    gate.awaitStarted();

    // Pile up a >1 batch, then arm dispatch to die once.
    std::vector<Payload> payloads(3);
    std::vector<serve::Future> futures;
    for(auto& p : payloads)
        futures.push_back(svc.submit(scaleId, "t", &p));

    // The gate dispatch already happened, so the next serve.dispatch hit
    // is the coalesced 3-request batch behind it.
    fault::Plan plan;
    plan.fail("serve.dispatch", fault::Trigger::once(1));
    gate.release.store(true, std::memory_order_release);
    gateFuture.wait();
    svc.drain();
    EXPECT_EQ(plan.fires("serve.dispatch"), 1u);

    // The dispatch died before per-request isolation existed: the whole
    // batch failed, each future exactly once, typed.
    for(auto& f : futures)
        EXPECT_THROW(f.wait(), fault::InjectedFault);
    for(auto const& p : payloads)
        EXPECT_DOUBLE_EQ(p.out, 0.0);

    // One-shot spent: later dispatches are healthy.
    Payload p{3.0, 0.0};
    svc.submit(scaleId, "t", &p).wait();
    EXPECT_DOUBLE_EQ(p.out, 7.0);
}

TEST(ServeFaults, UpstreamOomRecoversByTrimmingTheCache)
{
    REQUIRES_FAULTINJECT();
    SimLeakCheck leak;
    serve::ServiceOptions options;
    options.cpuWorkers = 0;
    options.simDevs = {leak.dev};
    serve::Service svc(std::move(options));
    // Pre-warm a SMALL size class so the pool holds trimmable cache...
    auto const smallId = svc.registerTemplate(scaleTemplate(1, 64));
    Payload warm{1.0, 0.0};
    svc.submit(smallId, "t", &warm).wait();
    svc.drain();

    // ...then miss with a LARGE class while upstream is armed to fail
    // once: allocUpstream must trim the small cache and retry — the
    // request succeeds through the recovery path.
    auto const largeId = svc.registerTemplate(scaleTemplate(1, 64 * 1024));
    fault::Plan plan;
    plan.fail(
        "mempool.upstream_oom",
        fault::Trigger::once(1),
        [] { return std::make_exception_ptr(std::bad_alloc()); });
    Payload p{5.0, 0.0};
    svc.submit(largeId, "t", &p).wait();
    EXPECT_DOUBLE_EQ(p.out, 11.0);
    EXPECT_EQ(plan.fires("mempool.upstream_oom"), 1u);

    svc.drain();
    leak.expectClean();
}

TEST(ServeFaults, UpstreamOomOnBothAttemptsFailsTheBatchTypedAndLeaksNothing)
{
    REQUIRES_FAULTINJECT();
    SimLeakCheck leak;
    serve::ServiceOptions options;
    options.cpuWorkers = 0;
    options.simDevs = {leak.dev};
    serve::Service svc(std::move(options));
    // Prewarm a small-class cached block: with an empty pool the first
    // upstream failure propagates without a retry (trim(0) == 0), so
    // the two-fire schedule would spill onto a later request.
    auto const smallId = svc.registerTemplate(scaleTemplate(1, 64));
    Payload warm{1.0, 0.0};
    svc.submit(smallId, "t", &warm).wait();
    svc.drain();
    auto const id = svc.registerTemplate(scaleTemplate(1, 256 * 1024));

    fault::Plan plan;
    plan.fail(
        "mempool.upstream_oom",
        fault::Trigger{1, 1, 1.0, 2}, // the first attempt AND its retry
        [] { return std::make_exception_ptr(std::bad_alloc()); });
    Payload p{5.0, 0.0};
    auto future = svc.submit(id, "t", &p);
    EXPECT_THROW(future.wait(), std::bad_alloc); // propagated typed, confined to the batch
    EXPECT_DOUBLE_EQ(p.out, 0.0);

    // The service is not poisoned: with the budget spent, the same
    // template serves fine.
    Payload q{6.0, 0.0};
    svc.submit(id, "t", &q).wait();
    EXPECT_DOUBLE_EQ(q.out, 13.0);

    svc.drain();
    leak.expectClean();
}

TEST(ServeFaults, InjectedWorkerStallTriggersSupervisorRecovery)
{
    REQUIRES_FAULTINJECT();
    serve::ServiceOptions options;
    options.cpuWorkers = 1;
    options.stallTimeout = 50ms;
    serve::Service svc(std::move(options));
    auto const id = svc.registerTemplate(scaleTemplate(4));

    fault::Plan plan;
    plan.delay("serve.worker_stall", 400ms, fault::Trigger::once(1));

    Payload stalledPayload{1.0, 0.0};
    auto stalled = svc.submit(id, "t", &stalledPayload);
    expectError<serve::WorkerLostError>(stalled);
    EXPECT_EQ(plan.fires("serve.worker_stall"), 1u);

    Payload p{2.0, 0.0};
    svc.submit(id, "t", &p).wait();
    EXPECT_DOUBLE_EQ(p.out, 5.0);
    auto const stats = svc.stats();
    EXPECT_EQ(stats.workersLost, 1u);
    EXPECT_EQ(stats.workerRestarts, 1u);
}

TEST(ServeFaults, AdmissionFaultReachesTheSubmitterNotAWorker)
{
    REQUIRES_FAULTINJECT();
    serve::Service svc(serve::ServiceOptions{.cpuWorkers = 1});
    auto const id = svc.registerTemplate(scaleTemplate(1));

    fault::Plan plan;
    plan.fail("serve.admit", fault::Trigger::once(1));
    Payload p{1.0, 0.0};
    EXPECT_THROW((void) svc.submit(id, "t", &p), fault::InjectedFault);

    // No queue slot leaked; the service still serves.
    svc.submit(id, "t", &p).wait();
    EXPECT_DOUBLE_EQ(p.out, 3.0);
    EXPECT_EQ(svc.stats().queued, 0u);
}
