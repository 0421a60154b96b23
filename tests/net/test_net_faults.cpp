/// \file Wire-path chaos (DESIGN.md §7.2 applied to §9, satellite b):
/// the net layer's fault sites — dropped, duplicated, and truncated
/// response frames, delayed polls — forced deterministically, and the
/// protocol's reaction pinned: a drop leaves the request in flight (the
/// client's window accounting is the loss detector), a duplicate is a
/// benign re-delivery keyed by reqId, a truncation surfaces as a TYPED
/// TruncatedFrameError at the peer, a delayed poll just defers
/// progress. Skips without ALPAKA_REPRO_FAULTINJECT (the chaos lanes).
#include <net/client.hpp>
#include <net/front_door.hpp>
#include <net/router.hpp>
#include <net/transport.hpp>

#include <serve/service.hpp>

#include <alpaka/core/fault.hpp>

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <thread>

using namespace alpaka;
using namespace std::chrono_literals;

#if defined(ALPAKA_REPRO_FAULTINJECT)
#    define REQUIRES_FAULTINJECT() (void) 0
#else
#    define REQUIRES_FAULTINJECT() GTEST_SKIP() << "built without ALPAKA_REPRO_FAULTINJECT"
#endif

namespace
{
    struct TestCfg
    {
        static constexpr std::size_t maxConnections = 2;
        static constexpr std::size_t slotsPerConnection = 8;
        static constexpr std::size_t maxPayload = 64;
        static constexpr std::size_t maxTenantBytes = 32;
        static constexpr std::size_t window = 8;
        static constexpr std::size_t txFrames = 4;
    };
    //! The drop-storm test needs a window wider than the worst-case
    //! number of holes (dropped responses never leave the window).
    struct StormCfg : TestCfg
    {
        static constexpr std::size_t window = 128;
    };

    using Door = net::FrontDoor<TestCfg>;
    using Client = net::Client<TestCfg>;

    [[nodiscard]] auto incrementTemplate() -> serve::TemplateDesc
    {
        serve::TemplateDesc desc;
        desc.name = "increment";
        desc.maxBatch = 8;
        desc.body = [](serve::RequestItem const& item)
        {
            auto* const bytes = static_cast<unsigned char*>(item.payload);
            for(std::size_t i = 0; i < item.payloadSize; ++i)
                bytes[i] = static_cast<unsigned char>(bytes[i] + 1);
        };
        return desc;
    }

    [[nodiscard]] auto oneShardRouter() -> net::RouterOptions
    {
        net::RouterOptions opt;
        opt.shards = 1;
        opt.shard.cpuWorkers = 1;
        opt.shard.queueCapacity = 64;
        return opt;
    }

    template<typename Cfg>
    struct SessionT
    {
        net::Router router{oneShardRouter()};
        serve::TemplateId tmpl = router.registerTemplate(incrementTemplate());
        net::FrontDoor<Cfg> door{router};
        std::unique_ptr<net::Client<Cfg>> client;

        //! \p toClientBytes sizes the door-to-client pipe.
        explicit SessionT(std::size_t toClientBytes = 1 << 16)
        {
            auto const toClient = std::make_shared<net::detail::ByteRing>(toClientBytes);
            auto const toDoor = std::make_shared<net::detail::ByteRing>(1 << 16);
            EXPECT_TRUE(door.accept(std::make_unique<net::PipeTransport>(toClient, toDoor)));
            client = std::make_unique<net::Client<Cfg>>(std::make_unique<net::PipeTransport>(toDoor, toClient));
            client->hello("tenant");
            pollFor([&] { return client->ready(); });
        }

        template<typename Pred>
        auto pollFor(Pred&& done, std::chrono::milliseconds budget = 3000ms) -> bool
        {
            return pollWith([](typename net::Client<Cfg>::Response const&) {}, done, budget);
        }

        template<typename OnResponse, typename Pred>
        auto pollWith(OnResponse&& onResponse, Pred&& done, std::chrono::milliseconds budget = 3000ms) -> bool
        {
            auto const until = std::chrono::steady_clock::now() + budget;
            while(!done())
            {
                if(std::chrono::steady_clock::now() > until)
                    return false;
                auto const tnow = std::chrono::steady_clock::now();
                bool const progress = door.poll(tnow) | static_cast<int>(client->poll(onResponse));
                if(!progress)
                    std::this_thread::sleep_for(100us);
            }
            return true;
        }
    };

    using Session = SessionT<TestCfg>;
} // namespace

//! A dropped response frame: the request completed server-side (slot
//! freed, work done) but the client never hears — its in-flight window
//! keeps the hole, which is exactly how a real client detects loss.
TEST(NetFaults, DroppedResponseLeavesRequestInFlight)
{
    REQUIRES_FAULTINJECT();
    Session s;
    fault::Plan plan;
    plan.fail("net.frame_drop", fault::Trigger::once(1));

    std::array<std::byte, 8> payload{};
    ASSERT_NE(s.client->trySubmit(s.tmpl, payload.data(), payload.size()), 0U);
    // The server must process and (not) send the response; detect via
    // the drop counter, then prove the client saw nothing.
    ASSERT_TRUE(s.pollFor([&] { return s.door.stats().framesDropped == 1; }));
    int got = 0;
    s.pollWith([&](Client::Response const&) { ++got; }, [] { return false; }, 100ms);
    EXPECT_EQ(got, 0) << "dropped frame must not arrive";
    EXPECT_EQ(s.client->inFlight(), 1U) << "the window hole is the loss signal";

    // The NEXT response comes through: the fault was one-shot, the
    // session survived it.
    ASSERT_NE(s.client->trySubmit(s.tmpl, payload.data(), payload.size()), 0U);
    ASSERT_TRUE(s.pollWith([&](Client::Response const&) { ++got; }, [&] { return got == 1; }));
    s.router.drain();
}

//! A duplicated response: same reqId delivered twice; correlation by
//! reqId makes the second copy detectable (and otherwise harmless).
TEST(NetFaults, DuplicatedResponseRedeliversSameReqId)
{
    REQUIRES_FAULTINJECT();
    Session s;
    fault::Plan plan;
    plan.fail("net.frame_duplicate", fault::Trigger::once(1));

    std::array<std::byte, 8> payload{};
    auto const reqId = s.client->trySubmit(s.tmpl, payload.data(), payload.size());
    ASSERT_NE(reqId, 0U);
    std::map<std::uint64_t, int> byId;
    int got = 0;
    ASSERT_TRUE(s.pollWith(
        [&](Client::Response const& r)
        {
            ++byId[r.reqId];
            ++got;
        },
        [&] { return got == 2; }));
    EXPECT_EQ(byId[reqId], 2) << "both copies carry the original reqId";
    EXPECT_EQ(s.door.stats().framesDuplicated, 1U);
    s.router.drain();
}

//! A truncated response frame (mid-frame cut + close): the client's
//! reassembly sees EOF inside a frame and reports the TYPED truncation
//! — never a hang, never a crash (satellite c meets satellite b).
TEST(NetFaults, TruncatedResponseYieldsTypedErrorAtClient)
{
    REQUIRES_FAULTINJECT();
    Session s;
    fault::Plan plan;
    plan.fail("net.frame_truncate", fault::Trigger::once(1));

    std::array<std::byte, 8> payload{};
    ASSERT_NE(s.client->trySubmit(s.tmpl, payload.data(), payload.size()), 0U);
    ASSERT_TRUE(s.pollFor([&] { return s.client->closed(); }));
    EXPECT_EQ(s.client->lastError(), net::DecodeError::Truncated);
    EXPECT_THROW(s.client->rethrowError(), net::TruncatedFrameError);
    EXPECT_EQ(s.door.stats().framesTruncated, 1U);
    s.router.drain();
}

//! A delayed poll tick defers progress, nothing else: the tick is
//! counted, the round-trip still completes on the following ticks.
TEST(NetFaults, DelayedPollOnlyDefersProgress)
{
    REQUIRES_FAULTINJECT();
    Session s;
    {
        fault::Plan plan;
        plan.fail("net.poll_delay", fault::Trigger::once(1));

        std::array<std::byte, 8> payload{};
        ASSERT_NE(s.client->trySubmit(s.tmpl, payload.data(), payload.size()), 0U);
        int got = 0;
        ASSERT_TRUE(s.pollWith([&](Client::Response const&) { ++got; }, [&] { return got == 1; }));
        EXPECT_EQ(s.door.stats().pollsDelayed, 1U);
    }
    s.router.drain();
}

//! The same seed derives the same chaos schedule (DESIGN.md §7.2): the
//! drop pattern over N frames is a pure function of (seed, site, hit).
TEST(NetFaults, ChaosScheduleIsSeedReproducible)
{
    REQUIRES_FAULTINJECT();
    auto const seed = fault::Plan::envSeed();
    auto const trigger = fault::Trigger::withProbability(0.25);
    for(std::uint64_t hit = 1; hit <= 64; ++hit)
        EXPECT_EQ(
            fault::Plan::decides(seed, "net.frame_drop", trigger, hit),
            fault::Plan::decides(seed, "net.frame_drop", trigger, hit))
            << "hit " << hit;

    // And a probabilistic drop storm is survivable: every response
    // either arrives or is accounted a drop — nothing wedges (the
    // wide window absorbs the holes dropped responses leave behind).
    SessionT<StormCfg> s;
    fault::Plan plan;
    plan.fail("net.frame_drop", trigger);
    std::array<std::byte, 8> payload{};
    int sent = 0;
    int got = 0;
    constexpr int total = 64;
    s.pollWith(
        [&](net::Client<StormCfg>::Response const&) { ++got; },
        [&]
        {
            while(sent < total && s.client->trySubmit(s.tmpl, payload.data(), payload.size()) != 0)
                ++sent;
            return got + static_cast<int>(s.door.stats().framesDropped) >= total && sent == total;
        },
        5000ms);
    EXPECT_EQ(sent, total);
    EXPECT_EQ(got + static_cast<int>(s.door.stats().framesDropped), total) << "every response accounted";
    EXPECT_GT(s.door.stats().framesDropped, 0U) << "the storm must have dropped something";
    s.router.drain();
}

//! A response that finds the tx staging full rolls no fault site: each
//! `net.frame_drop` hit belongs to a frame the door staged or dropped,
//! however many polls the staging stays full, so a seed's drop schedule
//! does not depend on how fast the peer reads. The door-to-client pipe
//! holds one 40-byte response frame and the staging four; the client
//! reads nothing while eight responses come back.
TEST(NetFaults, FullStagingSpendsNoFaultHits)
{
    REQUIRES_FAULTINJECT();
    Session s(48);
    auto const framesBefore = s.door.stats().framesOut;
    fault::Plan plan;
    plan.fail("net.frame_drop", fault::Trigger::once(1));
    std::array<std::byte, 8> payload{};
    for(std::size_t i = 0; i < TestCfg::window; ++i)
        ASSERT_NE(s.client->trySubmit(s.tmpl, payload.data(), payload.size()), 0U);
    s.client->poll([](Client::Response const&) {}); // sends them; no response exists yet

    // Only the door polls, until 20 polls after every request ran.
    auto const until = std::chrono::steady_clock::now() + 3s;
    for(int after = 0; after < 20 && std::chrono::steady_clock::now() < until;)
    {
        s.door.poll(std::chrono::steady_clock::now());
        std::this_thread::sleep_for(100us);
        if(s.router.stats()[0].completed == TestCfg::window)
            ++after;
    }
    auto const answered = [&] { return s.door.stats().responsesOk + s.door.stats().responsesError; };
    EXPECT_LT(answered(), TestCfg::window) << "the staging must have stayed full";
    ASSERT_TRUE(s.pollFor([&] { return answered() == TestCfg::window; }));
    auto const stats = s.door.stats();
    EXPECT_EQ(plan.hits("net.frame_drop"), stats.framesOut - framesBefore + stats.framesDropped);
    EXPECT_EQ(stats.framesDropped, 1U);
    s.router.drain();
}
