/// \file Session-layer semantics of the network front door (DESIGN.md
/// §9.2): Hello handshake, request/response round-trips with the
/// payload mutated in place (the zero-copy contract), delivery over
/// byte-fragmenting transports, window/slot flow control, deadline
/// propagation, typed rejections, the Bye drain handshake, protocol
/// hostility (garbage, oversized frames), a worker lost to the
/// supervisor mid-request, and the steady-state
/// allocation audit over the whole wire path.
#include <net/admin.hpp>
#include <net/client.hpp>
#include <net/front_door.hpp>
#include <net/router.hpp>
#include <net/transport.hpp>

#include <serve/service.hpp>

#include <alpaka/core/alloctrack.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <vector>

using namespace alpaka;
using namespace std::chrono_literals;

namespace
{
    //! Small sizing so table/slot exhaustion is reachable in-test.
    struct TestCfg
    {
        static constexpr std::size_t maxConnections = 4;
        static constexpr std::size_t slotsPerConnection = 8;
        static constexpr std::size_t maxPayload = 128;
        static constexpr std::size_t maxTenantBytes = 32;
        static constexpr std::size_t window = 8;
        static constexpr std::size_t txFrames = 4;
    };

    using Door = net::FrontDoor<TestCfg>;
    using Client = net::Client<TestCfg>;

    //! payload[i] += 1 in place — the response echoes the mutation, so
    //! the client can verify the kernel really saw ITS bytes (zero-copy
    //! evidence, not just plumbing).
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

    [[nodiscard]] auto smallRouter(std::size_t shards = 1) -> net::RouterOptions
    {
        net::RouterOptions opt;
        opt.shards = shards;
        opt.shard.cpuWorkers = 1;
        opt.shard.queueCapacity = 64;
        return opt;
    }

    //! Drives door and client until \p done or the wall-clock bound —
    //! every wait in this suite is bounded (no hangs on regression).
    template<typename Pred, typename OnResponse>
    auto pollUntil(Door& door, Client& client, OnResponse&& onResponse, Pred&& done, std::chrono::milliseconds budget = 5000ms)
        -> bool
    {
        auto const until = std::chrono::steady_clock::now() + budget;
        while(!done())
        {
            auto const tnow = std::chrono::steady_clock::now();
            if(tnow > until)
                return false;
            auto const progress = door.poll(tnow) | static_cast<int>(client.poll(onResponse));
            if(progress == 0)
                std::this_thread::sleep_for(100us);
        }
        return true;
    }

    //! One connected (door, client) pair over an in-process pipe, with
    //! the Hello handshake completed.
    struct Session
    {
        Door door;
        std::unique_ptr<Client> client;

        explicit Session(net::Router& router, std::string_view tenant = "tenant-a", std::size_t pipeBytes = 1 << 16)
            : door(router)
        {
            auto [serverEnd, clientEnd] = net::makePipePair(pipeBytes);
            EXPECT_TRUE(door.accept(std::move(serverEnd)));
            client = std::make_unique<Client>(std::move(clientEnd));
            client->hello(tenant);
            EXPECT_TRUE(pollUntil(door, *client, [](auto const&) {}, [&] { return client->ready(); }));
        }
    };
} // namespace

TEST(NetSession, HelloThenEchoRoundTrip)
{
    net::Router router(smallRouter());
    auto const tmpl = router.registerTemplate(incrementTemplate());
    Session s(router);

    std::array<std::byte, 8> payload{};
    for(std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::byte>(i);
    auto const reqId = s.client->trySubmit(tmpl, payload.data(), payload.size());
    ASSERT_NE(reqId, 0U);

    bool got = false;
    Client::Response seen;
    std::array<std::byte, 8> echoed{};
    ASSERT_TRUE(pollUntil(
        s.door,
        *s.client,
        [&](Client::Response const& r)
        {
            seen = r;
            std::memcpy(echoed.data(), r.payload, r.payloadLen);
            got = true;
        },
        [&] { return got; }));

    EXPECT_EQ(seen.reqId, reqId);
    EXPECT_EQ(seen.status, net::Status::Ok);
    EXPECT_EQ(seen.tmpl, tmpl);
    ASSERT_EQ(seen.payloadLen, payload.size());
    for(std::size_t i = 0; i < payload.size(); ++i)
        EXPECT_EQ(static_cast<unsigned>(echoed[i]), i + 1) << "payload byte " << i << " not mutated in place";
    EXPECT_EQ(s.door.stats().requestsSubmitted, 1U);
    EXPECT_EQ(s.door.stats().responsesOk, 1U);
    router.drain();
}

//! A 7-byte pipe fragments every frame across many partial sends and
//! recvs; the reassembly state machines must not care.
TEST(NetSession, SurvivesBytewiseFragmentation)
{
    net::Router router(smallRouter());
    auto const tmpl = router.registerTemplate(incrementTemplate());
    Session s(router, "tenant-a", 7);

    int got = 0;
    for(int round = 0; round < 20; ++round)
    {
        std::array<std::byte, 33> payload{};
        payload[round] = static_cast<std::byte>(round);
        std::uint64_t reqId = 0;
        ASSERT_TRUE(pollUntil(
            s.door,
            *s.client,
            [&](Client::Response const&) { ++got; },
            [&]
            {
                if(reqId == 0)
                    reqId = s.client->trySubmit(tmpl, payload.data(), payload.size());
                return got == round + 1;
            }));
    }
    EXPECT_EQ(got, 20);
    router.drain();
}

TEST(NetSession, ManyRequestsPipelineThroughTheWindow)
{
    net::Router router(smallRouter());
    auto const tmpl = router.registerTemplate(incrementTemplate());
    Session s(router);

    constexpr int total = 500;
    int sent = 0;
    int got = 0;
    std::array<std::byte, 16> payload{};
    ASSERT_TRUE(pollUntil(
        s.door,
        *s.client,
        [&](Client::Response const& r)
        {
            EXPECT_EQ(r.status, net::Status::Ok);
            ++got;
        },
        [&]
        {
            while(sent < total && s.client->trySubmit(tmpl, payload.data(), payload.size()) != 0)
                ++sent;
            return got == total;
        }));
    EXPECT_EQ(got, total);
    EXPECT_EQ(s.door.stats().responsesOk, static_cast<std::uint64_t>(total));
    router.drain();
    std::uint64_t completed = 0;
    for(auto const& shard : router.stats())
        completed += shard.completed;
    EXPECT_EQ(completed, static_cast<std::uint64_t>(total));
}

//! Client window: trySubmit refuses past Cfg::window in-flight; the
//! requests complete once the (blocked) worker resumes.
TEST(NetSession, WindowLimitsInFlight)
{
    net::Router router(smallRouter());
    std::atomic<bool> release{false};
    serve::TemplateDesc gate;
    gate.name = "gate";
    gate.body = [&release](serve::RequestItem const&)
    {
        while(!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(1ms);
    };
    auto const tmpl = router.registerTemplate(gate);
    Session s(router);

    std::array<std::byte, 4> payload{};
    std::size_t accepted = 0;
    // Pump until the window refuses: everything staged/in flight.
    auto const until = std::chrono::steady_clock::now() + 3s;
    while(std::chrono::steady_clock::now() < until)
    {
        if(s.client->trySubmit(tmpl, payload.data(), payload.size()) != 0)
        {
            ++accepted;
            continue;
        }
        if(s.client->inFlight() == TestCfg::window)
            break;
        s.door.poll(std::chrono::steady_clock::now());
        s.client->poll([](auto const&) {});
    }
    EXPECT_EQ(accepted, TestCfg::window);
    EXPECT_EQ(s.client->trySubmit(tmpl, payload.data(), payload.size()), 0U);

    release.store(true, std::memory_order_release);
    int got = 0;
    ASSERT_TRUE(pollUntil(s.door, *s.client, [&](auto const&) { ++got; }, [&] { return got == static_cast<int>(accepted); }));
    EXPECT_EQ(s.client->inFlight(), 0U);
    router.drain();
}

TEST(NetSession, DeadlinePropagatesAsExpiredStatus)
{
    net::Router router(smallRouter());
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    serve::TemplateDesc gate;
    gate.name = "gate";
    gate.body = [&started, &release](serve::RequestItem const&)
    {
        started.store(true, std::memory_order_release);
        while(!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(1ms);
    };
    auto const gateId = router.registerTemplate(gate);
    auto const incId = router.registerTemplate(incrementTemplate());
    Session s(router);

    std::array<std::byte, 4> payload{};
    // First request blocks the only worker; the second carries a 1ms
    // budget and is shed at dispatch time, after the gate releases.
    ASSERT_NE(s.client->trySubmit(gateId, payload.data(), payload.size()), 0U);
    auto const deadlined = s.client->trySubmit(incId, payload.data(), payload.size(), 1'000);
    ASSERT_NE(deadlined, 0U);

    std::vector<Client::Response> seen;
    // Poll until the gate request occupies the worker (both frames have
    // then landed and the 1ms budget is ticking), outlive the budget,
    // then release: the deadlined request is shed at dispatch.
    ASSERT_TRUE(pollUntil(s.door, *s.client, [&](Client::Response const& r) { seen.push_back(r); }, [&]
                          { return started.load(std::memory_order_acquire); }));
    std::this_thread::sleep_for(20ms);
    release.store(true, std::memory_order_release);
    ASSERT_TRUE(pollUntil(s.door, *s.client, [&](Client::Response const& r) { seen.push_back(r); }, [&]
                          { return seen.size() == 2; }));
    bool sawExpired = false;
    for(auto const& r : seen)
        if(r.reqId == deadlined)
        {
            EXPECT_EQ(r.status, net::Status::Expired);
            EXPECT_EQ(r.payloadLen, 0U);
            sawExpired = true;
        }
    EXPECT_TRUE(sawExpired);
    router.drain();
}

//! The supervisor path over the wire: a request whose kernel stalls past
//! stallTimeout is answered WorkerLost exactly once, through its slot's
//! completion. Later requests are served correctly (in the next free
//! slot while the zombie holds the first), and the zombie worker's late
//! finish — it loses the batch claim — sends nothing and resolves
//! nothing.
TEST(NetSession, StalledKernelAnswersWorkerLostOnceAndItsSlotServesOn)
{
    auto options = smallRouter();
    options.shard.stallTimeout = 50ms;
    net::Router router(options);
    std::atomic<bool> stallArmed{true};
    std::atomic<bool> zombieDone{false};
    serve::TemplateDesc desc = incrementTemplate();
    auto const increment = desc.body;
    desc.body = [&stallArmed, &zombieDone, increment](serve::RequestItem const& item)
    {
        if(!stallArmed.exchange(false))
        {
            increment(item);
            return;
        }
        std::this_thread::sleep_for(300ms);
        zombieDone.store(true, std::memory_order_release);
    };
    auto const tmpl = router.registerTemplate(desc);
    Session s(router);

    std::map<std::uint64_t, std::vector<Client::Response>> seen;
    std::map<std::uint64_t, std::vector<unsigned>> payloads;
    auto const record = [&](Client::Response const& r)
    {
        seen[r.reqId].push_back(r);
        for(std::size_t i = 0; i < r.payloadLen; ++i)
            payloads[r.reqId].push_back(static_cast<unsigned>(r.payload[i]));
    };
    std::array<std::byte, 4> bytes{std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4}};
    auto const roundTrip = [&]
    {
        auto const reqId = s.client->trySubmit(tmpl, bytes.data(), bytes.size());
        EXPECT_NE(reqId, 0U);
        EXPECT_TRUE(pollUntil(s.door, *s.client, record, [&] { return seen.count(reqId) != 0; }));
        return reqId;
    };

    auto const stalled = roundTrip();
    ASSERT_EQ(seen[stalled].size(), 1U);
    EXPECT_EQ(seen[stalled][0].status, net::Status::WorkerLost);
    EXPECT_FALSE(zombieDone.load(std::memory_order_acquire)) << "answered by the supervisor, not the zombie";

    auto const during = roundTrip(); // served by the replacement while the zombie naps
    ASSERT_TRUE(pollUntil(s.door, *s.client, record, [&] { return zombieDone.load(std::memory_order_acquire); }));
    auto const after = roundTrip();
    // Keep polling a while past the zombie's finish: nothing more arrives.
    EXPECT_FALSE(pollUntil(s.door, *s.client, record, [&] { return seen.size() > 3; }, 50ms));

    std::vector<unsigned> const incremented{2, 3, 4, 5};
    for(auto const reqId : {during, after})
    {
        ASSERT_EQ(seen[reqId].size(), 1U) << "reqId " << reqId;
        EXPECT_EQ(seen[reqId][0].status, net::Status::Ok) << "reqId " << reqId;
        EXPECT_EQ(payloads[reqId], incremented) << "reqId " << reqId;
    }
    EXPECT_EQ(seen.size(), 3U);
    EXPECT_EQ(s.door.stats().responsesError, 1U);
    EXPECT_EQ(s.door.stats().responsesOk, 2U);
    router.drain();
    auto const stats = router.stats();
    EXPECT_EQ(stats[0].workersLost, 1U);
    EXPECT_EQ(stats[0].completed, 3U);
    EXPECT_EQ(stats[0].failed, 1U);
}

//! A slot answered WorkerLost is not reused while the lost worker may
//! still write its payload (1 shard x 1 worker, stallTimeout 50 ms): the
//! zombie kernel writes 0xEE to payload byte 0 only once a second
//! request, sent at about 275 ms, after the WorkerLost answer, is running
//! on the replacement, whose kernel increments its bytes only after that
//! write. A shared slot would come back with the zombie's byte; the
//! second request must come back with its own bytes. Once the zombie let
//! go, the held slot is free again: the connection drains and reaps after
//! Bye.
TEST(NetSession, WorkerLostSlotStaysHeldUntilTheLostWorkerLetsGo)
{
    // Before the router: its destructor joins the zombie, which reads them.
    std::atomic<bool> stallArmed{true};
    std::atomic<bool> secondRunning{false};
    std::atomic<bool> zombieWrote{false};
    auto options = smallRouter();
    options.shard.stallTimeout = 50ms;
    net::Router router(options);
    serve::TemplateDesc desc = incrementTemplate();
    auto const increment = desc.body;
    auto const awaitFlag = [](std::atomic<bool> const& flag)
    {
        auto const until = std::chrono::steady_clock::now() + 5s;
        while(!flag.load(std::memory_order_acquire) && std::chrono::steady_clock::now() < until)
            std::this_thread::sleep_for(1ms);
    };
    desc.body = [&stallArmed, &secondRunning, &zombieWrote, increment, awaitFlag](serve::RequestItem const& item)
    {
        if(stallArmed.exchange(false))
        {
            awaitFlag(secondRunning);
            static_cast<unsigned char*>(item.payload)[0] = 0xEE;
            zombieWrote.store(true, std::memory_order_release);
            return;
        }
        secondRunning.store(true, std::memory_order_release);
        awaitFlag(zombieWrote);
        increment(item);
    };
    auto const tmpl = router.registerTemplate(desc);
    Session s(router);

    std::map<std::uint64_t, Client::Response> seen;
    std::map<std::uint64_t, std::vector<unsigned>> payloads;
    auto const record = [&](Client::Response const& r)
    {
        seen[r.reqId] = r;
        for(std::size_t i = 0; i < r.payloadLen; ++i)
            payloads[r.reqId].push_back(static_cast<unsigned>(r.payload[i]));
    };
    std::array<std::byte, 4> bytes{std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4}};
    auto const start = std::chrono::steady_clock::now();
    auto const lost = s.client->trySubmit(tmpl, bytes.data(), bytes.size());
    ASSERT_NE(lost, 0U);
    ASSERT_TRUE(pollUntil(s.door, *s.client, record, [&] { return seen.count(lost) != 0; }));
    EXPECT_EQ(seen[lost].status, net::Status::WorkerLost);
    pollUntil(s.door, *s.client, record, [&] { return std::chrono::steady_clock::now() >= start + 275ms; });

    auto const next = s.client->trySubmit(tmpl, bytes.data(), bytes.size());
    ASSERT_NE(next, 0U);
    ASSERT_TRUE(pollUntil(s.door, *s.client, record, [&] { return seen.count(next) != 0; }));
    EXPECT_EQ(seen[next].status, net::Status::Ok);
    EXPECT_EQ(payloads[next], (std::vector<unsigned>{2, 3, 4, 5})) << "the zombie wrote into this request's bytes";
    EXPECT_TRUE(zombieWrote.load(std::memory_order_acquire));

    s.client->bye();
    ASSERT_TRUE(pollUntil(s.door, *s.client, record, [&] { return s.client->closed(); }));
    auto const until = std::chrono::steady_clock::now() + 2s;
    while(s.door.openConnections() != 0 && std::chrono::steady_clock::now() < until)
        s.door.poll(std::chrono::steady_clock::now());
    EXPECT_EQ(s.door.openConnections(), 0U) << "the held slot never came back";
    router.drain();
}

//! One poll posts every Request frame it read to its connection's shard,
//! whose worker admits them (DESIGN.md §9.2), yet each frame keeps its own
//! outcome: frames of two tenants on different shards, one past its
//! tenant's bound, one naming an unknown template and one already expired,
//! all read by a single poll, each answered with its own status and
//! payload. The held shard's worker decides its frames' outcomes only once
//! the gate opens, so the door's admission counts are read after that.
TEST(NetSession, OnePollAdmitsEveryFrameWithItsOwnOutcome)
{
    auto options = smallRouter(2);
    options.shard.tenantCapacity = 2;
    net::Router router(options);
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    serve::TemplateDesc gate;
    gate.name = "gate";
    gate.body = [&started, &release](serve::RequestItem const&)
    {
        started.store(true, std::memory_order_release);
        while(!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(1ms);
    };
    auto const gateId = router.registerTemplate(gate);
    auto const incId = router.registerTemplate(incrementTemplate());
    std::string const held = "tenant-held";
    std::string open;
    for(int t = 0; open.empty(); ++t)
        if(auto name = "tenant-open-" + std::to_string(t); router.shardOf(name) != router.shardOf(held))
            open = name;

    Door door(router);
    std::array<std::unique_ptr<Client>, 2> clients;
    for(std::size_t i = 0; i < clients.size(); ++i)
    {
        auto [serverEnd, clientEnd] = net::makePipePair(1 << 16);
        ASSERT_TRUE(door.accept(std::move(serverEnd)));
        clients[i] = std::make_unique<Client>(std::move(clientEnd));
        clients[i]->hello(i == 0 ? held : open);
    }
    struct Seen
    {
        net::Status status = net::Status::Ok;
        std::vector<unsigned> payload;
    };
    // reqIds are per connection: one map per client.
    std::array<std::map<std::uint64_t, Seen>, 2> seen;
    auto const record = [&](std::size_t client)
    {
        return [&seen, client](Client::Response const& r)
        {
            auto& entry = seen[client][r.reqId];
            entry.status = r.status;
            for(std::size_t i = 0; i < r.payloadLen; ++i)
                entry.payload.push_back(static_cast<unsigned>(r.payload[i]));
        };
    };
    auto const pollUntilDone = [&](auto&& done)
    {
        auto const until = std::chrono::steady_clock::now() + 5s;
        while(!done() && std::chrono::steady_clock::now() < until)
        {
            door.poll(std::chrono::steady_clock::now());
            for(std::size_t i = 0; i < clients.size(); ++i)
                clients[i]->poll(record(i));
        }
        return done();
    };
    ASSERT_TRUE(pollUntilDone([&] { return clients[0]->ready() && clients[1]->ready(); }));

    // Hold the first tenant's shard worker: what the batched poll admits
    // for that tenant stays queued, against its bound of 2.
    std::array<std::byte, 4> bytes{std::byte{10}, std::byte{20}, std::byte{30}, std::byte{40}};
    auto const gateReq = clients[0]->trySubmit(gateId, bytes.data(), bytes.size());
    ASSERT_NE(gateReq, 0U);
    ASSERT_TRUE(pollUntilDone([&] { return started.load(std::memory_order_acquire); }));

    auto const send = [&](std::size_t client, std::uint32_t tmpl, std::uint32_t deadlineUs = 0)
    {
        auto const reqId = clients[client]->trySubmit(tmpl, bytes.data(), bytes.size(), deadlineUs);
        EXPECT_NE(reqId, 0U);
        clients[client]->poll(record(client)); // into the pipe; the door has not read it yet
        return reqId;
    };
    auto const heldOk1 = send(0, incId);
    auto const heldOk2 = send(0, incId);
    auto const heldBusy = send(0, incId);
    auto const openOk1 = send(1, incId);
    auto const openOk2 = send(1, incId);
    auto const unknown = send(1, 9999);
    auto const expired = send(1, incId, 1'000);

    // One poll reads and posts all seven frames. It is anchored a second
    // in the past, so the 1 ms budget is spent before admission.
    auto const before = door.stats();
    door.poll(std::chrono::steady_clock::now() - 1s);
    EXPECT_EQ(door.stats().framesIn - before.framesIn, 7U);

    release.store(true, std::memory_order_release);
    ASSERT_TRUE(pollUntilDone([&] { return seen[0].size() == 4 && seen[1].size() == 4; }));
    EXPECT_EQ(door.stats().requestsSubmitted - before.requestsSubmitted, 7U)
        << "every frame handed to its shard: 4 admitted, 1 resolved expired, 1 Busy, 1 BadRequest";
    EXPECT_EQ(door.stats().admissionRejected - before.admissionRejected, 1U);
    auto& heldSeen = seen[0];
    auto& openSeen = seen[1];
    std::vector<unsigned> const incremented{11, 21, 31, 41};
    EXPECT_EQ(heldSeen[gateReq].status, net::Status::Ok);
    for(auto const reqId : {heldOk1, heldOk2})
    {
        EXPECT_EQ(heldSeen[reqId].status, net::Status::Ok) << "reqId " << reqId;
        EXPECT_EQ(heldSeen[reqId].payload, incremented) << "reqId " << reqId;
    }
    for(auto const reqId : {openOk1, openOk2})
    {
        EXPECT_EQ(openSeen[reqId].status, net::Status::Ok) << "reqId " << reqId;
        EXPECT_EQ(openSeen[reqId].payload, incremented) << "reqId " << reqId;
    }
    EXPECT_EQ(heldSeen[heldBusy].status, net::Status::Busy);
    EXPECT_TRUE(heldSeen[heldBusy].payload.empty());
    EXPECT_EQ(openSeen[unknown].status, net::Status::BadRequest);
    EXPECT_EQ(openSeen[expired].status, net::Status::Expired);
    EXPECT_TRUE(openSeen[unknown].payload.empty());
    EXPECT_TRUE(openSeen[expired].payload.empty());
    router.drain();
    auto const stats = router.stats();
    EXPECT_EQ(stats[router.shardOf(held)].completed, 3U);
    EXPECT_EQ(stats[router.shardOf(open)].completed, 3U); // 2 served + 1 expired at admission
}

TEST(NetSession, ByeDrainsAndAcks)
{
    net::Router router(smallRouter());
    auto const tmpl = router.registerTemplate(incrementTemplate());
    Session s(router);

    std::array<std::byte, 4> payload{};
    for(int i = 0; i < 5; ++i)
        ASSERT_NE(s.client->trySubmit(tmpl, payload.data(), payload.size()), 0U);
    s.client->bye();
    EXPECT_EQ(s.client->trySubmit(tmpl, payload.data(), payload.size()), 0U) << "no submits after bye";

    int got = 0;
    ASSERT_TRUE(pollUntil(s.door, *s.client, [&](auto const&) { ++got; }, [&] { return s.client->closed(); }));
    EXPECT_EQ(got, 5) << "every in-flight response arrives before the Bye ack";
    EXPECT_EQ(s.client->lastError(), net::DecodeError::None);

    // The server side reaps the connection back to Vacant.
    auto const until = std::chrono::steady_clock::now() + 2s;
    while(s.door.openConnections() != 0 && std::chrono::steady_clock::now() < until)
        s.door.poll(std::chrono::steady_clock::now());
    EXPECT_EQ(s.door.openConnections(), 0U);
    EXPECT_EQ(s.door.stats().connectionsClosed, 1U);
    router.drain();
}

TEST(NetSession, GarbageBytesCloseTheConnectionTyped)
{
    net::Router router(smallRouter());
    router.registerTemplate(incrementTemplate());
    Door door(router);
    auto [serverEnd, rawClient] = net::makePipePair();
    ASSERT_TRUE(door.accept(std::move(serverEnd)));

    // 64 bytes of garbage instead of a Hello.
    std::array<std::byte, 64> junk{};
    for(std::size_t i = 0; i < junk.size(); ++i)
        junk[i] = static_cast<std::byte>(i * 7 + 3);
    ASSERT_EQ(rawClient->send(junk.data(), junk.size()), static_cast<std::ptrdiff_t>(junk.size()));

    auto const until = std::chrono::steady_clock::now() + 2s;
    while(door.openConnections() != 0 && std::chrono::steady_clock::now() < until)
        door.poll(std::chrono::steady_clock::now());
    EXPECT_EQ(door.openConnections(), 0U);

    std::uint64_t reported = 0;
    for(auto const count : door.stats().decodeErrors)
        reported += count;
    EXPECT_EQ(reported, 1U) << "exactly one decode error closes the stream";
    EXPECT_EQ(door.stats().requestsSubmitted, 0U);
}

//! A frame announcing more payload than the receiver's compile-time
//! slot is rejected from the header alone — no payload byte is read.
TEST(NetSession, OversizedFrameRejectedBeforePayload)
{
    net::Router router(smallRouter());
    router.registerTemplate(incrementTemplate());
    Door door(router);
    auto [serverEnd, rawClient] = net::makePipePair();
    ASSERT_TRUE(door.accept(std::move(serverEnd)));

    net::FrameHeader h;
    h.type = net::FrameType::Hello;
    h.payloadLen = TestCfg::maxPayload + 1;
    std::array<std::byte, net::headerSize> buf{};
    net::encodeHeader(h, buf.data(), nullptr, 0);
    ASSERT_EQ(rawClient->send(buf.data(), buf.size()), static_cast<std::ptrdiff_t>(buf.size()));

    auto const until = std::chrono::steady_clock::now() + 2s;
    while(door.openConnections() != 0 && std::chrono::steady_clock::now() < until)
        door.poll(std::chrono::steady_clock::now());
    EXPECT_EQ(
        door.stats().decodeErrors[static_cast<std::size_t>(net::DecodeError::Oversized)],
        1U);
}

TEST(NetSession, ConnectionTableIsBounded)
{
    net::Router router(smallRouter());
    Door door(router);
    std::vector<std::unique_ptr<net::Transport>> keep;
    for(std::size_t i = 0; i < TestCfg::maxConnections; ++i)
    {
        auto [serverEnd, clientEnd] = net::makePipePair();
        EXPECT_TRUE(door.accept(std::move(serverEnd)));
        keep.push_back(std::move(clientEnd));
    }
    auto [serverEnd, clientEnd] = net::makePipePair();
    EXPECT_FALSE(door.accept(std::move(serverEnd))) << "table full";
    EXPECT_EQ(door.openConnections(), TestCfg::maxConnections);
}

//! The acceptance gate: once warm, the whole wire path — client encode,
//! pipe, frame decode, admission, dispatch, completion continuation,
//! response encode, client decode — performs ZERO heap allocations.
//! (The slot is the request's serve::Completion: no future state at all.)
TEST(NetSession, SteadyStateWirePathAllocatesNothing)
{
    if(!core::allocTrackEnabled())
        GTEST_SKIP() << "built without ALPAKA_REPRO_ALLOCTRACK";

    net::Router router(smallRouter());
    auto const tmpl = router.registerTemplate(incrementTemplate());
    Session s(router);

    // An admin provider rides along: the plane is DELIBERATELY off the
    // audited surface (its handlers allocate), but its presence on the
    // door must not make the tenant path allocate. Minimal in-test
    // provider — net's own interface, no obs dependency.
    struct StubProvider : net::AdminProvider
    {
        auto handleAdmin(net::FrameType, std::uint32_t, std::string& body) -> net::Status override
        {
            body = "fleet healthy\n";
            return net::Status::Ok;
        }
    } provider;
    s.door.setAdminProvider(&provider);
    // One full admin exchange before the audit, so every admin-side
    // lazy path (stream state, chunk staging) is exercised and warm.
    {
        auto const adminId = s.client->tryAdmin(net::FrameType::HealthCheck);
        ASSERT_NE(adminId, 0U);
        bool final = false;
        ASSERT_TRUE(pollUntil(
            s.door,
            *s.client,
            [&](Client::Response const& r)
            { final = final || (r.reqId == adminId && r.status != net::Status::Partial); },
            [&] { return final; }));
    }

    std::array<std::byte, 32> payload{};
    auto roundTrips = [&](int count)
    {
        int got = 0;
        int sent = 0;
        ASSERT_TRUE(pollUntil(
            s.door,
            *s.client,
            [&](auto const&) { ++got; },
            [&]
            {
                while(sent < count && s.client->trySubmit(tmpl, payload.data(), payload.size()) != 0)
                    ++sent;
                return got == count;
            }));
    };

    // Warm every cache on the path (tenant record, batch caches, mempool
    // bins, ring laps).
    roundTrips(2'000);
    router.drain();

    auto const before = core::allocCount();
    roundTrips(2'000);
    auto const after = core::allocCount();
    EXPECT_EQ(after, before) << "wire path allocated in steady state";
    router.drain();
}
