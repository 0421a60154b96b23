/// \file The in-band admin plane over the wire (DESIGN.md §11.1):
/// admin frame validation (typed BadAdmin decode errors), chunked
/// AdminData streaming (Partial → final status, payloads concatenating
/// to the full text), admin sessions riding alongside tenant traffic on
/// one connection, the provider-less BadRequest path, the TraceControl
/// lifecycle against the live recorder, and the loopback-socket
/// transport speaking the same frames as the pipe.
#include <net/admin.hpp>
#include <net/client.hpp>
#include <net/front_door.hpp>
#include <net/router.hpp>
#include <net/socket.hpp>
#include <net/transport.hpp>
#include <net/wire.hpp>

#include <obs/admin.hpp>

#include <serve/service.hpp>

#include <alpaka/core/trace.hpp>

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

using namespace alpaka;
using namespace std::chrono_literals;

namespace
{
    //! Small payload cap so every admin response exercises chunking.
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

    [[nodiscard]] auto smallRouter(std::size_t shards = 2) -> net::RouterOptions
    {
        net::RouterOptions opt;
        opt.shards = shards;
        opt.shard.cpuWorkers = 1;
        opt.shard.queueCapacity = 64;
        return opt;
    }

    template<typename Pred, typename OnResponse>
    auto pollUntil(
        Door& door,
        Client& client,
        OnResponse&& onResponse,
        Pred&& done,
        std::chrono::milliseconds budget = 5000ms) -> bool
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

    struct Session
    {
        Door door;
        std::unique_ptr<Client> client;

        explicit Session(net::Router& router, net::AdminProvider* provider = nullptr, std::string_view tenant = "tenant-a")
            : door(router)
        {
            door.setAdminProvider(provider);
            auto [serverEnd, clientEnd] = net::makePipePair(1 << 16);
            EXPECT_TRUE(door.accept(std::move(serverEnd)));
            client = std::make_unique<Client>(std::move(clientEnd));
            client->hello(tenant);
            EXPECT_TRUE(pollUntil(door, *client, [](auto const&) {}, [&] { return client->ready(); }));
        }
    };

    //! One admin round-trip, chunk stream reassembled.
    struct AdminResult
    {
        std::string body;
        net::Status final = net::Status::Ok;
        std::size_t chunks = 0;
        bool done = false;
    };

    auto runAdmin(Door& door, Client& client, net::FrameType type, std::uint32_t op = 0) -> AdminResult
    {
        AdminResult res;
        std::uint64_t reqId = 0;
        auto const onResponse = [&](Client::Response const& r)
        {
            if(r.reqId != reqId)
                return;
            res.body.append(reinterpret_cast<char const*>(r.payload), r.payloadLen);
            ++res.chunks;
            if(r.status != net::Status::Partial)
            {
                res.final = r.status;
                res.done = true;
            }
        };
        EXPECT_TRUE(pollUntil(
            door,
            client,
            onResponse,
            [&]
            {
                if(reqId == 0)
                    reqId = client.tryAdmin(type, op);
                return res.done;
            }));
        return res;
    }
} // namespace

TEST(NetAdmin, ValidateAdminTypesTheMisuse)
{
    net::FrameHeader h;
    h.type = net::FrameType::MetricsScrape;
    h.payloadLen = 0;
    EXPECT_EQ(net::validateAdmin(h), net::DecodeError::None);
    h.payloadLen = 4; // a scrape is a question, not a data push
    EXPECT_EQ(net::validateAdmin(h), net::DecodeError::BadAdmin);
    h.type = net::FrameType::TraceControl;
    h.payloadLen = 0;
    h.tmpl = static_cast<std::uint32_t>(net::TraceOp::Capture);
    EXPECT_EQ(net::validateAdmin(h), net::DecodeError::None);
    h.tmpl = 3; // unknown op
    EXPECT_EQ(net::validateAdmin(h), net::DecodeError::BadAdmin);
    h.type = net::FrameType::Request; // non-admin frames pass untouched
    EXPECT_EQ(net::validateAdmin(h), net::DecodeError::None);

    EXPECT_THROW(net::raise(net::DecodeError::BadAdmin), net::BadAdminError);
}

TEST(NetAdmin, AdminFrameTypesDecodeAndUnknownStaysBadType)
{
    for(auto const type :
        {net::FrameType::MetricsScrape,
         net::FrameType::HealthCheck,
         net::FrameType::StatsSnapshot,
         net::FrameType::TraceControl,
         net::FrameType::AdminData})
    {
        net::FrameHeader h;
        h.type = type;
        std::array<std::byte, net::headerSize> bytes{};
        net::encodeHeader(h, bytes.data());
        net::FrameHeader out;
        EXPECT_EQ(net::decodeHeader(bytes.data(), bytes.size(), 128, out), net::DecodeError::None);
        EXPECT_EQ(out.type, type);
    }
    // One past AdminData is still outside the taxonomy.
    net::FrameHeader h;
    std::array<std::byte, net::headerSize> bytes{};
    net::encodeHeader(h, bytes.data());
    bytes[3] = static_cast<std::byte>(static_cast<std::uint8_t>(net::FrameType::AdminData) + 1);
    net::FrameHeader out;
    EXPECT_EQ(net::decodeHeader(bytes.data(), bytes.size(), 128, out), net::DecodeError::BadType);
}

TEST(NetAdmin, MetricsScrapeStreamsChunkedExposition)
{
    net::Router router(smallRouter(2));
    auto const tmpl = router.registerTemplate(incrementTemplate());
    obs::AdminPlane plane(router);
    Session s(router, &plane);

    // Real tenant traffic first, so the scrape has something to say.
    std::size_t completed = 0;
    for(int i = 0; i < 8; ++i)
    {
        std::array<std::byte, 8> payload{};
        std::uint64_t id = 0;
        ASSERT_TRUE(pollUntil(
            s.door,
            *s.client,
            [&](Client::Response const&) { ++completed; },
            [&]
            {
                if(id == 0)
                    id = s.client->trySubmit(tmpl, payload.data(), payload.size());
                return id != 0;
            }));
    }
    ASSERT_TRUE(pollUntil(s.door, *s.client, [&](Client::Response const&) { ++completed; }, [&]
                          { return completed == 8; }));

    auto const res = runAdmin(s.door, *s.client, net::FrameType::MetricsScrape);
    EXPECT_EQ(res.final, net::Status::Ok);
    // The exposition dwarfs the 128-byte payload cap: the stream must
    // have chunked, and the chunks must concatenate to the full text.
    EXPECT_GT(res.chunks, 1U);
    EXPECT_NE(res.body.find("# TYPE serve_admitted_total counter\n"), std::string::npos);
    EXPECT_NE(res.body.find("serve_admitted_total{shard=\"0\"}"), std::string::npos);
    EXPECT_NE(res.body.find("serve_admitted_total{shard=\"1\"}"), std::string::npos);
    EXPECT_NE(res.body.find("router_shards 2\n"), std::string::npos);
    // The fleet really admitted the tenant work it scraped.
    std::uint64_t admitted = 0;
    for(auto const& shard : router.stats())
        admitted += shard.admitted;
    EXPECT_EQ(admitted, 8U);
}

TEST(NetAdmin, HealthCheckAndStatsSnapshotRoundTrip)
{
    net::Router router(smallRouter(2));
    router.registerTemplate(incrementTemplate());
    obs::AdminPlane plane(router);
    Session s(router, &plane);

    auto const health = runAdmin(s.door, *s.client, net::FrameType::HealthCheck);
    EXPECT_EQ(health.final, net::Status::Ok);
    EXPECT_EQ(health.body.rfind("fleet ", 0), 0U) << health.body;
    EXPECT_NE(health.body.find("shard/0 "), std::string::npos);
    EXPECT_NE(health.body.find("shard/1 "), std::string::npos);
    EXPECT_NE(health.body.find("workers "), std::string::npos);

    auto const stats = runAdmin(s.door, *s.client, net::FrameType::StatsSnapshot);
    EXPECT_EQ(stats.final, net::Status::Ok);
    EXPECT_NE(stats.body.find("snapshot 1\n"), std::string::npos);
    EXPECT_NE(stats.body.find("shards 2\n"), std::string::npos);
    EXPECT_NE(stats.body.find("req_per_s "), std::string::npos);
    EXPECT_NE(stats.body.find("sheds_per_s "), std::string::npos);
    EXPECT_NE(stats.body.find("drops_per_s "), std::string::npos);

    auto const again = runAdmin(s.door, *s.client, net::FrameType::StatsSnapshot);
    EXPECT_NE(again.body.find("snapshot 2\n"), std::string::npos);
}

TEST(NetAdmin, TraceControlLifecycle)
{
    net::Router router(smallRouter(1));
    router.registerTemplate(incrementTemplate());
    obs::AdminPlane plane(router);
    Session s(router, &plane);

    auto const enable
        = runAdmin(s.door, *s.client, net::FrameType::TraceControl, static_cast<std::uint32_t>(net::TraceOp::Enable));
    EXPECT_EQ(enable.final, net::Status::Ok);
    EXPECT_NE(enable.body.find("trace_enabled 1\n"), std::string::npos);
    EXPECT_TRUE(trace::enabled());

    auto const capture
        = runAdmin(s.door, *s.client, net::FrameType::TraceControl, static_cast<std::uint32_t>(net::TraceOp::Capture));
    EXPECT_EQ(capture.final, net::Status::Ok);
    ASSERT_FALSE(capture.body.empty());
    EXPECT_EQ(capture.body.front(), '{') << "capture must reply with the Chrome/Perfetto JSON document";

    auto const disable
        = runAdmin(s.door, *s.client, net::FrameType::TraceControl, static_cast<std::uint32_t>(net::TraceOp::Disable));
    EXPECT_EQ(disable.final, net::Status::Ok);
    EXPECT_NE(disable.body.find("trace_enabled 0\n"), std::string::npos);
    EXPECT_FALSE(trace::enabled());
}

TEST(NetAdmin, AdminAlongsideTenantTrafficOnOneConnection)
{
    net::Router router(smallRouter(2));
    auto const tmpl = router.registerTemplate(incrementTemplate());
    obs::AdminPlane plane(router);
    Session s(router, &plane);

    // Interleave: stage a request, an admin scrape, another request —
    // all on one connection, all completing.
    std::array<std::byte, 4> p1{};
    std::array<std::byte, 4> p2{};
    std::size_t responses = 0;
    std::string adminBody;
    bool adminDone = false;
    std::uint64_t r1 = 0;
    std::uint64_t ra = 0;
    std::uint64_t r2 = 0;
    ASSERT_TRUE(pollUntil(
        s.door,
        *s.client,
        [&](Client::Response const& r)
        {
            if(r.reqId == ra)
            {
                adminBody.append(reinterpret_cast<char const*>(r.payload), r.payloadLen);
                if(r.status != net::Status::Partial)
                    adminDone = true;
                return;
            }
            EXPECT_EQ(r.status, net::Status::Ok);
            ++responses;
        },
        [&]
        {
            if(r1 == 0)
                r1 = s.client->trySubmit(tmpl, p1.data(), p1.size());
            if(r1 != 0 && ra == 0)
                ra = s.client->tryAdmin(net::FrameType::MetricsScrape);
            if(ra != 0 && r2 == 0)
                r2 = s.client->trySubmit(tmpl, p2.data(), p2.size());
            return responses == 2 && adminDone;
        }));
    EXPECT_NE(adminBody.find("serve_admitted_total"), std::string::npos);
    EXPECT_GE(s.door.stats().adminRequests, 1U);
    EXPECT_GT(s.door.stats().adminChunks, 1U);
}

TEST(NetAdmin, NoProviderAnswersBadRequest)
{
    net::Router router(smallRouter(1));
    Session s(router, nullptr);

    auto const res = runAdmin(s.door, *s.client, net::FrameType::MetricsScrape);
    EXPECT_EQ(res.final, net::Status::BadRequest);
    EXPECT_TRUE(res.body.empty());
    // The connection survived: admin refusal is a response, not a close.
    EXPECT_TRUE(s.client->ready());
}

TEST(NetAdmin, TryAdminRejectsNonAdminTypes)
{
    net::Router router(smallRouter(1));
    Session s(router, nullptr);
    EXPECT_THROW((void) s.client->tryAdmin(net::FrameType::Request), UsageError);
    EXPECT_THROW((void) s.client->tryAdmin(net::FrameType::Bye), UsageError);
}

TEST(NetAdmin, MalformedAdminFrameCountsBadAdminAndCloses)
{
    net::Router router(smallRouter(1));
    Door door(router);
    obs::AdminPlane plane(router);
    door.setAdminProvider(&plane);
    auto [serverEnd, clientEnd] = net::makePipePair(1 << 16);
    ASSERT_TRUE(door.accept(std::move(serverEnd)));
    auto raw = std::move(clientEnd);

    // Hello by hand, then a MetricsScrape smuggling a payload.
    auto const sendFrame = [&](net::FrameHeader h, std::byte const* payload)
    {
        std::array<std::byte, net::headerSize + 64> buf{};
        net::encodeHeader(h, buf.data(), payload, h.payloadLen);
        if(h.payloadLen != 0)
            std::memcpy(buf.data() + net::headerSize, payload, h.payloadLen);
        auto const len = net::headerSize + h.payloadLen;
        ASSERT_EQ(raw->send(buf.data(), len), static_cast<std::ptrdiff_t>(len));
    };

    net::FrameHeader hello;
    hello.type = net::FrameType::Hello;
    hello.payloadLen = 1;
    std::byte const tenant[1] = {std::byte{'t'}};
    sendFrame(hello, tenant);

    net::FrameHeader bad;
    bad.type = net::FrameType::MetricsScrape;
    bad.payloadLen = 4;
    std::byte const junk[4] = {};
    sendFrame(bad, junk);

    auto const until = std::chrono::steady_clock::now() + 5s;
    while(door.openConnections() != 0 && std::chrono::steady_clock::now() < until)
        door.poll(std::chrono::steady_clock::now());
    EXPECT_EQ(door.openConnections(), 0U);
    EXPECT_EQ(door.stats().decodeErrors[static_cast<std::size_t>(net::DecodeError::BadAdmin)], 1U);
}

//! The declarative SLO plumbing (DESIGN.md §11.2): a shard's declared
//! queue-wait budget flows ServiceOptions → ServiceStats → the plane's
//! health thresholds — unless the caller overrode the default.
TEST(NetAdmin, PlaneAdoptsShardQueueWaitBudget)
{
    auto opt = smallRouter(2);
    opt.shard.queueWaitBudget = std::chrono::microseconds(250'000);
    net::Router router(opt);
    obs::AdminPlane plane(router);
    EXPECT_EQ(plane.thresholds().queueWaitBudgetUs, 250'000U);

    // An explicit caller threshold wins over the shard's declaration.
    net::Router other(opt);
    obs::AdminPlane::Options options;
    options.thresholds.queueWaitBudgetUs = 7'000'000;
    obs::AdminPlane overridden(other, options);
    EXPECT_EQ(overridden.thresholds().queueWaitBudgetUs, 7'000'000U);

    // No declaration anywhere: the default stands.
    net::Router plain(smallRouter(1));
    obs::AdminPlane fallback(plain);
    EXPECT_EQ(fallback.thresholds().queueWaitBudgetUs, obs::HealthThresholds{}.queueWaitBudgetUs);
}

TEST(NetAdmin, ScrapeOverLoopbackSocket)
{
    net::Router router(smallRouter(2));
    router.registerTemplate(incrementTemplate());
    obs::AdminPlane plane(router);
    Door door(router);
    door.setAdminProvider(&plane);

    net::SocketListener listener;
    auto clientSide = net::connectLoopback(listener.port());
    ASSERT_NE(clientSide, nullptr);
    auto serverSide = listener.accept();
    ASSERT_NE(serverSide, nullptr);
    ASSERT_TRUE(door.accept(std::move(serverSide)));

    Client client(std::move(clientSide));
    client.hello("tenant-sock");
    ASSERT_TRUE(pollUntil(door, client, [](auto const&) {}, [&] { return client.ready(); }));

    auto const res = runAdmin(door, client, net::FrameType::HealthCheck);
    EXPECT_EQ(res.final, net::Status::Ok);
    EXPECT_EQ(res.body.rfind("fleet ", 0), 0U);
}
