/// \file Million-request load generator for the network front door
/// (DESIGN.md §9): a tenant-affine shard Router behind a FrontDoor,
/// hammered by concurrent client connections over the in-process pipe
/// transport (or, with --socket, a real non-blocking loopback TCP
/// socket). Every response is verified against the template's function,
/// end-to-end latency is recorded client-side into the same log2-
/// bucketed histogram the service uses, and the run ends with p50/p99/
/// max and the router's shard-merged view of the same traffic.
///
///   load_generator [requests] [clients] [shards] [--socket]
///                  [--trace[=trace.json]] [--admin]
///
/// Defaults drive 1'048'576 requests from 4 clients across 2 shards.
/// With --trace (an ALPAKA_REPRO_TRACE=ON build), a collector thread
/// drains the span rings throughout the run, the capture lands as a
/// Perfetto-loadable Chrome trace, and the run's unified metrics
/// registry is printed in text exposition (DESIGN.md §10).
///
/// With --admin, an obs::AdminPlane answers the in-band admin frame
/// family (DESIGN.md §11) and a dedicated ops client interrogates the
/// live fleet MID-RUN — trace enable, metrics scrape, health check,
/// rolling-rate snapshot, live Perfetto capture — once over the
/// in-process pipe and once over a real loopback TCP socket, on the
/// same door that is serving the tenant load. Any failed verification
/// makes the run exit nonzero.
#include <net/client.hpp>
#include <net/front_door.hpp>
#include <net/router.hpp>
#include <net/socket.hpp>
#include <net/transport.hpp>

#include <obs/admin.hpp>
#include <obs/collector.hpp>
#include <obs/registry.hpp>
#include <obs/trace_json.hpp>

#include <serve/latency.hpp>
#include <serve/service.hpp>

#include <threadpool/thread_pool.hpp>

#include <alpaka/core/trace.hpp>

#include <atomic>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace alpaka;
using Clock = std::chrono::steady_clock;

namespace
{
    //! Wider than the hermetic test config: a load generator wants deep
    //! pipelines, not tiny reassembly tables.
    struct LoadCfg
    {
        static constexpr std::size_t maxConnections = 16;
        static constexpr std::size_t slotsPerConnection = 64;
        static constexpr std::size_t maxPayload = 64;
        static constexpr std::size_t maxTenantBytes = 48;
        static constexpr std::size_t window = 64;
        static constexpr std::size_t txFrames = 8;
    };

    struct Payload
    {
        double in = 0.0;
        double out = 0.0;
    };

    struct ClientResult
    {
        serve::LatencyHistogram latency; //!< end-to-end, client-side clocked
        std::uint64_t verified = 0;
        std::uint64_t mismatched = 0;
    };

    //! One client connection: pipelines its share of the load through a
    //! window of in-flight requests, stamping each submit and clocking
    //! the matching response.
    void runClient(
        std::unique_ptr<net::Transport> transport,
        std::string const& tenant,
        serve::TemplateId tmpl,
        std::size_t requests,
        ClientResult& result)
    {
        net::Client<LoadCfg> client(std::move(transport));
        client.hello(tenant);
        while(!client.ready() && !client.closed())
            client.poll([](net::Client<LoadCfg>::Response const&) {});
        std::unordered_map<std::uint64_t, Clock::time_point> inFlight;
        inFlight.reserve(LoadCfg::window);

        Payload payload;
        std::size_t sent = 0;
        std::size_t done = 0;
        while(done < requests && !client.closed())
        {
            while(sent < requests)
            {
                payload.in = static_cast<double>(sent);
                auto const id = client.trySubmit(tmpl, reinterpret_cast<std::byte const*>(&payload), sizeof(Payload));
                if(id == 0)
                    break; // window or staging full: go service the wire
                inFlight.emplace(id, Clock::now());
                ++sent;
            }
            bool const progress = client.poll(
                [&](net::Client<LoadCfg>::Response const& r)
                {
                    ++done;
                    auto const it = inFlight.find(r.reqId);
                    if(it != inFlight.end())
                    {
                        result.latency.record(static_cast<std::uint64_t>(
                            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - it->second)
                                .count()));
                        inFlight.erase(it);
                    }
                    Payload echoed;
                    if(r.status == net::Status::Ok && r.payloadLen == sizeof(Payload))
                    {
                        std::memcpy(&echoed, r.payload, sizeof(Payload));
                        if(echoed.out == echoed.in * 2.0 + 1.0)
                            ++result.verified;
                        else
                            ++result.mismatched;
                    }
                    else
                        ++result.mismatched;
                });
            if(!progress)
                std::this_thread::yield();
        }
        client.bye();
        // Flush the Bye and wait (briefly) for the door's draining ack —
        // the graceful path; a vanished peer would also be handled.
        auto const until = Clock::now() + std::chrono::milliseconds{200};
        while(!client.closed() && Clock::now() < until)
            if(!client.poll([](net::Client<LoadCfg>::Response const&) {}))
                std::this_thread::yield();
    }

    //! One in-band admin session over \p transport, run MID-LOAD on the
    //! same door that is serving the tenants: trace enable, metrics
    //! scrape, health check, rolling-rate snapshot, live Perfetto
    //! capture. Each chunked AdminData stream is reassembled by request
    //! id until its final (non-Partial) status, then verified. Returns
    //! the number of failed checks.
    auto runAdminOps(std::unique_ptr<net::Transport> transport, char const* label) -> int
    {
        int failures = 0;
        auto const fail = [&](char const* what)
        {
            std::cerr << "admin(" << label << "): FAILED " << what << '\n';
            ++failures;
        };

        net::Client<LoadCfg> client(std::move(transport));
        client.hello("admin-ops");
        auto const ready = Clock::now() + std::chrono::seconds{10};
        while(!client.ready() && !client.closed() && Clock::now() < ready)
            if(!client.poll([](net::Client<LoadCfg>::Response const&) {}))
                std::this_thread::yield();
        if(!client.ready())
        {
            fail("handshake");
            return failures;
        }

        std::string body;
        // One round trip: submit (retrying while the window is busy),
        // then concatenate the chunk stream until the final status.
        auto const roundTrip = [&](net::FrameType type, std::uint32_t op) -> net::Status
        {
            body.clear();
            auto const until = Clock::now() + std::chrono::seconds{10};
            std::uint64_t id = 0;
            while((id = client.tryAdmin(type, op)) == 0 && !client.closed() && Clock::now() < until)
                if(!client.poll([](net::Client<LoadCfg>::Response const&) {}))
                    std::this_thread::yield();
            auto status = net::Status::BadRequest;
            bool done = id == 0;
            while(!done && !client.closed() && Clock::now() < until)
                if(!client.poll(
                       [&](net::Client<LoadCfg>::Response const& r)
                       {
                           if(r.reqId != id)
                               return;
                           body.append(reinterpret_cast<char const*>(r.payload), r.payloadLen);
                           if(r.status != net::Status::Partial)
                           {
                               status = r.status;
                               done = true;
                           }
                       }))
                    std::this_thread::yield();
            return done ? status : net::Status::BadRequest;
        };
        auto const traceOp = [](net::TraceOp op) { return static_cast<std::uint32_t>(op); };

        if(roundTrip(net::FrameType::TraceControl, traceOp(net::TraceOp::Enable)) != net::Status::Ok
           || body.find("trace_enabled 1\n") == std::string::npos)
            fail("TraceControl enable");
        if(roundTrip(net::FrameType::MetricsScrape, 0) != net::Status::Ok
           || body.find("serve_admitted_total") == std::string::npos)
            fail("MetricsScrape exposition");
        if(roundTrip(net::FrameType::HealthCheck, 0) != net::Status::Ok || body.rfind("fleet ", 0) != 0)
            fail("HealthCheck report");
        if(roundTrip(net::FrameType::StatsSnapshot, 0) != net::Status::Ok)
            fail("StatsSnapshot arm");
        if(roundTrip(net::FrameType::StatsSnapshot, 0) != net::Status::Ok
           || body.find("req_per_s ") == std::string::npos)
            fail("StatsSnapshot rates");
        if(roundTrip(net::FrameType::TraceControl, traceOp(net::TraceOp::Capture)) != net::Status::Ok || body.empty()
           || body.front() != '{')
            fail("TraceControl live capture");

        client.bye();
        auto const until = Clock::now() + std::chrono::milliseconds{200};
        while(!client.closed() && Clock::now() < until)
            if(!client.poll([](net::Client<LoadCfg>::Response const&) {}))
                std::this_thread::yield();
        return failures;
    }
} // namespace

auto main(int argc, char** argv) -> int
{
    std::size_t totalRequests = 1'048'576;
    std::size_t clients = 4;
    std::size_t shards = 2;
    bool useSocket = false;
    bool traceRun = false;
    bool adminRun = false;
    std::string tracePath = "trace.json";
    std::size_t positional = 0;
    for(int a = 1; a < argc; ++a)
    {
        std::string const arg = argv[a];
        if(arg == "--socket")
            useSocket = true;
        else if(arg == "--admin")
            adminRun = true;
        else if(arg == "--trace")
            traceRun = true;
        else if(arg.starts_with("--trace="))
        {
            traceRun = true;
            tracePath = arg.substr(8);
        }
        else if(positional == 0)
            totalRequests = std::stoull(arg), ++positional;
        else if(positional == 1)
            clients = std::stoull(arg), ++positional;
        else
            shards = std::stoull(arg), ++positional;
    }
    // The admin mode takes two connection-table slots of its own (one
    // pipe session, one loopback-socket session).
    std::size_t const adminConns = adminRun ? 2 : 0;
    if(clients == 0 || clients + adminConns > LoadCfg::maxConnections || shards == 0)
    {
        std::cerr << "usage: load_generator [requests] [clients <= " << (LoadCfg::maxConnections - adminConns)
                  << "] [shards] [--socket] [--trace[=trace.json]] [--admin]\n";
        return 1;
    }
    if(traceRun && !trace::compiledIn())
        std::cout << "note: --trace on an ALPAKA_REPRO_TRACE=OFF build — no recording sites compiled in, "
                     "the capture will hold metrics only\n";

    net::RouterOptions routerOptions;
    routerOptions.shards = shards;
    routerOptions.shard.cpuWorkers = 2;
    routerOptions.shard.queueCapacity = 4096;
    net::Router router(routerOptions);
    serve::TemplateDesc tmpl;
    tmpl.name = "scale";
    tmpl.maxBatch = 64;
    tmpl.body = [](serve::RequestItem const& item)
    {
        auto* const p = static_cast<Payload*>(item.payload);
        p->out = p->in * 2.0 + 1.0;
    };
    auto const tmplId = router.registerTemplate(std::move(tmpl));
    net::FrontDoor<LoadCfg> door(router);

    // The ops plane: the door keeps speaking the tenant hot path
    // untouched; admin frames route through the plane's handlers.
    std::unique_ptr<obs::AdminPlane> plane;
    if(adminRun)
    {
        plane = std::make_unique<obs::AdminPlane>(router);
        door.setAdminProvider(plane.get());
    }

    std::cout << "load_generator: " << totalRequests << " requests, " << clients << " clients, " << shards
              << " shards, " << (useSocket ? "loopback socket" : "in-process pipe") << " transport"
              << (adminRun ? ", mid-run admin ops over pipe+socket" : "") << '\n';

    // Client-side transport ends; the server ends go to the door (pipe)
    // or arrive via the listener's non-blocking accept (socket). The
    // admin mode always needs the listener: its second session runs
    // over loopback TCP even when the tenants ride pipes.
    std::vector<std::unique_ptr<net::Transport>> clientEnds(clients);
    std::unique_ptr<net::SocketListener> listener;
    if(useSocket || adminRun)
        listener = std::make_unique<net::SocketListener>(0);
    if(useSocket)
    {
        for(auto& end : clientEnds)
            end = net::connectLoopback(listener->port());
    }
    else
    {
        for(auto& end : clientEnds)
        {
            auto [serverEnd, clientEnd] = net::makePipePair(1 << 18);
            if(!door.accept(std::move(serverEnd)))
            {
                std::cerr << "error: connection table full\n";
                return 1;
            }
            end = std::move(clientEnd);
        }
    }
    std::unique_ptr<net::Transport> adminPipeEnd;
    std::unique_ptr<net::Transport> adminSocketEnd;
    if(adminRun)
    {
        auto [serverEnd, clientEnd] = net::makePipePair(1 << 18);
        if(!door.accept(std::move(serverEnd)))
        {
            std::cerr << "error: connection table full\n";
            return 1;
        }
        adminPipeEnd = std::move(clientEnd);
        adminSocketEnd = net::connectLoopback(listener->port());
    }

    // The trace collector: polls the span rings fast enough that an
    // 8192-event ring never laps (drop-free capture under full load),
    // bounded so an unattended capture cannot eat the machine.
    obs::Collector collector(std::size_t{1} << 22);
    std::atomic<bool> traceStop{false};
    std::thread traceThread;
    if(traceRun)
    {
        traceThread = std::thread(
            [&]
            {
                while(!traceStop.load(std::memory_order_acquire))
                {
                    collector.poll();
                    std::this_thread::sleep_for(std::chrono::milliseconds{2});
                }
                collector.poll(); // final sweep after the last producer stopped
            });
    }

    // The server: one thread polling the door (and the listener when
    // sockets are in play) until every client said Bye.
    std::atomic<bool> stop{false};
    std::thread server(
        [&]
        {
            while(!stop.load(std::memory_order_acquire))
            {
                if(listener != nullptr)
                    while(auto conn = listener->accept())
                        if(!door.accept(std::move(conn)))
                            break;
                if(!door.poll(Clock::now()))
                    std::this_thread::yield();
            }
        });

    std::vector<ClientResult> results(clients);
    std::atomic<int> adminFailures{0};
    std::thread adminThread;
    auto const perClient = totalRequests / clients;
    auto const t0 = Clock::now();
    {
        std::vector<std::jthread> threads;
        threads.reserve(clients);
        for(std::size_t c = 0; c < clients; ++c)
            threads.emplace_back(
                [&, c]
                {
                    auto share = perClient + (c == 0 ? totalRequests % clients : 0);
                    runClient(std::move(clientEnds[c]), "tenant-" + std::to_string(c), tmplId, share, results[c]);
                });
        // The ops client runs WHILE the tenants hammer the door: first
        // the pipe session, then the loopback-socket session.
        if(adminRun)
            adminThread = std::thread(
                [&]
                {
                    adminFailures += runAdminOps(std::move(adminPipeEnd), "pipe");
                    adminFailures += runAdminOps(std::move(adminSocketEnd), "socket");
                });
    }
    auto const elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    // The door must keep being polled until the admin sessions finish
    // (a short run can complete before the ops script does).
    if(adminThread.joinable())
        adminThread.join();
    stop.store(true, std::memory_order_release);
    server.join();
    router.drain();

    serve::LatencyCounts merged;
    std::uint64_t verified = 0;
    std::uint64_t mismatched = 0;
    for(auto const& r : results)
    {
        merged.merge(r.latency.counts());
        verified += r.verified;
        mismatched += r.mismatched;
    }
    auto const endToEnd = merged.snapshot();
    auto const perShard = router.stats();
    obs::Registry fleet;
    obs::collect(fleet, perShard);
    auto const inService = fleet.find("serve_latency")->hist.snapshot();
    auto const queueWait = fleet.find("serve_queue_wait")->hist.snapshot();

    std::cout << std::fixed << std::setprecision(1);
    std::cout << "\n  completed   " << verified << " verified, " << mismatched << " mismatched\n";
    std::cout << "  throughput  " << std::setprecision(0) << static_cast<double>(verified) / elapsed
              << " req/s (" << std::setprecision(2) << elapsed << " s wall)\n";
    std::cout << "  end-to-end  p50 " << std::setprecision(0) << endToEnd.p50Us << " us   p99 " << endToEnd.p99Us
              << " us   max " << endToEnd.maxUs << " us\n";
    std::cout << "  in-service  p50 " << inService.p50Us << " us   p99 " << inService.p99Us << " us   max "
              << inService.maxUs << " us\n";
    std::cout << "  per shard   ";
    for(std::size_t s = 0; s < perShard.size(); ++s)
        std::cout << (s > 0 ? " / " : "") << "shard " << s << ": " << perShard[s].completed << " done, "
                  << perShard[s].batches << " batches";
    std::cout << '\n';
    std::cout << "  queue wait  p50 " << queueWait.p50Us << " us   p99 " << queueWait.p99Us << " us   max "
              << queueWait.maxUs << " us\n";
    if(adminRun)
    {
        auto const ds = door.stats();
        std::cout << "  admin       " << ds.adminRequests << " requests, " << ds.adminChunks
                  << " chunks over pipe+socket, " << adminFailures.load() << " failed checks\n";
    }

    if(traceRun)
    {
        traceStop.store(true, std::memory_order_release);
        traceThread.join();

        if(obs::writeChromeTrace(tracePath, collector.events()))
            std::cout << "\n  trace       " << collector.events().size() << " events -> " << tracePath
                      << " (ring drops " << collector.ringDropped() << ", cap drops " << collector.capDropped()
                      << ")\n";
        else
            std::cout << "\n  trace       ERROR: could not write " << tracePath << '\n';

        // The unified registry view of the same run: the fleet merge of
        // every shard, the wire front door, the thread pool, the span
        // rings themselves, and the (normally unarmed) fault registry.
        obs::Registry reg;
        obs::collect(reg, perShard);
        obs::collect(reg, door.stats());
        obs::collect(reg, threadpool::ThreadPool::global().counters());
        obs::collectTrace(reg);
        obs::collectFault(reg);
        std::cout << "\n--- metrics exposition ---\n" << reg.exposition();
    }

    // With the plane in play, shutdown goes through it — the fleet
    // stops AND the plane's capture collector gets its final flush
    // (Collector::drainAll), so no recorded span is stranded in a ring.
    auto const reports
        = plane != nullptr ? plane->shutdown(std::chrono::seconds{10}) : router.shutdown(std::chrono::seconds{10});
    for(std::size_t s = 0; s < reports.size(); ++s)
        if(!reports[s].clean)
            std::cout << "  WARNING: shard " << s << " shutdown not clean\n";

    return mismatched == 0 && verified == totalRequests && adminFailures.load() == 0 ? 0 : 1;
}
