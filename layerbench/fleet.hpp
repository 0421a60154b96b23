/// \file The benchmark's fleet: workload specs, request payloads, the two
/// request templates, and one in-process serving stack
/// (net::Client x4 -> pipes -> net::FrontDoor -> net::Router (2 shards)
/// -> serve::Service -> private threadpool::ThreadPool).
#pragma once

#include <net/client.hpp>
#include <net/front_door.hpp>
#include <net/router.hpp>
#include <net/transport.hpp>

#include <serve/service.hpp>

#include <threadpool/thread_pool.hpp>

#include <alpaka/alpaka.hpp>

#include <pthread.h>
#include <sched.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace layerbench
{
    using namespace alpaka;
    using Clock = std::chrono::steady_clock;
    using Size = std::size_t;

    //! Session sizing: deep enough that the client window, not the door's
    //! slot table, bounds what is in flight.
    struct WireCfg
    {
        static constexpr std::size_t maxConnections = 8;
        static constexpr std::size_t slotsPerConnection = 64;
        static constexpr std::size_t maxPayload = 64;
        static constexpr std::size_t maxTenantBytes = 48;
        static constexpr std::size_t window = 64;
        static constexpr std::size_t txFrames = 16;
    };

    //! \name thread budget (recorded with every result)
    //! One generator thread drives every connection and polls the front
    //! door between passes over them, each shard runs its own worker
    //! threads, and the shards share one private ThreadPool (passed
    //! through ServiceOptions::pool; the global pool is never touched).
    //! @{
    inline constexpr std::size_t connections = 4;
    inline constexpr std::size_t shardCount = 2;
    inline constexpr std::size_t workersPerShard = 1;
    inline constexpr std::size_t poolWorkers = 1;
    //! @}

    inline constexpr std::size_t gemmN = 64;
    //! Distinct seeded left operands per run; requests pick one by key.
    inline constexpr std::size_t gemmKeys = 32;

    struct Spec
    {
        char const* name;
        bool gemm; //!< graph template (stage -> DGEMM -> checksum) vs kernel template
        bool paced; //!< open loop (seeded Poisson arrivals) vs closed loop
        std::size_t window; //!< in-flight cap per connection
        double rate; //!< offered requests per second over all connections (paced only)
        std::size_t maxBatch;
    };

    //! wire_paced runs (`--workload wire_paced`) but is not among the
    //! workloads BENCHMARK.json lists: its workers park after nearly every
    //! request, which exposes threadpool::detail::PublishWord's lost wake,
    //! so some runs strand a shard and its failure count differs from run
    //! to run. The watchdog reports such a stall; nothing here works
    //! around it.
    inline constexpr std::array<Spec, 3> specs{{
        {"wire_small", false, false, 8, 0.0, 64},
        {"wire_paced", false, true, 64, 100000.0, 64},
        {"wire_gemm", true, false, 4, 0.0, 4},
    }};

    //! 16-byte payloads, read and written with memcpy (the wire slot buffer
    //! carries no alignment promise).
    struct ScalePayload
    {
        double in = 0.0;
        double out = 0.0;
    };
    struct GemmPayload
    {
        std::uint64_t key = 0;
        double checksum = 0.0;
    };
    static_assert(sizeof(ScalePayload) == 16 && sizeof(GemmPayload) == 16);
    inline constexpr std::size_t payloadBytes = 16;

    [[nodiscard]] constexpr auto splitmix(std::uint64_t x) noexcept -> std::uint64_t
    {
        x += 0x9E3779B97F4A7C15ULL;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        return x ^ (x >> 31);
    }

    //! Position-weighted sum: a permuted or partial result changes it.
    [[nodiscard]] inline auto checksum(double const* c, std::size_t count) noexcept -> double
    {
        double sum = 0.0;
        for(std::size_t i = 0; i < count; ++i)
            sum += c[i] * static_cast<double>(1 + i % 7);
        return sum;
    }

    //! The wire_gemm inputs and their reference checksums, all derived
    //! from the seed and computed before any clock starts.
    struct GemmData
    {
        std::size_t n = gemmN;
        std::vector<double> b;
        std::vector<std::vector<double>> a;
        std::vector<double> ref;

        explicit GemmData(std::uint64_t seed) : b(gemmN * gemmN), a(gemmKeys, std::vector<double>(gemmN * gemmN))
        {
            auto const fill = [](std::vector<double>& m, std::uint64_t stream)
            {
                for(std::size_t i = 0; i < m.size(); ++i)
                    m[i] = static_cast<double>(splitmix(stream + i) % 2001) / 1000.0 - 1.0;
            };
            fill(b, splitmix(seed ^ 0xB0B0ULL) << 20);
            std::vector<double> c(n * n);
            for(std::size_t key = 0; key < gemmKeys; ++key)
            {
                fill(a[key], splitmix(seed + 1 + key) << 20);
                for(std::size_t i = 0; i < n; ++i)
                    for(std::size_t j = 0; j < n; ++j)
                    {
                        double sum = 0.0;
                        for(std::size_t k = 0; k < n; ++k)
                            sum += a[key][i * n + k] * b[k * n + j];
                        c[i * n + j] = sum;
                    }
                ref.push_back(checksum(c.data(), c.size()));
            }
        }

        [[nodiscard]] auto scratchBytes() const noexcept -> std::size_t
        {
            return n * n * sizeof(double);
        }
    };

    //! C_r = A_r * B for every request r of the bound batch; one block per
    //! (request, row), blocks beyond the batch return at once. A_r is the
    //! request's mempool scratch block, staged by the graph's first node.
    struct BatchGemmKernel
    {
        template<typename TAcc>
        ALPAKA_FN_ACC void operator()(
            TAcc const& acc,
            Size n,
            double const* b,
            serve::BatchView const* const* cell,
            double* c) const
        {
            auto const block = alpaka::idx::getIdx<alpaka::Grid, alpaka::Threads>(acc)[0];
            auto const& view = **cell;
            auto const r = block / n;
            auto const i = block % n;
            if(r >= view.size())
                return;
            auto const* const a = static_cast<double const*>(view[r].scratch);
            auto* const cr = c + r * n * n;
            for(Size j = 0; j < n; ++j)
            {
                double sum = 0.0;
                for(Size k = 0; k < n; ++k)
                    sum += a[i * n + k] * b[k * n + j];
                cr[i * n + j] = sum;
            }
        }
    };

    //! Same launch shape, no work: the with/without pair of the replay
    //! overhead probe.
    struct EmptyKernel
    {
        template<typename TAcc>
        ALPAKA_FN_ACC void operator()(
            TAcc const& /*acc*/,
            Size /*n*/,
            double const* /*b*/,
            serve::BatchView const* const* /*cell*/,
            double* /*c*/) const
        {
        }
    };

    using GemmAcc = acc::AccCpuTaskBlocks<Dim1, Size>;

    [[nodiscard]] inline auto gemmWorkDiv(std::size_t batch) -> workdiv::WorkDivMembers<Dim1, Size>
    {
        return {Size{batch * gemmN}, Size{1}, Size{1}};
    }

    //! wire_gemm's DAG: stage inputs into scratch -> batched DGEMM ->
    //! checksum into the payload. With \p empty, every node body is a no-op
    //! of the same shape (same node count, same kernel block count).
    [[nodiscard]] inline auto buildGemmGraph(
        dev::DevCpu const& dev,
        serve::BatchView const* const* cell,
        GemmData const& data,
        std::size_t maxBatch,
        bool empty) -> graph::Graph
    {
        auto const n = data.n;
        auto c = std::make_shared<std::vector<double>>(maxBatch * n * n);
        graph::Graph g;
        auto const stage = g.addHost(
            {},
            [cell, &data, empty]
            {
                if(empty)
                    return;
                auto const& view = **cell;
                for(std::size_t r = 0; r < view.size(); ++r)
                {
                    GemmPayload p;
                    std::memcpy(&p, view[r].payload, sizeof(p));
                    auto const& a = data.a[p.key % gemmKeys];
                    std::memcpy(view[r].scratch, a.data(), a.size() * sizeof(double));
                }
            });
        auto const wd = gemmWorkDiv(maxBatch);
        auto const kernel = empty
                                ? g.addKernel({stage}, dev, exec::create<GemmAcc>(wd, EmptyKernel{}, n, data.b.data(), cell, c->data()))
                                : g.addKernel({stage}, dev, exec::create<GemmAcc>(wd, BatchGemmKernel{}, n, data.b.data(), cell, c->data()));
        g.addHost(
            {kernel},
            [cell, c, n, empty]
            {
                if(empty)
                    return;
                auto const& view = **cell;
                for(std::size_t r = 0; r < view.size(); ++r)
                {
                    GemmPayload p;
                    std::memcpy(&p, view[r].payload, sizeof(p));
                    p.checksum = checksum(c->data() + r * n * n, n * n);
                    std::memcpy(view[r].payload, &p, sizeof(p));
                }
            });
        return g;
    }

    //! out = 2 * in + 1, per request.
    inline void scaleBody(serve::RequestItem const& item)
    {
        ScalePayload p;
        std::memcpy(&p, item.payload, sizeof(p));
        p.out = p.in * 2.0 + 1.0;
        std::memcpy(item.payload, &p, sizeof(p));
    }

    [[nodiscard]] inline auto makeTemplate(Spec const& spec, GemmData const& data) -> serve::TemplateDesc
    {
        serve::TemplateDesc desc;
        desc.maxBatch = spec.maxBatch;
        if(spec.gemm)
        {
            desc.name = "gemm";
            desc.scratchBytes = data.scratchBytes();
            desc.graph = [&data, maxBatch = spec.maxBatch](serve::GraphContext& ctx)
            { return buildGemmGraph(ctx.cpuDev(), ctx.batch(), data, maxBatch, false); };
        }
        else
        {
            desc.name = "scale";
            desc.body = scaleBody;
        }
        return desc;
    }

    //! Tenant names "tenant-<i>", taken in order while their shard still
    //! has room, so every shard serves connections / shardCount tenants.
    [[nodiscard]] inline auto pickTenants(net::Router const& router) -> std::vector<std::string>
    {
        std::array<std::size_t, shardCount> taken{};
        std::vector<std::string> names;
        for(std::size_t i = 0; names.size() < connections && i < 4096; ++i)
        {
            auto name = "tenant-" + std::to_string(i);
            auto const shard = router.shardOf(name);
            if(taken[shard] < connections / shardCount)
            {
                ++taken[shard];
                names.push_back(std::move(name));
            }
        }
        for(std::size_t s = 0; s < shardCount; ++s)
            if(taken[s] == 0)
                throw std::runtime_error("layerbench: shard " + std::to_string(s) + " received no tenant");
        return names;
    }

    [[nodiscard]] inline auto routerOptions(threadpool::ThreadPool& pool) -> net::RouterOptions
    {
        net::RouterOptions options;
        options.shards = shardCount;
        options.shard.cpuWorkers = workersPerShard;
        options.shard.queueCapacity = 4096;
        options.shard.pool = &pool;
        return options;
    }

    //! Where a thread runs, on a host with at least 4 usable CPUs: the
    //! generator (which also polls the front door) alone on the first, the
    //! two shard workers and the pool worker on the other three: one CPU
    //! per thread. A separate door thread would put five threads on four
    //! CPUs, and whichever serving thread lost its CPU for a 4 ms scheduler
    //! tick would leave its shard's requests waiting (per-window p50 then
    //! flips between ~22 and ~45 us, and the gemm workload's split of CPU
    //! time changes from run to run). With fewer CPUs nothing is pinned.
    //! `any` lifts the restriction (the kernel probe pits the pool against
    //! an OpenMP team that must be free to spread).
    enum class Place
    {
        front,
        serving,
        any,
    };

    [[nodiscard]] inline auto placementOf(Place place) -> std::vector<int>
    {
        static std::vector<int> const usable = []
        {
            cpu_set_t set;
            CPU_ZERO(&set);
            std::vector<int> ids;
            if(sched_getaffinity(0, sizeof(set), &set) == 0)
                for(int c = 0; c < CPU_SETSIZE; ++c)
                    if(CPU_ISSET(c, &set))
                        ids.push_back(c);
            return ids;
        }();
        if(usable.size() < 4)
            return {};
        switch(place)
        {
        case Place::front:
            return {usable[0]};
        case Place::serving:
            return {usable[1], usable[2], usable[3]};
        case Place::any:
            return usable;
        }
        return {};
    }

    //! Restricts the calling thread to \p place; threads it creates
    //! afterwards inherit the mask (which is how the library's pool and
    //! shard threads get theirs).
    inline void placeCallingThread(Place place)
    {
        auto const cpus = placementOf(place);
        if(cpus.empty())
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        for(auto const c : cpus)
            CPU_SET(c, &set);
        pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    }

    //! One complete serving stack. Construction is the measured set-up:
    //! pool and shard threads, template registration and lowering, pipe
    //! connections and their Hello handshakes.
    struct Fleet
    {
        Fleet(Spec const& specIn, GemmData const& data)
            : spec(specIn)
            , pool(makePool())
            , router(makeRouter(pool))
            , tenants(pickTenants(router))
            , tmpl(router.registerTemplate(makeTemplate(specIn, data)))
        {
            placeCallingThread(Place::front);
            for(auto const& tenant : tenants)
            {
                auto [serverEnd, clientEnd] = net::makePipePair(1 << 16);
                if(!door.accept(std::move(serverEnd)))
                    throw std::runtime_error("layerbench: door connection table full");
                clients.push_back(std::make_unique<net::Client<WireCfg>>(std::move(clientEnd)));
                clients.back()->hello(tenant);
            }
            auto const until = Clock::now() + std::chrono::seconds(10);
            for(;;)
            {
                bool ready = true;
                for(auto& client : clients)
                {
                    client->poll([](net::Client<WireCfg>::Response const&) {});
                    ready = ready && client->ready();
                }
                if(ready)
                    break;
                if(Clock::now() > until)
                    throw std::runtime_error("layerbench: handshake did not complete");
                door.poll(Clock::now());
            }
        }

        Fleet(Fleet const&) = delete;
        auto operator=(Fleet const&) -> Fleet& = delete;

        //! Resolves every admitted request (bounded) before the door whose
        //! slots the completion continuations write into goes away.
        ~Fleet()
        {
            router.shutdown(std::chrono::seconds(5));
        }

        [[nodiscard]] static auto makePool() -> threadpool::ThreadPool
        {
            placeCallingThread(Place::serving);
            return threadpool::ThreadPool(poolWorkers);
        }
        [[nodiscard]] static auto makeRouter(threadpool::ThreadPool& pool) -> net::Router
        {
            placeCallingThread(Place::serving);
            return net::Router(routerOptions(pool));
        }

        Spec const& spec;
        threadpool::ThreadPool pool;
        net::Router router;
        std::vector<std::string> tenants;
        serve::TemplateId tmpl;
        net::FrontDoor<WireCfg> door{router};
        std::vector<std::unique_ptr<net::Client<WireCfg>>> clients;
    };
} // namespace layerbench
