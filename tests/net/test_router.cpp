/// \file Router invariants (DESIGN.md §9.3, invariants 21–22): tenant
/// affinity and its stability under fleet growth (the consistent-hash
/// bound), per-shard backpressure isolation, the histogram-merge
/// algebra, and the per-shard bounded-drain shutdown reports. The fleet
/// merge over Router::stats() is tested in tests/obs/test_registry.cpp.
#include <net/router.hpp>

#include <serve/service.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace alpaka;
using namespace std::chrono_literals;

namespace
{
    struct Payload
    {
        double in = 0.0;
        double out = 0.0;
    };

    [[nodiscard]] auto scaleTemplate() -> serve::TemplateDesc
    {
        serve::TemplateDesc desc;
        desc.name = "scale";
        desc.maxBatch = 8;
        desc.body = [](serve::RequestItem const& item)
        {
            auto* const p = static_cast<Payload*>(item.payload);
            p->out = p->in * 2.0 + 1.0;
        };
        return desc;
    }

    [[nodiscard]] auto tinyShards(std::size_t shards, std::size_t queueCapacity = 64) -> net::RouterOptions
    {
        net::RouterOptions opt;
        opt.shards = shards;
        opt.shard.cpuWorkers = 1;
        opt.shard.queueCapacity = queueCapacity;
        return opt;
    }

    //! Router::submit is fail-fast by design (invariant 22); bulk tests
    //! that just want everything through ride out the backpressure.
    auto submitRetrying(net::Router& router, serve::Request const& request) -> serve::Future
    {
        for(;;)
        {
            try
            {
                return router.submit(request);
            }
            catch(net::ShardBusyError const&)
            {
                std::this_thread::sleep_for(100us);
            }
        }
    }
} // namespace

//! Invariant 21: a tenant's shard is a pure function of its name —
//! stable across calls, across Router instances with the same
//! geometry, and every submitted request lands exactly there.
TEST(NetRouter, TenantAffinityIsStableAndReal)
{
    net::Router router(tinyShards(4));
    auto const tmpl = router.registerTemplate(scaleTemplate());

    net::HashRing const sameGeometry(4);
    std::vector<Payload> payloads(64);
    for(int t = 0; t < 16; ++t)
    {
        auto const name = "tenant-" + std::to_string(t);
        auto const shard = router.shardOf(name);
        EXPECT_EQ(router.shardOf(name), shard) << "affinity not stable";
        EXPECT_EQ(sameGeometry.shardOf(name), shard) << "not a pure function of geometry";
        for(int i = 0; i < 4; ++i)
            submitRetrying(router, serve::Request{tmpl, name, &payloads[t * 4 + i], std::nullopt, {}});
    }
    router.drain();

    // Every tenant's accounting lives on exactly its hash-ring shard.
    auto const stats = router.stats();
    ASSERT_EQ(stats.size(), 4U);
    std::uint64_t completed = 0;
    for(std::size_t s = 0; s < stats.size(); ++s)
    {
        completed += stats[s].completed;
        for(auto const& tenant : stats[s].tenants)
        {
            EXPECT_EQ(router.shardOf(tenant.tenant), s) << tenant.tenant << " accounted off its shard";
            EXPECT_EQ(tenant.admitted, 4U);
        }
    }
    EXPECT_EQ(completed, 64U);
}

//! The consistent-hashing bound: growing N → N+1 shards remaps roughly
//! 1/(N+1) of the key space, never most of it (a modulo router remaps
//! ~N/(N+1) — the difference is the whole point of the ring).
TEST(NetRouter, RingGrowthMovesOnlyItsShare)
{
    constexpr std::size_t keys = 20'000;
    net::HashRing const four(4);
    net::HashRing const five(5);
    std::size_t moved = 0;
    std::size_t toNew = 0;
    for(std::size_t k = 0; k < keys; ++k)
    {
        auto const name = "tenant-" + std::to_string(k);
        auto const before = four.shardOf(name);
        auto const after = five.shardOf(name);
        if(before != after)
        {
            ++moved;
            toNew += after == 4 ? 1 : 0;
        }
    }
    auto const frac = static_cast<double>(moved) / keys;
    EXPECT_GT(frac, 0.10) << "the new shard must take its share";
    EXPECT_LT(frac, 0.35) << "vnode ring must not reshuffle the world (ideal 1/5 = 0.20)";
    // Keys that move should overwhelmingly move TO the new shard, not
    // between survivors.
    EXPECT_GT(static_cast<double>(toNew) / static_cast<double>(moved), 0.95);
}

//! The ring's hash is finalized (mix64 over FNV-1a), for vnode names and
//! keys alike, so every shard owns about 1/N of the key space — and
//! sequential tenant names spread instead of clustering on one shard.
TEST(NetRouter, EveryShardOwnsItsShareOfTheKeySpace)
{
    // Pinned: a tenant's placement must not move across releases.
    EXPECT_EQ(net::ringHash("tenant-0"), 0x30a446adc7db6d64ULL);
    EXPECT_EQ(net::ringHash("shard/0/0"), 0x0dce5c3104764b25ULL);
    constexpr std::uint64_t samples = 200'000;
    for(std::size_t shards : {2U, 3U, 4U})
    {
        net::HashRing const ring(shards);
        std::vector<std::size_t> owned(shards);
        // Evenly spaced points of the 64-bit key space.
        constexpr auto step = ~std::uint64_t{0} / samples;
        for(std::uint64_t k = 0; k < samples; ++k)
            ++owned[ring.shardOf(k * step)];
        std::set<std::size_t> reached;
        for(int t = 0; t < 10; ++t)
            reached.insert(ring.shardOf("tenant-" + std::to_string(t)));
        for(std::size_t s = 0; s < shards; ++s)
        {
            auto const share = static_cast<double>(owned[s]) / samples;
            EXPECT_NEAR(share, 1.0 / static_cast<double>(shards), 0.1) << "shard " << s << " of " << shards;
        }
        EXPECT_GT(reached.size(), 1U) << "tenant-0..tenant-9 all on one of " << shards << " shards";
    }
}

//! Requests interleaving two shards' tenants each reach their tenant's
//! shard, and each gets its own outcome (a refusal for space is
//! ShardBusyError).
TEST(NetRouter, InterleavedTenantsReachTheirShards)
{
    net::Router router(tinyShards(2, /*queueCapacity=*/4));
    auto const tmpl = router.registerTemplate(scaleTemplate());
    std::string const first = "tenant-0";
    std::string second;
    for(int t = 1; second.empty(); ++t)
        if(auto name = "tenant-" + std::to_string(t); router.shardOf(name) != router.shardOf(first))
            second = name;

    // Interleaved tenants; five requests for a shard bounded at four
    // (the first shard's fifth may find room once its worker drained).
    std::vector<Payload> payloads(10);
    std::vector<serve::Future> futures(payloads.size());
    for(std::size_t i = 0; i < payloads.size(); ++i)
    {
        payloads[i].in = static_cast<double>(i);
        try
        {
            futures[i] = router.submit(serve::Request{tmpl, i % 2 == 0 ? first : second, &payloads[i], std::nullopt, {}});
        }
        catch(net::ShardBusyError const&)
        {
            EXPECT_GE(i, 8U) << "request " << i << " within both shards' bounds";
        }
    }
    for(std::size_t i = 0; i < futures.size(); ++i)
    {
        if(!futures[i].valid())
            continue;
        futures[i].wait();
        EXPECT_EQ(payloads[i].out, 2.0 * payloads[i].in + 1.0) << "request " << i;
    }
    router.drain();
    for(auto const& shard : router.stats())
        EXPECT_GE(shard.completed, 4U);
}

//! Invariant 22: one tenant saturating its shard's bounded queue gets
//! typed ShardBusyError naming that shard — while a tenant hashed to
//! another shard keeps being admitted untouched.
TEST(NetRouter, BackpressureIsIsolatedPerShard)
{
    net::Router router(tinyShards(2, /*queueCapacity=*/8));
    std::atomic<bool> release{false};
    serve::TemplateDesc gate;
    gate.name = "gate";
    gate.body = [&release](serve::RequestItem const&)
    {
        while(!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(1ms);
    };
    auto const gateId = router.registerTemplate(gate);
    auto const scaleId = router.registerTemplate(scaleTemplate());

    // Two tenants on provably different shards.
    std::string noisy = "noisy-0";
    std::string quiet;
    for(int t = 0; quiet.empty(); ++t)
    {
        auto const name = "quiet-" + std::to_string(t);
        if(router.shardOf(name) != router.shardOf(noisy))
            quiet = name;
    }

    // Saturate the noisy tenant's shard: one request blocks its worker,
    // then fill the bounded queue until it rejects.
    Payload block;
    router.submit(serve::Request{gateId, noisy, &block, std::nullopt, {}});
    std::vector<Payload> fill(64);
    bool rejected = false;
    auto const until = std::chrono::steady_clock::now() + 5s;
    std::size_t queuedOk = 0;
    while(!rejected && std::chrono::steady_clock::now() < until)
    {
        try
        {
            router.submit(serve::Request{gateId, noisy, &fill[queuedOk % fill.size()], std::nullopt, {}});
            ++queuedOk;
        }
        catch(net::ShardBusyError const& e)
        {
            EXPECT_EQ(e.shard(), router.shardOf(noisy)) << "typed rejection names the busy shard";
            rejected = true;
        }
    }
    ASSERT_TRUE(rejected) << "bounded queue never pushed back";

    // The quiet tenant's shard is open for business throughout.
    std::vector<Payload> quietWork(8);
    for(auto& p : quietWork)
    {
        p.in = 1.0;
        EXPECT_NO_THROW(router.submit(serve::Request{scaleId, quiet, &p, std::nullopt, {}}));
    }
    release.store(true, std::memory_order_release);
    router.drain();
    for(auto const& p : quietWork)
        EXPECT_EQ(p.out, 3.0);
}

//! The merge algebra itself: bucket-wise sums and max-of-max, and the
//! derived quantiles come from the MERGED distribution (quantiles of
//! per-shard quantiles would be wrong — that is the bug this guards).
TEST(NetRouter, LatencyCountsMergeIsBucketwiseSum)
{
    serve::LatencyCounts a;
    serve::LatencyCounts b;
    // a: 99 samples in bucket 3 (~8us); b: 1 sample in bucket 10 (~1ms).
    a.counts[3] = 99;
    a.maxUs = 8;
    b.counts[10] = 1;
    b.maxUs = 900;
    auto merged = a;
    merged.merge(b);
    EXPECT_EQ(merged.total(), 100U);
    EXPECT_EQ(merged.counts[3], 99U);
    EXPECT_EQ(merged.counts[10], 1U);
    EXPECT_EQ(merged.maxUs, 900U);
    auto const snap = merged.snapshot();
    EXPECT_EQ(snap.count, 100U);
    // p50 sits in the dominant bucket; p99 still does (rank 100 falls on
    // the 99th sample); the max reports the outlier.
    EXPECT_EQ(snap.p50Us, static_cast<double>(1U << 3));
    EXPECT_EQ(snap.maxUs, 900.0);
    // Averaging the two shards' p99s (8us and 1024us) would claim
    // ~516us — the merged distribution knows better.
    EXPECT_LE(snap.p99Us, static_cast<double>(1U << 10));
}

TEST(NetRouter, ShutdownReportsPerShardAndStopsAdmission)
{
    net::Router router(tinyShards(3));
    auto const tmpl = router.registerTemplate(scaleTemplate());
    std::vector<Payload> payloads(30);
    for(int i = 0; i < 30; ++i)
        submitRetrying(router, serve::Request{tmpl, "t" + std::to_string(i % 5), &payloads[i], std::nullopt, {}});

    auto const reports = router.shutdown(5s);
    ASSERT_EQ(reports.size(), 3U);
    for(auto const& r : reports)
    {
        EXPECT_TRUE(r.clean);
        EXPECT_EQ(r.stuckWorkers.size(), 0U);
        EXPECT_EQ(r.abandonedQueued, 0U);
        EXPECT_EQ(r.orphanedInFlight, 0U);
    }
    Payload late;
    EXPECT_THROW(router.submit(serve::Request{tmpl, "late", &late, std::nullopt, {}}), serve::AdmissionError);
}

TEST(NetRouter, SingleShardDegeneratesToOneService)
{
    net::Router router(tinyShards(1));
    auto const tmpl = router.registerTemplate(scaleTemplate());
    Payload p{21.0, 0.0};
    router.submit(serve::Request{tmpl, "only", &p, std::nullopt, {}}).wait();
    EXPECT_EQ(p.out, 43.0);
    EXPECT_EQ(router.shardOf("anything"), 0U);
    // wait() orders after the future's resolution, not after the stats
    // accounting (futures-first by design); drain() orders after both.
    router.drain();
    EXPECT_EQ(router.stats().front().completed, 1U);
}
