/// \file obs::Registry semantics (DESIGN.md §10.4): upsert keying by
/// name+labels+kind, counter/gauge/histogram update rules, registry
/// merge (counters and gauges sum, histograms bucket-merge), text
/// exposition shape, and the stats absorbers — including the fleet view
/// over net::Router::stats(), the stack's only cross-shard merge.
#include <obs/registry.hpp>

#include <mempool/pool.hpp>
#include <net/router.hpp>
#include <serve/service.hpp>

#include <alpaka/core/trace.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

using namespace alpaka;

TEST(Registry, CounterAddsGaugeSets)
{
    obs::Registry reg;
    reg.counter("hits", 3);
    reg.counter("hits", 4);
    reg.gauge("depth", 7);
    reg.gauge("depth", 2);
    EXPECT_DOUBLE_EQ(reg.value("hits"), 7.0);
    EXPECT_DOUBLE_EQ(reg.value("depth"), 2.0);
    EXPECT_DOUBLE_EQ(reg.value("absent"), 0.0);
}

TEST(Registry, LabelsKeySeparateSeries)
{
    obs::Registry reg;
    reg.counter("hits", 1, "shard=0");
    reg.counter("hits", 2, "shard=1");
    reg.counter("hits", 10, "shard=0");
    EXPECT_DOUBLE_EQ(reg.value("hits", "shard=0"), 11.0);
    EXPECT_DOUBLE_EQ(reg.value("hits", "shard=1"), 2.0);
    EXPECT_EQ(reg.find("hits"), nullptr) << "unlabeled series was never written";
}

TEST(Registry, HistogramBucketMerges)
{
    serve::LatencyHistogram h1;
    serve::LatencyHistogram h2;
    for(std::uint64_t i = 1; i <= 100; ++i)
        h1.record(i);
    for(std::uint64_t i = 1000; i <= 1100; ++i)
        h2.record(i);

    obs::Registry reg;
    reg.histogram("lat", h1.counts());
    reg.histogram("lat", h2.counts());
    auto const* const s = reg.find("lat");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->hist.total(), 201U);
    EXPECT_EQ(s->hist.maxUs, 1100U);
    EXPECT_DOUBLE_EQ(reg.value("lat"), 201.0) << "value() of a histogram is its count";
}

TEST(Registry, MergeSumsCountersAndGaugesAndCopiesNewSamples)
{
    obs::Registry a;
    a.counter("hits", 5);
    a.gauge("depth", 3);
    obs::Registry b;
    b.counter("hits", 7);
    b.gauge("depth", 4);
    b.counter("only_in_b", 1);
    serve::LatencyHistogram h;
    h.record(10);
    b.histogram("lat", h.counts());

    a.merge(b);
    EXPECT_DOUBLE_EQ(a.value("hits"), 12.0);
    // Gauges sum on merge: merging registries merges fleets, and levels
    // add across fleet members.
    EXPECT_DOUBLE_EQ(a.value("depth"), 7.0);
    EXPECT_DOUBLE_EQ(a.value("only_in_b"), 1.0);
    ASSERT_NE(a.find("lat"), nullptr);
    EXPECT_EQ(a.find("lat")->hist.total(), 1U);
}

TEST(Registry, ExpositionShape)
{
    obs::Registry reg;
    reg.counter("hits", 41);
    reg.counter("hits", 1, "shard=1");
    reg.gauge("ratio", 0.5);
    serve::LatencyHistogram h;
    h.record(100);
    reg.histogram("lat", h.counts());

    auto const text = reg.exposition();
    EXPECT_NE(text.find("# TYPE hits_total counter\n"), std::string::npos);
    EXPECT_NE(text.find("hits_total 41\n"), std::string::npos);
    EXPECT_NE(text.find("hits_total{shard=\"1\"} 1\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE ratio gauge\n"), std::string::npos);
    EXPECT_NE(text.find("ratio 0.5\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE lat_count counter\n"), std::string::npos);
    EXPECT_NE(text.find("lat_count 1\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE lat_max_us gauge\n"), std::string::npos);
    EXPECT_NE(text.find("lat_max_us 100\n"), std::string::npos);
}

//! The conformance satellite's pin: label values escaped (backslash,
//! quote, newline), `# TYPE` once per family however samples
//! interleave, counters suffixed `_total` (histogram `_count` exempt,
//! per the histogram convention).
TEST(Registry, ExpositionConformance)
{
    obs::Registry reg;
    reg.counter("ops", 1, "path=a\\b");
    reg.gauge("interleaved", 1.0);
    reg.counter("ops", 2, "path=say \"hi\"");
    reg.counter("ops", 3, "path=two\nlines");

    auto const text = reg.exposition();
    EXPECT_NE(text.find("ops_total{path=\"a\\\\b\"} 1\n"), std::string::npos);
    EXPECT_NE(text.find("ops_total{path=\"say \\\"hi\\\"\"} 2\n"), std::string::npos);
    EXPECT_NE(text.find("ops_total{path=\"two\\nlines\"} 3\n"), std::string::npos);
    // No raw newline may survive inside a label value.
    EXPECT_EQ(text.find("two\nlines"), std::string::npos);

    // TYPE lines are unique per family even though `interleaved` split
    // the ops samples.
    std::size_t typeLines = 0;
    for(std::size_t at = text.find("# TYPE ops_total counter\n"); at != std::string::npos;
        at = text.find("# TYPE ops_total counter\n", at + 1))
        ++typeLines;
    EXPECT_EQ(typeLines, 1U);

    // Multi-key label sets render each value quoted.
    obs::Registry multi;
    multi.counter("m", 1, "shard=0,dev=cpu");
    EXPECT_NE(multi.exposition().find("m_total{shard=\"0\",dev=\"cpu\"} 1\n"), std::string::npos);
}

TEST(Registry, CollectServiceStatsMapsEveryCounter)
{
    serve::ServiceStats s;
    s.queued = 3;
    s.inFlight = 2;
    s.admitted = 100;
    s.rejected = 5;
    s.completed = 90;
    s.failed = 4;
    s.batches = 30;
    s.shedExpired = 1;
    s.shedCancelled = 2;
    s.shedOverload = 3;
    s.workersLost = 1;
    s.workerRestarts = 1;
    serve::LatencyHistogram lat;
    lat.record(50);
    s.latencyCounts = lat.counts();
    serve::LatencyHistogram qw;
    qw.record(7);
    qw.record(9);
    s.queueWaitCounts = qw.counts();

    obs::Registry reg;
    obs::collect(reg, s, "shard=0");
    EXPECT_DOUBLE_EQ(reg.value("serve_queued", "shard=0"), 3.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_in_flight", "shard=0"), 2.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_admitted", "shard=0"), 100.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_rejected", "shard=0"), 5.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_completed", "shard=0"), 90.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_failed", "shard=0"), 4.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_batches", "shard=0"), 30.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_shed_expired", "shard=0"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_shed_cancelled", "shard=0"), 2.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_shed_overload", "shard=0"), 3.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_workers_lost", "shard=0"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_worker_restarts", "shard=0"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_latency", "shard=0"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_queue_wait", "shard=0"), 2.0);
}

namespace
{
    [[nodiscard]] auto doublingTemplate() -> serve::TemplateDesc
    {
        serve::TemplateDesc desc;
        desc.name = "double";
        desc.maxBatch = 8;
        desc.body = [](serve::RequestItem const& item) { *static_cast<double*>(item.payload) *= 2.0; };
        return desc;
    }
} // namespace

namespace
{
    //! Serves 300 requests from tenant-0..9 on a 3-shard router (the
    //! tenant set reaches every shard), checks every payload, and returns
    //! the drained shards' snapshots. Each request gets \p scratchBytes of
    //! request-scoped scratch from the worker device's pool.
    [[nodiscard]] auto servedFleetStats(std::size_t scratchBytes = 0) -> std::vector<serve::ServiceStats>
    {
        net::RouterOptions opt;
        opt.shards = 3;
        opt.shard.cpuWorkers = 1;
        opt.shard.queueCapacity = 64;
        net::Router router(opt);
        auto desc = doublingTemplate();
        desc.scratchBytes = scratchBytes;
        auto const tmpl = router.registerTemplate(std::move(desc));

        std::vector<double> payloads(300);
        for(std::size_t i = 0; i < payloads.size(); ++i)
        {
            payloads[i] = double(i);
            serve::Request req;
            req.tmpl = tmpl;
            auto const tenant = "tenant-" + std::to_string(i % 10);
            req.tenant = tenant;
            req.payload = serve::PayloadView(&payloads[i], sizeof(double));
            router.submit(req).wait();
        }
        router.drain();
        for(std::size_t i = 0; i < payloads.size(); ++i)
            EXPECT_DOUBLE_EQ(payloads[i], 2.0 * double(i)) << "request " << i;
        return router.stats();
    }
} // namespace

//! The registry is the only cross-shard merge: over Router::stats(),
//! fleet counters are the per-shard sums and fleet histograms the
//! bucket-wise sums of the per-shard counts.
TEST(Registry, RouterFleetViewIsTheShardSum)
{
    auto const shards = servedFleetStats();
    ASSERT_EQ(shards.size(), 3U);
    obs::Registry reg;
    obs::collect(reg, shards);

    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    serve::LatencyCounts latency;
    serve::LatencyCounts queueWait;
    for(std::size_t s = 0; s < shards.size(); ++s)
    {
        EXPECT_GT(shards[s].completed, 0U) << "shard " << s << " served nothing";
        admitted += shards[s].admitted;
        completed += shards[s].completed;
        for(std::size_t b = 0; b < serve::LatencyCounts::bucketCount; ++b)
        {
            latency.counts[b] += shards[s].latencyCounts.counts[b];
            queueWait.counts[b] += shards[s].queueWaitCounts.counts[b];
        }
    }
    EXPECT_EQ(completed, 300U);
    EXPECT_DOUBLE_EQ(reg.value("router_shards"), 3.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_admitted"), double(admitted));
    EXPECT_DOUBLE_EQ(reg.value("serve_completed"), double(completed));
    for(auto const& [name, sum] : {std::pair{"serve_latency", &latency}, std::pair{"serve_queue_wait", &queueWait}})
    {
        auto const* const merged = reg.find(name);
        ASSERT_NE(merged, nullptr) << name;
        EXPECT_EQ(merged->hist.total(), 300U) << name << " is recorded per request";
        for(std::size_t b = 0; b < serve::LatencyCounts::bucketCount; ++b)
            EXPECT_EQ(merged->hist.counts[b], sum->counts[b]) << name << " bucket " << b;
    }
}

//! The fleet view's sample set: a router_shards gauge, then every shard's
//! ServiceStats collected unlabeled into one registry — the same names,
//! labels, kinds, values and exposition as that composition by hand.
//! Every CPU shard reports the one process-wide mempool::Pool::forDev
//! (DevCpu), so the composition collects each distinct device pool once
//! and sums the per-shard queue levels, as the fleet view does: summing
//! the shared pool per shard only matched while no earlier test in the
//! process had allocated scratch from it.
TEST(Registry, RouterFleetViewKeepsItsSamples)
{
    auto const shards = servedFleetStats();
    obs::Registry reg;
    obs::collect(reg, shards);

    obs::Registry expected;
    expected.gauge("router_shards", double(shards.size()));
    std::vector<std::string> devices;
    double queued = 0.0;
    double inFlight = 0.0;
    for(auto shard : shards)
    {
        std::erase_if(
            shard.devicePools,
            [&](serve::DevicePoolStats const& pool)
            {
                if(std::find(devices.begin(), devices.end(), pool.device) != devices.end())
                    return true;
                devices.push_back(pool.device);
                return false;
            });
        obs::collect(expected, shard);
        queued += double(shard.queued);
        inFlight += double(shard.inFlight);
    }
    expected.gauge("serve_queued", queued);
    expected.gauge("serve_in_flight", inFlight);

    ASSERT_EQ(reg.samples().size(), expected.samples().size());
    for(std::size_t i = 0; i < reg.samples().size(); ++i)
    {
        auto const& got = reg.samples()[i];
        auto const& want = expected.samples()[i];
        EXPECT_EQ(got.name, want.name) << "sample " << i;
        EXPECT_EQ(got.labels, want.labels) << got.name;
        EXPECT_EQ(got.kind, want.kind) << got.name;
        EXPECT_DOUBLE_EQ(got.value, want.value) << got.name;
        EXPECT_EQ(got.hist.counts, want.hist.counts) << got.name;
    }
    EXPECT_EQ(reg.exposition(), expected.exposition());

    std::vector<std::string> const serveFamily{
        "router_shards",
        "serve_queued",
        "serve_in_flight",
        "serve_admitted",
        "serve_rejected",
        "serve_completed",
        "serve_failed",
        "serve_batches",
        "serve_shed_expired",
        "serve_shed_cancelled",
        "serve_shed_overload",
        "serve_workers_lost",
        "serve_worker_restarts",
        "serve_latency",
        "serve_queue_wait"};
    ASSERT_GE(reg.samples().size(), serveFamily.size());
    for(std::size_t i = 0; i < serveFamily.size(); ++i)
    {
        EXPECT_EQ(reg.samples()[i].name, serveFamily[i]);
        EXPECT_EQ(reg.samples()[i].labels, "");
    }
    for(std::size_t i = serveFamily.size(); i < reg.samples().size(); ++i)
    {
        EXPECT_EQ(reg.samples()[i].name.rfind("mempool_", 0), 0U) << reg.samples()[i].name;
        EXPECT_EQ(reg.samples()[i].labels.rfind("dev=", 0), 0U) << reg.samples()[i].labels;
    }
}

//! Every CPU shard allocates its scratch from the one process-wide
//! mempool::Pool::forDev(DevCpu): the fleet view reports that pool's own
//! counters once, not once per shard.
TEST(Registry, FleetViewCountsASharedDevicePoolOnce)
{
    auto const shards = servedFleetStats(64);
    auto const pool = mempool::Pool::forDev(dev::DevCpu{}).stats();

    std::size_t reporting = 0;
    for(auto const& shard : shards)
        reporting += shard.devicePools.size();
    ASSERT_EQ(reporting, shards.size()) << "every shard reports the shared CPU pool";
    ASSERT_GT(pool.cacheHits, 0U);

    obs::Registry reg;
    obs::collect(reg, shards);
    auto const labels = "dev=" + dev::DevCpu{}.getName();
    EXPECT_DOUBLE_EQ(reg.value("mempool_cache_hits", labels), double(pool.cacheHits));
    EXPECT_DOUBLE_EQ(reg.value("mempool_cache_misses", labels), double(pool.cacheMisses));
}

//! Queue depth and in-flight count are levels per shard: the fleet's
//! level is their sum, not the last shard's.
TEST(Registry, FleetViewSumsTheShardLevels)
{
    std::vector<serve::ServiceStats> shards(3);
    shards[0].queued = 3;
    shards[0].inFlight = 1;
    shards[1].queued = 5;
    shards[1].inFlight = 2;
    shards[2].queued = 7;
    shards[2].inFlight = 4;

    obs::Registry reg;
    obs::collect(reg, std::span<serve::ServiceStats const>(shards));
    EXPECT_DOUBLE_EQ(reg.value("serve_queued"), 15.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_in_flight"), 7.0);

    obs::Registry labelled;
    obs::collect(labelled, shards[2], "shard=2");
    EXPECT_DOUBLE_EQ(labelled.value("serve_queued", "shard=2"), 7.0);
    EXPECT_DOUBLE_EQ(labelled.value("serve_in_flight", "shard=2"), 4.0);
}

TEST(Registry, TraceAndFaultCollectorsAlwaysPresent)
{
    obs::Registry reg;
    obs::collectTrace(reg);
    obs::collectFault(reg);
    EXPECT_NE(reg.find("trace_events_recorded"), nullptr);
    EXPECT_NE(reg.find("trace_events_dropped"), nullptr);
    EXPECT_NE(reg.find("trace_threads"), nullptr);
    EXPECT_DOUBLE_EQ(reg.value("trace_compiled_in"), trace::compiledIn() ? 1.0 : 0.0);
    EXPECT_NE(reg.find("fault_hits"), nullptr);
    EXPECT_NE(reg.find("fault_fires"), nullptr);
}
