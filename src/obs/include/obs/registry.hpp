/// \file obs::Registry — the unified metrics registry (DESIGN.md §10.4).
///
/// Every layer grew its own introspection struct — serve::ServiceStats,
/// net::FrontDoorStats, mempool::PoolStats, the threadpool's park/steal
/// counters, the fault registry's hit/fire totals. Each is the right *source* (a coherent snapshot taken by the
/// layer that owns the data), but exporters need one *sink*: a flat,
/// mergeable set of named samples behind one pull interface. The
/// registry is that sink — `collect(...)` overloads absorb each stats
/// struct into namespaced samples, `merge()` folds registries (counters
/// and gauges sum, histograms merge bucket-wise — the exact-merge
/// discipline serve::LatencyCounts established in §9.3), and
/// `exposition()` dumps the whole thing as text. The Router fleet view
/// IS a registry merge: collect each shard's ServiceStats into one
/// registry and the sums fall out of the data model — it is the only
/// cross-shard aggregation in the stack.
///
/// The registry is pull-only and unsynchronized by design: build one on
/// demand from the layers' snapshot calls, read it, throw it away. The
/// hot paths never see it.
#pragma once

#include "serve/latency.hpp"
#include "serve/types.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace alpaka::mempool
{
    struct PoolStats;
}

namespace alpaka::net
{
    struct FrontDoorStats;
}

namespace threadpool
{
    struct PoolCounters;
}

namespace alpaka::obs
{
    enum class MetricKind : std::uint8_t
    {
        Counter, //!< monotonic; merge sums
        Gauge, //!< point-in-time level; merge sums (fleet totals)
        Histogram, //!< log2 buckets; merge is bucket-wise (exact)
    };

    struct Sample
    {
        std::string name;
        //! Rendered label set ("shard=0", "dev=cpu"); empty for none.
        //! name+labels is the registry key.
        std::string labels;
        MetricKind kind = MetricKind::Counter;
        double value = 0.0; //!< counter/gauge payload
        serve::LatencyCounts hist{}; //!< histogram payload
    };

    class Registry
    {
    public:
        //! Adds \p v to the named counter (creating it at zero).
        void counter(std::string_view name, double v, std::string_view labels = {});
        //! Sets the named gauge to \p v.
        void gauge(std::string_view name, double v, std::string_view labels = {});
        //! Bucket-merges \p h into the named histogram.
        void histogram(std::string_view name, serve::LatencyCounts const& h, std::string_view labels = {});

        //! Folds \p other in: counters and gauges sum, histograms merge
        //! bucket-wise; samples only in \p other are copied.
        auto merge(Registry const& other) -> Registry&;

        [[nodiscard]] auto samples() const noexcept -> std::vector<Sample> const&
        {
            return samples_;
        }
        [[nodiscard]] auto find(std::string_view name, std::string_view labels = {}) const noexcept -> Sample const*;
        //! Counter/gauge value, 0 when absent (histograms: the count).
        [[nodiscard]] auto value(std::string_view name, std::string_view labels = {}) const noexcept -> double;

        //! Prometheus text exposition: counters as `name_total`, gauges
        //! as `name`, histograms as derived `_count`/`_p50_us`/`_p99_us`/
        //! `_max_us` families; one `# TYPE family kind` line per family
        //! (emitted once, however samples interleave); label values
        //! quoted with backslash/quote/newline escaped.
        [[nodiscard]] auto exposition() const -> std::string;

    private:
        auto upsert(std::string_view name, std::string_view labels, MetricKind kind) -> Sample&;
        std::vector<Sample> samples_;
    };

    //! \name stats absorbers — one per scattered stats struct
    //! @{
    void collect(Registry& reg, serve::ServiceStats const& s, std::string_view labels = {});
    void collect(Registry& reg, mempool::PoolStats const& s, std::string_view labels = {});
    void collect(Registry& reg, net::FrontDoorStats const& s, std::string_view labels = {});
    //! The fleet view (net::Router::stats()): every shard's ServiceStats
    //! collected unlabeled into ONE registry, so fleet totals are the
    //! registry's merge semantics, plus a `router_shards` gauge.
    void collect(Registry& reg, std::span<serve::ServiceStats const> shards);
    void collect(Registry& reg, threadpool::PoolCounters const& s, std::string_view labels = {});
    //! Span-ring health from core/trace.hpp: events recorded/dropped,
    //! registered threads, table overflow.
    void collectTrace(Registry& reg);
    //! Fault-injection totals (zero in unarmed builds).
    void collectFault(Registry& reg);
    //! @}
} // namespace alpaka::obs
