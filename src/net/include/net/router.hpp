/// \file net::Router — tenant-affine sharding over serve::Service
/// (DESIGN.md §9.3).
///
/// One serve::Service already multiplexes tenants fairly, but all its
/// tenants share one admission ring, one scheduling mutex, one latency
/// histogram. The router scales that horizontally: N independent
/// Service shards behind a consistent-hash ring keyed by tenant, so
///
///  * a tenant's requests always land on the same shard (tenant
///    affinity — invariant 21): per-tenant FIFO order and fair-share
///    accounting keep meaning exactly what they meant on one service;
///  * backpressure is typed per shard (ShardBusyError carries the shard
///    index) and ISOLATED: one tenant filling its shard's queue cannot
///    reject tenants hashed elsewhere (invariant 22);
///  * the hash ring uses virtual nodes, so growing the fleet from N to
///    N+1 shards remaps only ~1/(N+1) of the tenant space (the classic
///    consistent-hashing bound) instead of reshuffling everyone;
///  * stats() MERGES the shards' raw latency bucket counts before
///    deriving fleet quantiles — quantiles of quantiles are meaningless,
///    bucket sums are exact (serve/latency.hpp).
///
/// Templates are registered through the router so every shard lowers
/// the same id; shutdown drains every shard with the same bounded-drain
/// contract as one service, reported per shard.
#pragma once

#include "serve/service.hpp"
#include "serve/types.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace alpaka::net
{
    //! Admission rejected by ONE shard's bounded queue — the router
    //! projection of serve::AdmissionError, carrying which shard said
    //! no. Other shards may still have space: a multi-tenant client can
    //! keep submitting for tenants hashed elsewhere (invariant 22).
    class ShardBusyError : public serve::AdmissionError
    {
    public:
        ShardBusyError(std::size_t shard, std::string const& what) : serve::AdmissionError(what), shard_(shard)
        {
        }
        [[nodiscard]] auto shard() const noexcept -> std::size_t
        {
            return shard_;
        }

    private:
        std::size_t shard_;
    };

    //! FNV-1a over \p s, continuing from state \p h.
    [[nodiscard]] constexpr auto fnv1a(std::string_view s, std::uint64_t h = 14695981039346656037ULL) noexcept
        -> std::uint64_t
    {
        for(char const c : s)
        {
            h ^= static_cast<std::uint8_t>(c);
            h *= 1099511628211ULL;
        }
        return h;
    }

    //! splitmix64's finalizer. FNV-1a alone moves the hash of names that
    //! differ only in their last byte by little, so sequential names
    //! (and the ring's own vnode names) cluster on the ring; mixing the
    //! state spreads every input bit over all 64.
    [[nodiscard]] constexpr auto mix64(std::uint64_t h) noexcept -> std::uint64_t
    {
        h ^= h >> 30;
        h *= 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 27;
        h *= 0x94d049bb133111ebULL;
        h ^= h >> 31;
        return h;
    }

    //! The ring's hash of a tenant name (and of its vnode names):
    //! FNV-1a finalized by mix64. Public because the affinity tests
    //! re-derive placements offline.
    [[nodiscard]] constexpr auto ringHash(std::string_view s) noexcept -> std::uint64_t
    {
        return mix64(fnv1a(s));
    }

    //! Consistent-hash ring with virtual nodes: shard i contributes
    //! `vnodes` points ringHash("shard/<i>/<v>"); a key is owned by the
    //! first point clockwise from its hash. Built once (sorted vector),
    //! lookups are lock-free binary searches — the submit hot path
    //! allocates nothing.
    class HashRing
    {
    public:
        HashRing(std::size_t shards, std::size_t vnodes);

        [[nodiscard]] auto shardOf(std::uint64_t keyHash) const noexcept -> std::size_t;
        [[nodiscard]] auto shardOf(std::string_view tenant) const noexcept -> std::size_t
        {
            return shardOf(ringHash(tenant));
        }
        [[nodiscard]] auto shardCount() const noexcept -> std::size_t
        {
            return shards_;
        }

    private:
        struct Point
        {
            std::uint64_t hash;
            std::uint32_t shard;
        };
        std::vector<Point> ring_;
        std::size_t shards_;
    };

    struct RouterOptions
    {
        //! Independent serve::Service shards (>= 1).
        std::size_t shards = 2;
        //! Virtual nodes per shard on the hash ring. More vnodes =
        //! smoother tenant spread, bigger (still static) ring.
        std::size_t vnodesPerShard = 64;
        //! Applied to every shard (workers, queue bounds, supervision).
        serve::ServiceOptions shard{};
    };

    //! Fleet-wide introspection: the scalar counters summed, the latency
    //! histograms bucket-merged (then quantiled), the full per-shard
    //! snapshots kept for depth inspection.
    struct RouterStats
    {
        std::size_t queued = 0;
        std::size_t inFlight = 0;
        std::uint64_t admitted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        serve::LatencySnapshot latency;
        serve::LatencyCounts latencyCounts;
        serve::LatencySnapshot queueWait;
        serve::LatencyCounts queueWaitCounts;
        std::vector<serve::ServiceStats> perShard;
    };

    class Router
    {
    public:
        explicit Router(RouterOptions options = {});

        Router(Router const&) = delete;
        auto operator=(Router const&) -> Router& = delete;

        //! Registers \p desc on EVERY shard; the returned id is valid on
        //! all of them (shards lower independently, ids stay in lock
        //! step because registration only happens through here).
        auto registerTemplate(serve::TemplateDesc desc) -> serve::TemplateId;

        //! Routes \p request to its tenant's shard and submits there.
        //! \throws ShardBusyError when that shard's bounded queue is
        //! full — other shards are unaffected (invariant 22).
        auto submit(serve::Request const& request) -> serve::Future;

        //! Span admission (serve::Service::submit over a span, per
        //! shard): each run of consecutive requests bound for one shard
        //! is admitted there in one call, so order within a shard is
        //! kept and a caller that sorts its span by shard (FrontDoor
        //! does) pays one call per shard. A run of same-tenant requests
        //! hashes its tenant once. A request refused for space carries
        //! ShardBusyError; submit(request) is the span of one.
        void submit(std::span<serve::Request const> requests, std::span<serve::Admission> out);

        //! The shard \p tenant's requests land on (stable for the
        //! router's lifetime — invariant 21).
        [[nodiscard]] auto shardOf(std::string_view tenant) const noexcept -> std::size_t
        {
            return ring_.shardOf(tenant);
        }

        [[nodiscard]] auto shardCount() const noexcept -> std::size_t
        {
            return shards_.size();
        }
        //! Direct shard access (tests, per-shard templates).
        [[nodiscard]] auto shard(std::size_t i) -> serve::Service&
        {
            return *shards_[i];
        }

        //! Blocks until every shard is idle.
        void drain();

        //! Bounded drain of the fleet, one report per shard (same
        //! contract as serve::Service::shutdown, per shard).
        auto shutdown(std::chrono::nanoseconds timeout = std::chrono::seconds(5))
            -> std::vector<serve::ShutdownReport>;

        [[nodiscard]] auto stats() const -> RouterStats;

    private:
        HashRing ring_;
        std::vector<std::unique_ptr<serve::Service>> shards_;
    };
} // namespace alpaka::net
