/// \file net::Router — tenant-affine sharding over serve::Service
/// (DESIGN.md §9.3).
///
/// One serve::Service already multiplexes tenants fairly, but all its
/// tenants share one scheduling mutex (admission included), one latency
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
///  * stats() returns one snapshot per shard; the fleet totals are the
///    obs::Registry merge of them (obs::collect), which sums counters
///    and merges latency buckets — quantiles of quantiles are
///    meaningless, bucket sums are exact (serve/latency.hpp).
///
/// Templates are registered through the router so every shard lowers
/// the same id; shutdown drains every shard with the same bounded-drain
/// contract as one service, reported per shard.
#pragma once

#include "serve/service.hpp"
#include "serve/types.hpp"

#include "alpaka/core/hash.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
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

    //! The ring's hash of a tenant name (and of its vnode names):
    //! FNV-1a finalized by mix64 (alpaka/core/hash.hpp). Public because
    //! the affinity tests re-derive placements offline.
    [[nodiscard]] constexpr auto ringHash(std::string_view s) noexcept -> std::uint64_t
    {
        return core::mix64(core::fnv1a(s));
    }

    //! Consistent-hash ring with virtual nodes: shard i contributes
    //! `vnodes` (64) points ringHash("shard/<i>/<v>"); a key is owned by the
    //! first point clockwise from its hash. Built once (sorted vector),
    //! lookups are lock-free binary searches — the submit hot path
    //! allocates nothing.
    class HashRing
    {
    public:
        static constexpr std::size_t vnodes = 64;

        explicit HashRing(std::size_t shards);

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
        //! Applied to every shard (workers, queue bounds, supervision).
        serve::ServiceOptions shard{};
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
        //! full — other shards are unaffected (invariant 22). (The front
        //! door posts to its connection's shard directly: shard(i).post.)
        auto submit(serve::Request const& request) -> serve::Future;

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

        //! One snapshot per shard, in shard order. Fleet totals are the
        //! registry merge: obs::collect(reg, router.stats()).
        [[nodiscard]] auto stats() const -> std::vector<serve::ServiceStats>;

    private:
        HashRing ring_;
        std::vector<std::unique_ptr<serve::Service>> shards_;
    };
} // namespace alpaka::net
