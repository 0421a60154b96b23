/// \file net::Router implementation (see net/router.hpp).

#include "net/router.hpp"

#include "alpaka/core/error.hpp"
#include "alpaka/core/trace.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>

namespace alpaka::net
{
    HashRing::HashRing(std::size_t shards) : shards_(shards)
    {
        if(shards == 0)
            throw UsageError("net::HashRing: shards must be >= 1");
        ring_.reserve(shards * vnodes);
        for(std::size_t s = 0; s < shards; ++s)
        {
            for(std::size_t v = 0; v < vnodes; ++v)
            {
                // ringHash("shard/<s>/<v>") without allocating: feed
                // the pieces through FNV's running state, then mix.
                std::array<char, 24> num{};
                auto h = core::fnv1a("shard/");
                auto* end = std::to_chars(num.data(), num.data() + num.size(), s).ptr;
                h = core::fnv1a({num.data(), static_cast<std::size_t>(end - num.data())}, h);
                h = core::fnv1a("/", h);
                end = std::to_chars(num.data(), num.data() + num.size(), v).ptr;
                h = core::fnv1a({num.data(), static_cast<std::size_t>(end - num.data())}, h);
                ring_.push_back(Point{core::mix64(h), static_cast<std::uint32_t>(s)});
            }
        }
        std::sort(
            ring_.begin(),
            ring_.end(),
            [](Point const& a, Point const& b)
            { return a.hash < b.hash || (a.hash == b.hash && a.shard < b.shard); });
    }

    auto HashRing::shardOf(std::uint64_t keyHash) const noexcept -> std::size_t
    {
        // First point clockwise from the key; wrap to the first point.
        auto const it = std::lower_bound(
            ring_.begin(),
            ring_.end(),
            keyHash,
            [](Point const& p, std::uint64_t h) { return p.hash < h; });
        return it != ring_.end() ? it->shard : ring_.front().shard;
    }

    Router::Router(RouterOptions options) : ring_(options.shards)
    {
        shards_.reserve(options.shards);
        for(std::size_t s = 0; s < options.shards; ++s)
            shards_.push_back(std::make_unique<serve::Service>(options.shard));
    }

    auto Router::registerTemplate(serve::TemplateDesc desc) -> serve::TemplateId
    {
        auto const id = shards_.front()->registerTemplate(desc);
        for(std::size_t s = 1; s < shards_.size(); ++s)
        {
            if(shards_[s]->registerTemplate(desc) != id)
                throw UsageError("net::Router: shard template ids diverged (register only through the router)");
        }
        return id;
    }

    auto Router::submit(serve::Request const& request) -> serve::Future
    {
        auto const shard = ring_.shardOf(request.tenant);
        if(request.traceId != 0)
            ALPAKA_TRACE_INSTANT("net.shard_route", request.traceId);
        try
        {
            return shards_[shard]->submit(request);
        }
        catch(serve::AdmissionError const& e)
        {
            // A shard's refusal for space, typed with the shard
            // (invariant 22).
            throw ShardBusyError(shard, e.what());
        }
    }

    void Router::drain()
    {
        for(auto& shard : shards_)
            shard->drain();
    }

    auto Router::shutdown(std::chrono::nanoseconds timeout) -> std::vector<serve::ShutdownReport>
    {
        std::vector<serve::ShutdownReport> reports;
        reports.reserve(shards_.size());
        for(auto& shard : shards_)
            reports.push_back(shard->shutdown(timeout));
        return reports;
    }

    auto Router::stats() const -> std::vector<serve::ServiceStats>
    {
        std::vector<serve::ServiceStats> out;
        out.reserve(shards_.size());
        for(auto const& shard : shards_)
            out.push_back(shard->stats());
        return out;
    }
} // namespace alpaka::net
