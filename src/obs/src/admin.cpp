/// \file Admin-plane request handling (DESIGN.md §11.3).

#include "obs/admin.hpp"

#include "obs/trace_json.hpp"

#include "alpaka/core/trace.hpp"

#include <cstdio>
#include <sstream>
#include <string>

namespace alpaka::obs
{
    namespace
    {
        void appendKv(std::string& out, char const* key, double v)
        {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.3f", v);
            out += key;
            out += ' ';
            out += buf;
            out += '\n';
        }

        void appendKv(std::string& out, char const* key, std::uint64_t v)
        {
            out += key;
            out += ' ';
            out += std::to_string(v);
            out += '\n';
        }

        //! The fleet's declared queue-wait SLO wins over the threshold
        //! default (but never over an explicit caller override).
        auto resolveThresholds(net::Router& router, HealthThresholds t) -> HealthThresholds
        {
            if(t.queueWaitBudgetUs == HealthThresholds{}.queueWaitBudgetUs && router.shardCount() != 0)
            {
                auto const declared = router.shard(0).stats().queueWaitBudgetUs;
                if(declared != 0)
                    t.queueWaitBudgetUs = declared;
            }
            return t;
        }
    } // namespace

    AdminPlane::AdminPlane(net::Router& router, Options options)
        : router_(router)
        , thresholds_(resolveThresholds(router, options.thresholds))
        , model_(thresholds_)
    {
    }

    auto AdminPlane::scrapeLocked() -> Registry
    {
        Registry reg;
        auto const shards = router_.stats();
        reg.gauge("router_shards", double(shards.size()));
        for(std::size_t i = 0; i < shards.size(); ++i)
            collect(reg, shards[i], "shard=" + std::to_string(i));
        collectTrace(reg);
        collectFault(reg);
        return reg;
    }

    auto AdminPlane::scrape() -> Registry
    {
        std::lock_guard lock(mutex_);
        return scrapeLocked();
    }

    auto AdminPlane::health(std::chrono::steady_clock::time_point t) -> HealthReport
    {
        std::lock_guard lock(mutex_);
        return model_.evaluate(scrapeLocked(), t);
    }

    auto AdminPlane::handleAdmin(net::FrameType type, std::uint32_t op, std::string& body) -> net::Status
    {
        std::lock_guard lock(mutex_);
        switch(type)
        {
        case net::FrameType::MetricsScrape:
            body = scrapeLocked().exposition();
            return net::Status::Ok;
        case net::FrameType::HealthCheck:
            body = model_.evaluate(scrapeLocked(), std::chrono::steady_clock::now()).text();
            return net::Status::Ok;
        case net::FrameType::StatsSnapshot:
        {
            window_.push(scrapeLocked(), std::chrono::steady_clock::now());
            ++snapshots_;
            auto const span = window_.seconds();
            body.clear();
            appendKv(body, "snapshot", snapshots_);
            appendKv(body, "shards", std::uint64_t(router_.shardCount()));
            appendKv(body, "window_s", span);
            auto const rate = [&](double delta) { return span > 0.0 ? delta / span : 0.0; };
            appendKv(body, "req_per_s", rate(window_.sumDelta("serve_completed")));
            appendKv(
                body,
                "sheds_per_s",
                rate(window_.sumDelta("serve_shed_expired") + window_.sumDelta("serve_shed_overload")
                     + window_.sumDelta("serve_shed_cancelled")));
            appendKv(body, "drops_per_s", rate(window_.sumDelta("trace_events_dropped")));
            return net::Status::Ok;
        }
        case net::FrameType::TraceControl:
            switch(static_cast<net::TraceOp>(op))
            {
            case net::TraceOp::Disable:
            case net::TraceOp::Enable:
            {
                trace::setEnabled(op == static_cast<std::uint32_t>(net::TraceOp::Enable));
                body.clear();
                appendKv(body, "trace_enabled", std::uint64_t(trace::enabled() ? 1 : 0));
                appendKv(body, "trace_compiled_in", std::uint64_t(trace::compiledIn() ? 1 : 0));
                return net::Status::Ok;
            }
            case net::TraceOp::Capture:
            {
                // Everything recorded since the previous Capture: drain,
                // serialize, clear — repeated captures stream the fleet's
                // trace in bounded installments.
                collector_.poll();
                std::ostringstream json;
                writeChromeTrace(json, std::span<trace::Event const>(collector_.events()));
                collector_.clear();
                body = std::move(json).str();
                return net::Status::Ok;
            }
            }
            body.clear();
            return net::Status::BadRequest;
        default:
            // Non-admin types never reach a provider (the door
            // validates), but a typed refusal beats silence.
            body.clear();
            return net::Status::BadRequest;
        }
    }

    auto AdminPlane::shutdown(std::chrono::nanoseconds timeout) -> std::vector<serve::ShutdownReport>
    {
        auto reports = router_.shutdown(timeout);
        // The final flush the satellite demands: with the shards joined,
        // one dry drain empties every ring — nothing recorded before
        // shutdown is stranded.
        std::lock_guard lock(mutex_);
        collector_.drainAll();
        return reports;
    }
} // namespace alpaka::obs
