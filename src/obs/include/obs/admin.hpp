/// \file obs::AdminPlane — the concrete back end of the in-band admin
/// protocol (DESIGN.md §11.3).
///
/// net::FrontDoor speaks the admin frame family but delegates content
/// through net::AdminProvider (obs sits above net in the library graph).
/// The plane is that provider over a live Router fleet:
///
///   MetricsScrape → a fresh per-shard-labeled registry snapshot,
///     rendered as Prometheus text exposition;
///   HealthCheck   → one HealthModel evaluation tick on that snapshot,
///     rendered one component per line (fleet first — the Router's
///     merged fleet health);
///   StatsSnapshot → window rates (req/s, sheds/s, drops/s) derived by
///     the plane's RateWindow from consecutive snapshots, plus the
///     window span, shard count and snapshot ordinal;
///   TraceControl  → trace::setEnabled for Enable/Disable; Capture
///     drains the bounded collector and replies with the Chrome/
///     Perfetto JSON of everything captured since the previous Capture.
///
/// Every handler allocates freely — the plane is the part of the stack
/// that is DELIBERATELY off the tenant hot path. Thread contract: the
/// door calls handleAdmin on its poll thread; the in-process accessors
/// (scrape/health/shutdown) may be called from elsewhere, so the plane
/// serializes itself with one mutex.
#pragma once

#include "net/admin.hpp"
#include "net/router.hpp"

#include "obs/collector.hpp"
#include "obs/health.hpp"
#include "obs/registry.hpp"

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace alpaka::obs
{
    struct AdminPlaneOptions
    {
        HealthThresholds thresholds{};
    };

    class AdminPlane : public net::AdminProvider
    {
    public:
        using Options = AdminPlaneOptions;

        //! \p router must outlive the plane. When the router's shards
        //! declare a queue-wait SLO budget (ServiceOptions::
        //! queueWaitBudget) and the thresholds don't override it, the
        //! health model adopts the shards' budget.
        explicit AdminPlane(net::Router& router, Options options = {});

        //! The wire entry point (net::AdminProvider).
        auto handleAdmin(net::FrameType type, std::uint32_t op, std::string& body) -> net::Status override;

        //! Fresh per-shard-labeled registry snapshot — exactly what a
        //! MetricsScrape serializes. \p t timestamps the snapshot for
        //! window algebra (in-process callers pass their own clock).
        auto scrape() -> Registry;
        //! One health evaluation tick on a fresh snapshot.
        auto health(std::chrono::steady_clock::time_point t = std::chrono::steady_clock::now()) -> HealthReport;

        [[nodiscard]] auto collector() noexcept -> Collector&
        {
            return collector_;
        }

        //! The resolved thresholds the health model runs with (after
        //! shard SLO-budget adoption).
        [[nodiscard]] auto thresholds() const noexcept -> HealthThresholds const&
        {
            return thresholds_;
        }

        //! Bounded fleet shutdown with the final trace flush the rings
        //! owe their events to (satellite: drainAll on router shutdown):
        //! shuts every shard down, then drains the collector until dry.
        auto shutdown(std::chrono::nanoseconds timeout = std::chrono::seconds(5))
            -> std::vector<serve::ShutdownReport>;

    private:
        auto scrapeLocked() -> Registry;

        net::Router& router_;
        HealthThresholds thresholds_;
        HealthModel model_;
        RateWindow window_; //!< StatsSnapshot's own rate window
        //! Capped at 1 << 20 events: a live Capture stream is bounded no
        //! matter how long tracing ran between drains.
        Collector collector_{std::size_t{1} << 20};
        std::uint64_t snapshots_ = 0;
        std::mutex mutex_;
    };
} // namespace alpaka::obs
