/// \file Registry storage, merge semantics, text exposition, and the
/// per-layer stats absorbers (DESIGN.md §10.4).

#include "obs/registry.hpp"

#include "alpaka/core/fault.hpp"
#include "alpaka/core/trace.hpp"
#include "mempool/pool.hpp"
#include "net/front_door.hpp"
#include "threadpool/thread_pool.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace alpaka::obs
{
    auto Registry::upsert(std::string_view name, std::string_view labels, MetricKind kind) -> Sample&
    {
        for(auto& s : samples_)
            if(s.kind == kind && s.name == name && s.labels == labels)
                return s;
        auto& s = samples_.emplace_back();
        s.name = std::string(name);
        s.labels = std::string(labels);
        s.kind = kind;
        return s;
    }

    void Registry::counter(std::string_view name, double v, std::string_view labels)
    {
        upsert(name, labels, MetricKind::Counter).value += v;
    }

    void Registry::gauge(std::string_view name, double v, std::string_view labels)
    {
        upsert(name, labels, MetricKind::Gauge).value = v;
    }

    void Registry::histogram(std::string_view name, serve::LatencyCounts const& h, std::string_view labels)
    {
        upsert(name, labels, MetricKind::Histogram).hist.merge(h);
    }

    auto Registry::merge(Registry const& other) -> Registry&
    {
        for(auto const& s : other.samples_)
        {
            auto& mine = upsert(s.name, s.labels, s.kind);
            switch(s.kind)
            {
            case MetricKind::Counter:
            case MetricKind::Gauge:
                // Gauges sum too: merging registries means merging
                // fleets, and levels (queue depth, bytes held) add up
                // across members.
                mine.value += s.value;
                break;
            case MetricKind::Histogram:
                mine.hist.merge(s.hist);
                break;
            }
        }
        return *this;
    }

    auto Registry::find(std::string_view name, std::string_view labels) const noexcept -> Sample const*
    {
        for(auto const& s : samples_)
            if(s.name == name && s.labels == labels)
                return &s;
        return nullptr;
    }

    auto Registry::value(std::string_view name, std::string_view labels) const noexcept -> double
    {
        auto const* const s = find(name, labels);
        if(s == nullptr)
            return 0.0;
        return s->kind == MetricKind::Histogram ? double(s->hist.total()) : s->value;
    }

    namespace
    {
        void appendValue(std::string& out, double v)
        {
            char buf[64];
            if(std::nearbyint(v) == v && std::fabs(v) < 9.0e15)
                std::snprintf(buf, sizeof(buf), "%" PRId64, std::int64_t(v));
            else
                std::snprintf(buf, sizeof(buf), "%.6g", v);
            out += buf;
        }

        //! Prometheus label-value escaping: backslash, double quote and
        //! newline must travel escaped inside the quoted value.
        void appendEscaped(std::string& out, std::string_view v)
        {
            for(char const c : v)
            {
                switch(c)
                {
                case '\\':
                    out += "\\\\";
                    break;
                case '"':
                    out += "\\\"";
                    break;
                case '\n':
                    out += "\\n";
                    break;
                default:
                    out += c;
                }
            }
        }

        //! Renders the registry's pre-rendered "k=v,k2=v2" label set in
        //! exposition form: {k="v",k2="v2"}, values escaped. Label
        //! VALUES must not contain ',' or '=' — the registry's label
        //! keys are code-chosen (shard, dev, err), not user data.
        void appendLabels(std::string& out, std::string_view labels)
        {
            if(labels.empty())
                return;
            out += '{';
            std::size_t pos = 0;
            bool first = true;
            while(pos <= labels.size())
            {
                auto comma = labels.find(',', pos);
                if(comma == std::string_view::npos)
                    comma = labels.size();
                auto const pair = labels.substr(pos, comma - pos);
                auto const eq = pair.find('=');
                if(!first)
                    out += ',';
                first = false;
                out += pair.substr(0, eq);
                out += "=\"";
                if(eq != std::string_view::npos)
                    appendEscaped(out, pair.substr(eq + 1));
                out += '"';
                pos = comma + 1;
            }
            out += '}';
        }

        void appendSample(std::string& out, std::string_view family, std::string_view labels, double v)
        {
            out += family;
            appendLabels(out, labels);
            out += ' ';
            appendValue(out, v);
            out += '\n';
        }
    } // namespace

    auto Registry::exposition() const -> std::string
    {
        std::string out;
        // Families whose `# TYPE` line is already out — emitted once per
        // family no matter how sample names interleave (conformance:
        // duplicate TYPE lines are invalid exposition).
        std::vector<std::string> typed;
        auto const typeLine = [&](std::string const& family, char const* kind)
        {
            for(auto const& f : typed)
                if(f == family)
                    return;
            typed.push_back(family);
            out += "# TYPE ";
            out += family;
            out += ' ';
            out += kind;
            out += '\n';
        };
        for(auto const& s : samples_)
        {
            switch(s.kind)
            {
            case MetricKind::Counter:
            {
                // Conformance: counter families carry the _total suffix.
                auto const family = s.name + "_total";
                typeLine(family, "counter");
                appendSample(out, family, s.labels, s.value);
                break;
            }
            case MetricKind::Gauge:
                typeLine(s.name, "gauge");
                appendSample(out, s.name, s.labels, s.value);
                break;
            case MetricKind::Histogram:
            {
                // Log2-bucket histograms export their derived quantiles:
                // a monotonic _count plus p50/p99/max gauges (the raw
                // buckets stay an in-process merge artifact). _count
                // follows the histogram convention — no _total.
                auto const snap = s.hist.snapshot();
                auto const emit = [&](char const* suffix, char const* kind, double v)
                {
                    auto const family = s.name + suffix;
                    typeLine(family, kind);
                    appendSample(out, family, s.labels, v);
                };
                emit("_count", "counter", double(snap.count));
                emit("_p50_us", "gauge", snap.p50Us);
                emit("_p99_us", "gauge", snap.p99Us);
                emit("_max_us", "gauge", snap.maxUs);
                break;
            }
            }
        }
        return out;
    }

    namespace
    {
        //! Device pools carry their own label dimension; a caller label
        //! (e.g. shard) composes in front.
        void collectDevicePool(Registry& reg, serve::DevicePoolStats const& pool, std::string_view labels)
        {
            std::string poolLabels(labels);
            if(!poolLabels.empty())
                poolLabels += ',';
            poolLabels += "dev=";
            poolLabels += pool.device;
            collect(reg, pool.pool, poolLabels);
        }

        //! Every ServiceStats sample but the device pools.
        void collectService(Registry& reg, serve::ServiceStats const& s, std::string_view labels)
        {
            reg.gauge("serve_queued", double(s.queued), labels);
            reg.gauge("serve_in_flight", double(s.inFlight), labels);
            reg.counter("serve_admitted", double(s.admitted), labels);
            reg.counter("serve_rejected", double(s.rejected), labels);
            reg.counter("serve_completed", double(s.completed), labels);
            reg.counter("serve_failed", double(s.failed), labels);
            reg.counter("serve_batches", double(s.batches), labels);
            reg.counter("serve_shed_expired", double(s.shedExpired), labels);
            reg.counter("serve_shed_cancelled", double(s.shedCancelled), labels);
            reg.counter("serve_shed_overload", double(s.shedOverload), labels);
            reg.counter("serve_workers_lost", double(s.workersLost), labels);
            reg.counter("serve_worker_restarts", double(s.workerRestarts), labels);
            reg.histogram("serve_latency", s.latencyCounts, labels);
            reg.histogram("serve_queue_wait", s.queueWaitCounts, labels);
        }
    } // namespace

    void collect(Registry& reg, serve::ServiceStats const& s, std::string_view labels)
    {
        collectService(reg, s, labels);
        for(auto const& pool : s.devicePools)
            collectDevicePool(reg, pool, labels);
    }

    void collect(Registry& reg, mempool::PoolStats const& s, std::string_view labels)
    {
        reg.gauge("mempool_bytes_held", double(s.bytesHeld), labels);
        reg.gauge("mempool_bytes_in_use", double(s.bytesInUse), labels);
        reg.gauge("mempool_high_water_bytes", double(s.highWaterBytes), labels);
        reg.gauge("mempool_blocks_cached", double(s.blocksCached), labels);
        reg.counter("mempool_cache_hits", double(s.cacheHits), labels);
        reg.counter("mempool_cache_misses", double(s.cacheMisses), labels);
    }

    void collect(Registry& reg, net::FrontDoorStats const& s, std::string_view labels)
    {
        reg.counter("net_connections_accepted", double(s.connectionsAccepted), labels);
        reg.counter("net_connections_closed", double(s.connectionsClosed), labels);
        reg.counter("net_frames_in", double(s.framesIn), labels);
        reg.counter("net_frames_out", double(s.framesOut), labels);
        reg.counter("net_requests_submitted", double(s.requestsSubmitted), labels);
        reg.counter("net_responses_ok", double(s.responsesOk), labels);
        reg.counter("net_responses_error", double(s.responsesError), labels);
        reg.counter("net_admission_rejected", double(s.admissionRejected), labels);
        reg.counter("net_rx_stalls", double(s.rxStalls), labels);
        reg.counter("net_polls_delayed", double(s.pollsDelayed), labels);
        reg.counter("net_frames_dropped", double(s.framesDropped), labels);
        reg.counter("net_frames_duplicated", double(s.framesDuplicated), labels);
        reg.counter("net_frames_truncated", double(s.framesTruncated), labels);
        reg.counter("net_admin_requests", double(s.adminRequests), labels);
        reg.counter("net_admin_chunks", double(s.adminChunks), labels);
        for(std::size_t i = 0; i < s.decodeErrors.size(); ++i)
        {
            if(s.decodeErrors[i] == 0)
                continue;
            std::string errLabels(labels);
            if(!errLabels.empty())
                errLabels += ',';
            errLabels += "err=";
            errLabels += std::to_string(i);
            reg.counter("net_decode_errors", double(s.decodeErrors[i]), errLabels);
        }
    }

    void collect(Registry& reg, std::span<serve::ServiceStats const> shards)
    {
        // The fleet view IS the merge: absorbing every shard's stats
        // unlabeled makes counters sum and histograms bucket-merge by
        // the registry's own semantics (pinned by test_registry).
        reg.gauge("router_shards", double(shards.size()));
        // Two exceptions. The queue gauges are levels per shard, so the
        // fleet's level is their sum, not the last shard's. And shards
        // share device pools (every CPU shard allocates from the one
        // mempool::Pool::forDev(DevCpu)), so each distinct device is
        // collected once — summing its counters per shard would count
        // the same pool once per shard.
        double queued = 0.0;
        double inFlight = 0.0;
        std::vector<std::string_view> devices;
        for(auto const& shard : shards)
        {
            queued += double(shard.queued);
            inFlight += double(shard.inFlight);
            collectService(reg, shard, {});
            for(auto const& pool : shard.devicePools)
            {
                if(std::find(devices.begin(), devices.end(), pool.device) != devices.end())
                    continue;
                devices.push_back(pool.device);
                collectDevicePool(reg, pool, {});
            }
        }
        reg.gauge("serve_queued", queued);
        reg.gauge("serve_in_flight", inFlight);
    }

    void collect(Registry& reg, threadpool::PoolCounters const& s, std::string_view labels)
    {
        reg.counter("threadpool_parks", double(s.parks), labels);
        reg.counter("threadpool_steals", double(s.steals), labels);
        reg.counter("threadpool_jobs", double(s.jobs), labels);
    }

    void collectTrace(Registry& reg)
    {
        reg.counter("trace_events_recorded", double(trace::recordedTotal()));
        reg.counter("trace_events_dropped", double(trace::droppedTotal()));
        reg.counter("trace_table_full_drops", double(trace::tableFullDrops()));
        reg.gauge("trace_threads", double(trace::threadCount()));
        reg.gauge("trace_sites", double(trace::siteCount()));
        reg.gauge("trace_compiled_in", trace::compiledIn() ? 1.0 : 0.0);
    }

    void collectFault(Registry& reg)
    {
        reg.counter("fault_hits", double(fault::totalHits()));
        reg.counter("fault_fires", double(fault::totalFires()));
    }
} // namespace alpaka::obs
