/// \file The load generator: one thread drives every connection (lane)
/// of a fleet — and, on the wire path, polls the front door between
/// passes over them — through a backend: the full wire path, Router::submit,
/// Service::submit, or the template's work called in-thread — in a closed
/// loop (fixed in-flight window per lane) or an open loop (seeded Poisson
/// arrivals, latency timed from each request's due time). Every response
/// is verified; a request unresolved past stallTimeout ends the phase as
/// stranded.
#pragma once

#include "fleet.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace layerbench
{
    //! Per-lane request ring: a lane may run at most this far ahead of its
    //! oldest unresolved request.
    inline constexpr std::size_t ringSize = 1024;
    //! A request unresolved this long is stranded: the phase ends.
    inline constexpr std::int64_t stallTimeoutNs = 1'000'000'000;
    inline constexpr std::int64_t watchdogEveryNs = 5'000'000;
    //! Sub-window of the measured interval: the gated figures are medians
    //! over sub-windows, so a burst of host noise moves at most a few.
    inline constexpr std::int64_t windowNs = 500'000'000;

    struct Slot
    {
        std::uint64_t seq = 0;
        std::uint64_t input = 0;
        std::int64_t sentNs = 0;
        std::int64_t dueNs = 0;
        bool busy = false; //!< generator-owned: submitted, not yet resolved
        bool measured = false;
        //! Future-based backends: 0 pending, 1 ok, 2 failed (written by the
        //! completion continuation, release; read by the generator, acquire).
        std::atomic<std::uint8_t> done{0};
        alignas(8) std::array<std::byte, payloadBytes> payload{};
    };

    struct Lane
    {
        std::size_t index = 0;
        std::vector<Slot> ring = std::vector<Slot>(ringSize);
        //! Next sequence number; equals the wire client's next request id.
        std::uint64_t next = 1;
        //! Oldest sequence number that may still be unresolved.
        std::uint64_t tail = 1;
        std::size_t outstanding = 0;
        //! Closed loop: when a response first freed a window slot since the
        //! lane last submitted (-1 = none); the next submit is due then.
        std::int64_t freedNs = -1;
        //! Open loop: due times not yet submitted (ring of backlogCap).
        std::vector<std::int64_t> backlog;
        std::size_t backlogHead = 0;
        std::size_t backlogTail = 0;
    };

    inline constexpr std::size_t backlogCap = std::size_t{1} << 17;

    //! Lanes outlive every phase of one backend: a stranded request's
    //! continuation may still write its slot until the fleet shuts down.
    struct LaneSet
    {
        std::vector<Lane> lanes;

        LaneSet() : lanes(connections)
        {
            for(std::size_t i = 0; i < connections; ++i)
            {
                lanes[i].index = i;
                lanes[i].backlog.resize(backlogCap);
            }
        }
    };

    [[nodiscard]] inline auto inputOf(std::uint64_t seed, std::size_t lane, std::uint64_t seq) noexcept
        -> std::uint64_t
    {
        return splitmix(seed ^ (static_cast<std::uint64_t>(lane) << 56) ^ splitmix(seq));
    }

    inline void encode(Spec const& spec, std::uint64_t input, std::byte* out) noexcept
    {
        if(spec.gemm)
        {
            GemmPayload const p{input % gemmKeys, 0.0};
            std::memcpy(out, &p, sizeof(p));
        }
        else
        {
            ScalePayload const p{static_cast<double>(input % (std::uint64_t{1} << 20)), 0.0};
            std::memcpy(out, &p, sizeof(p));
        }
    }

    //! The response check: out = 2 * in + 1 exactly, or the DGEMM checksum
    //! against the reference precomputed for the request's key.
    [[nodiscard]] inline auto verify(
        Spec const& spec,
        GemmData const& data,
        std::uint64_t input,
        std::byte const* bytes,
        std::size_t len) noexcept -> bool
    {
        if(len != payloadBytes)
            return false;
        if(spec.gemm)
        {
            GemmPayload p;
            std::memcpy(&p, bytes, sizeof(p));
            auto const key = input % gemmKeys;
            auto const ref = data.ref[key];
            return p.key == key && std::abs(p.checksum - ref) <= 1e-9 * std::max(1.0, std::abs(ref));
        }
        ScalePayload p;
        std::memcpy(&p, bytes, sizeof(p));
        auto const in = static_cast<double>(input % (std::uint64_t{1} << 20));
        return p.in == in && p.out == 2.0 * in + 1.0;
    }

    //! Front-door polls made by the generator thread; with timing (traced
    //! phases), each poll is split into busy (progress) and idle passes.
    struct DoorPolls
    {
        std::uint64_t busyNs = 0;
        std::uint64_t busy = 0;
        std::uint64_t idle = 0;
    };

    //! The full wire path: one net::Client per lane, the front door polled
    //! once per pass of the generator over the lanes.
    class WireBackend
    {
    public:
        //! One per fleet: lane sequence numbers track the clients' request
        //! ids, which continue across phases.
        explicit WireBackend(Fleet& fleet) : fleet_(fleet)
        {
        }

        [[nodiscard]] auto lanes() -> LaneSet&
        {
            return lanes_;
        }

        auto submit(Lane& lane, Slot& slot) -> bool
        {
            auto const id = fleet_.clients[lane.index]->trySubmit(fleet_.tmpl, slot.payload.data(), payloadBytes);
            if(id == 0)
                return false;
            if(id != slot.seq)
                throw std::logic_error("layerbench: wire request id out of step with the lane");
            return true;
        }

        template<typename F>
        auto poll(Lane& lane, F&& onDone) -> bool
        {
            return fleet_.clients[lane.index]->poll(
                [&](net::Client<WireCfg>::Response const& r)
                { onDone(lane, r.reqId, r.status == net::Status::Ok, r.payload, r.payloadLen); });
        }

        template<bool Traced>
        void pump()
        {
            auto const t0 = Clock::now();
            bool const progress = fleet_.door.poll(t0);
            if constexpr(Traced)
            {
                if(progress)
                {
                    door.busyNs += static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
                    ++door.busy;
                }
                else
                    ++door.idle;
            }
        }

        //! Counted by traced phases only.
        DoorPolls door;

    private:
        Fleet& fleet_;
        LaneSet lanes_;
    };

    //! Shared completion scan of the backends that resolve through a slot's
    //! done flag.
    template<typename F>
    auto pollSlots(Lane& lane, F&& onDone) -> bool
    {
        bool progress = false;
        for(auto seq = lane.tail; seq < lane.next; ++seq)
        {
            auto& s = lane.ring[seq % ringSize];
            if(!s.busy || s.seq != seq)
                continue;
            auto const d = s.done.load(std::memory_order_acquire);
            if(d == 0)
                continue;
            onDone(lane, seq, d == 1, s.payload.data(), payloadBytes);
            progress = true;
        }
        return progress;
    }

    //! Router::submit (or, without \p viaRouter, Service::submit on the
    //! tenant's shard) plus a future continuation — the completion path the front
    //! door uses, minus the wire.
    class FutureBackend
    {
    public:
        FutureBackend(Fleet& fleet, bool viaRouter) : fleet_(fleet), viaRouter_(viaRouter)
        {
            for(auto const& tenant : fleet.tenants)
                shardOfLane_.push_back(fleet.router.shardOf(tenant));
        }

        [[nodiscard]] auto lanes() -> LaneSet&
        {
            return lanes_;
        }

        auto submit(Lane& lane, Slot& slot) -> bool
        {
            slot.done.store(0, std::memory_order_relaxed);
            serve::Request req;
            req.tmpl = fleet_.tmpl;
            req.tenant = fleet_.tenants[lane.index];
            req.payload = serve::PayloadView(slot.payload.data(), payloadBytes);
            try
            {
                auto const future = viaRouter_ ? fleet_.router.submit(req)
                                               : fleet_.router.shard(shardOfLane_[lane.index]).submit(req);
                future.then([s = &slot](std::exception_ptr e) noexcept
                            { s->done.store(e == nullptr ? 1 : 2, std::memory_order_release); });
            }
            catch(serve::AdmissionError const&)
            {
                slot.done.store(2, std::memory_order_relaxed);
            }
            return true;
        }

        template<typename F>
        auto poll(Lane& lane, F&& onDone) -> bool
        {
            return pollSlots(lane, onDone);
        }

        template<bool Traced>
        void pump()
        {
        }

    private:
        Fleet& fleet_;
        bool viaRouter_;
        std::vector<std::size_t> shardOfLane_;
        LaneSet lanes_;
    };

    //! The template's work called in the generator thread: the kernel body
    //! for the scale template, one replay of the gemm DAG (built by the
    //! same builder, on the fleet's pool) for a batch of one.
    class DirectBackend
    {
    public:
        DirectBackend(Fleet& fleet, GemmData const& data)
            : gemm_(fleet.spec.gemm)
            , scratch_(data.n * data.n)
            , stream_(dev::PltfCpu::getDevByIdx(0))
        {
            if(gemm_)
                exec_ = std::make_unique<graph::Exec>(
                    buildGemmGraph(stream_.getDev(), &cell_, data, fleet.spec.maxBatch, false),
                    fleet.pool);
        }

        [[nodiscard]] auto lanes() -> LaneSet&
        {
            return lanes_;
        }

        auto submit(Lane& /*lane*/, Slot& slot) -> bool
        {
            serve::RequestItem const item{slot.payload.data(), payloadBytes, gemm_ ? scratch_.data() : nullptr};
            std::uint8_t outcome = 1;
            try
            {
                if(gemm_)
                {
                    serve::BatchView const view(&item, 1, scratch_.size() * sizeof(double));
                    cell_ = &view;
                    exec_->replay(stream_);
                    cell_ = nullptr;
                }
                else
                    scaleBody(item);
            }
            catch(...)
            {
                cell_ = nullptr;
                outcome = 2;
            }
            slot.done.store(outcome, std::memory_order_relaxed);
            return true;
        }

        template<typename F>
        auto poll(Lane& lane, F&& onDone) -> bool
        {
            return pollSlots(lane, onDone);
        }

        template<bool Traced>
        void pump()
        {
        }

    private:
        bool gemm_;
        std::vector<double> scratch_;
        stream::StreamCpuSync stream_;
        serve::BatchView const* cell_ = nullptr;
        std::unique_ptr<graph::Exec> exec_;
        LaneSet lanes_;
    };

    struct PhaseConfig
    {
        Spec const& spec;
        GemmData const& data;
        std::uint64_t seed = 0;
        double warmupS = 0.0;
        double measureS = 0.0;
    };

    //! Benchmark-side timing of the generator's calls into the client
    //! layer (traced phases only).
    struct CallTiming
    {
        std::uint64_t submitNs = 0;
        std::uint64_t submits = 0;
        std::uint64_t pollNs = 0;
        std::uint64_t responses = 0;
    };

    struct PhaseResult
    {
        std::vector<std::uint32_t> latencyNs; //!< per verified measured request
        std::vector<std::uint16_t> windowOf; //!< sub-window of each latency sample
        std::size_t windows = 0; //!< sub-windows of the measured interval (up to a stall)
        //! Generator lateness: submit time minus due time (open loop) or
        //! minus the time a response freed the lane's window (closed loop).
        std::vector<std::uint32_t> lateNs;
        std::uint64_t attempted = 0; //!< measured requests submitted
        std::uint64_t verified = 0;
        std::uint64_t statusFailed = 0; //!< refused or resolved with an error
        std::uint64_t mismatched = 0; //!< measured responses failing verification
        std::uint64_t mismatchedAll = 0; //!< any response failing verification
        std::uint64_t stranded = 0; //!< measured requests unresolved at the watchdog
        std::uint64_t strandedAll = 0;
        std::uint64_t unsent = 0; //!< open loop: measured arrivals never submitted
        double measuredS = 0.0;
        bool stalled = false;
        CallTiming timing;

        [[nodiscard]] auto failed() const noexcept -> std::uint64_t
        {
            return statusFailed + mismatched + stranded + unsent;
        }
        [[nodiscard]] auto sampleBytes() const noexcept -> std::size_t
        {
            return latencyNs.size() * (sizeof(std::uint32_t) + sizeof(std::uint16_t))
                   + lateNs.size() * sizeof(std::uint32_t);
        }
    };

    //! Upper median (0 for no values).
    [[nodiscard]] inline auto median(std::vector<double> v) -> double
    {
        if(v.empty())
            return 0.0;
        auto const mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
        std::nth_element(v.begin(), mid, v.end());
        return *mid;
    }

    //! Nearest-rank quantile of \p v (a copy: callers keep their sample
    //! order, which windowOf indexes).
    [[nodiscard]] inline auto quantile(std::vector<std::uint32_t> v, double q) -> double
    {
        if(v.empty())
            return 0.0;
        auto const rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
        auto const k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
        std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
        return static_cast<double>(v[k]);
    }

    //! Exact quantile \p q (ns) of every sub-window that has samples.
    [[nodiscard]] inline auto windowQuantiles(PhaseResult const& res, double q) -> std::vector<double>
    {
        std::vector<std::vector<std::uint32_t>> perWindow(res.windows);
        for(std::size_t i = 0; i < res.latencyNs.size(); ++i)
            if(res.windowOf[i] < perWindow.size())
                perWindow[res.windowOf[i]].push_back(res.latencyNs[i]);
        std::vector<double> qs;
        for(auto& w : perWindow)
            if(!w.empty())
                qs.push_back(quantile(std::move(w), q));
        return qs;
    }

    //! Median over the sub-windows of each one's exact quantile \p q (ns).
    [[nodiscard]] inline auto windowedQuantile(PhaseResult const& res, double q) -> double
    {
        return median(windowQuantiles(res, q));
    }

    //! Verified requests per second of every sub-window.
    [[nodiscard]] inline auto windowRates(PhaseResult const& res) -> std::vector<double>
    {
        std::vector<double> rates(res.windows, 0.0);
        for(auto const w : res.windowOf)
            if(w < rates.size())
                rates[w] += 1e9 / static_cast<double>(windowNs);
        return rates;
    }

    //! Verified requests per second: the median over sub-windows, or the
    //! whole-interval rate when a stall ended the phase inside the first.
    [[nodiscard]] inline auto throughput(PhaseResult const& res) -> double
    {
        if(res.windows == 0)
            return res.measuredS > 0.0 ? static_cast<double>(res.verified) / res.measuredS : 0.0;
        return median(windowRates(res));
    }

    //! Runs one phase: warm-up, then \p cfg.measureS seconds whose
    //! requests are counted, then a drain of what is still in flight.
    //! Requests are measured by send time (closed loop) or due time (open
    //! loop) falling inside the measured window. With \p Traced the calls
    //! into the backend are timed; untraced phases read the clock only to
    //! stamp requests.
    template<bool Traced, typename Backend>
    auto drive(Backend& be, PhaseConfig const& cfg) -> PhaseResult
    {
        auto const& spec = cfg.spec;
        PhaseResult res;
        res.latencyNs.reserve(static_cast<std::size_t>(cfg.measureS * 3e6) + 1024);
        res.windowOf.reserve(res.latencyNs.capacity());
        res.lateNs.reserve(res.latencyNs.capacity());

        auto& lanes = be.lanes().lanes;
        for(auto& lane : lanes)
        {
            lane.tail = lane.next;
            lane.outstanding = 0;
            lane.freedNs = -1;
            lane.backlogHead = lane.backlogTail = 0;
        }

        auto const origin = Clock::now();
        auto const nowNs = [origin] { return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count(); };
        auto const tStart = static_cast<std::int64_t>(cfg.warmupS * 1e9);
        auto const tEnd = tStart + static_cast<std::int64_t>(cfg.measureS * 1e9);

        std::mt19937_64 rng(splitmix(cfg.seed ^ 0x0A11ULL));
        std::exponential_distribution<double> gap(spec.paced ? spec.rate / 1e9 : 1.0);
        double nextDue = spec.paced ? gap(rng) : 0.0;

        auto const onDone = [&](Lane& lane, std::uint64_t seq, bool ok, std::byte const* bytes, std::size_t len)
        {
            auto const t = nowNs();
            if constexpr(Traced)
                ++res.timing.responses;
            auto& s = lane.ring[seq % ringSize];
            if(!s.busy || s.seq != seq)
            {
                ++res.mismatchedAll; // a response nobody is waiting for
                return;
            }
            s.busy = false;
            --lane.outstanding;
            if(lane.freedNs < 0)
                lane.freedNs = t;
            bool const good = ok && verify(spec, cfg.data, s.input, bytes, len);
            if(ok && !good)
                ++res.mismatchedAll;
            if(!s.measured)
                return;
            if(!ok)
                ++res.statusFailed;
            else if(!good)
                ++res.mismatched;
            else
            {
                ++res.verified;
                auto const from = spec.paced ? s.dueNs : s.sentNs;
                res.latencyNs.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(t - from, UINT32_MAX)));
                res.windowOf.push_back(static_cast<std::uint16_t>(((spec.paced ? s.dueNs : s.sentNs) - tStart) / windowNs));
            }
        };

        auto const submitOne = [&](Lane& lane, std::int64_t due) -> bool
        {
            auto& s = lane.ring[lane.next % ringSize];
            if(s.busy)
                return false; // the ring is full behind an unresolved request
            s.seq = lane.next;
            s.input = inputOf(cfg.seed, lane.index, s.seq);
            encode(spec, s.input, s.payload.data());
            auto const t = nowNs();
            auto const stamp = spec.paced ? due : t;
            s.sentNs = t;
            s.dueNs = due;
            s.measured = stamp >= tStart && stamp < tEnd;
            s.busy = true;
            bool accepted = false;
            if constexpr(Traced)
            {
                accepted = be.submit(lane, s);
                auto const t1 = nowNs();
                if(accepted)
                {
                    res.timing.submitNs += static_cast<std::uint64_t>(t1 - t);
                    ++res.timing.submits;
                }
            }
            else
                accepted = be.submit(lane, s);
            if(!accepted)
            {
                s.busy = false;
                return false;
            }
            ++lane.next;
            ++lane.outstanding;
            if(s.measured)
            {
                ++res.attempted;
                res.lateNs.push_back(static_cast<std::uint32_t>(std::clamp<std::int64_t>(t - due, 0, UINT32_MAX)));
            }
            return true;
        };

        bool stopping = false;
        std::int64_t lastCheck = 0;
        std::int64_t stallAt = 0;
        for(;;)
        {
            auto const now = nowNs();
            stopping = stopping || now >= tEnd;
            if(spec.paced)
            {
                while(nextDue <= static_cast<double>(now) && nextDue < static_cast<double>(tEnd))
                {
                    auto& lane = lanes[rng() % connections];
                    if(lane.backlogTail - lane.backlogHead < backlogCap)
                        lane.backlog[lane.backlogTail++ % backlogCap] = static_cast<std::int64_t>(nextDue);
                    else if(nextDue >= static_cast<double>(tStart))
                    {
                        ++res.attempted;
                        ++res.unsent;
                    }
                    nextDue += gap(rng);
                }
            }
            bool idle = true;
            for(auto& lane : lanes)
            {
                if(spec.paced)
                {
                    while(lane.backlogHead != lane.backlogTail && lane.outstanding < spec.window
                          && submitOne(lane, lane.backlog[lane.backlogHead % backlogCap]))
                        ++lane.backlogHead;
                }
                else if(!stopping)
                {
                    while(lane.outstanding < spec.window && submitOne(lane, lane.freedNs >= 0 ? lane.freedNs : now))
                    {
                    }
                    lane.freedNs = -1;
                }
                if constexpr(Traced)
                {
                    auto const t0 = nowNs();
                    be.poll(lane, onDone);
                    res.timing.pollNs += static_cast<std::uint64_t>(nowNs() - t0);
                }
                else
                    be.poll(lane, onDone);
                while(lane.tail < lane.next && !lane.ring[lane.tail % ringSize].busy)
                    ++lane.tail;
                idle = idle && lane.outstanding == 0 && lane.backlogHead == lane.backlogTail;
            }
            be.template pump<Traced>();
            if(stopping && idle && (!spec.paced || nextDue >= static_cast<double>(tEnd)))
                break;
            if(now - lastCheck >= watchdogEveryNs)
            {
                lastCheck = now;
                for(auto const& lane : lanes)
                    if(lane.tail < lane.next && now - lane.ring[lane.tail % ringSize].sentNs > stallTimeoutNs)
                        res.stalled = true;
                if(res.stalled)
                {
                    stallAt = now;
                    break;
                }
            }
        }

        res.measuredS = cfg.measureS;
        res.windows = static_cast<std::size_t>((tEnd - tStart + windowNs - 1) / windowNs);
        if(res.stalled)
        {
            res.measuredS = std::clamp(static_cast<double>(stallAt - tStart) / 1e9, 1e-3, cfg.measureS);
            res.windows = static_cast<std::size_t>(std::max<std::int64_t>(0, stallAt - tStart) / windowNs);
            for(auto& lane : lanes)
            {
                for(auto seq = lane.tail; seq < lane.next; ++seq)
                {
                    auto& s = lane.ring[seq % ringSize];
                    if(!s.busy || s.seq != seq)
                        continue;
                    ++res.strandedAll;
                    if(s.measured)
                        ++res.stranded;
                }
                for(auto i = lane.backlogHead; i != lane.backlogTail; ++i)
                    if(lane.backlog[i % backlogCap] >= tStart && lane.backlog[i % backlogCap] < tEnd)
                    {
                        ++res.attempted;
                        ++res.unsent;
                    }
            }
        }
        return res;
    }
} // namespace layerbench
