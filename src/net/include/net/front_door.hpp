/// \file net::FrontDoor — the server side of the wire protocol
/// (DESIGN.md §9.2).
///
/// One FrontDoor is a compile-time-sized connection table driven by ONE
/// poll thread: accept() parks a transport in a vacant entry, poll(tnow)
/// advances every connection's session state machine — flush staged
/// frames, encode completed responses, reassemble and decode incoming
/// frames — and never blocks, never calls the OS (the transport does,
/// if it is a socket), and never allocates in the steady state:
///
///  * Zero-copy landing: a Request frame's payload is received DIRECTLY
///    into a per-connection slot buffer; admission hands the service a
///    PayloadView over that buffer, the template mutates it in place,
///    and the response frame is encoded from the same bytes. No payload
///    copy exists anywhere between transport and kernel (satellite a).
///  * Admission once per poll: the Request frames a poll completes are
///    staged as slot references and admitted at the end of the poll in
///    one Router call, sorted by shard, so every shard admits the poll's
///    frames in one step (one gate, one reservation, one wake) instead
///    of one per frame (DESIGN.md §9.2).
///  * The slot is the request's serve::Completion: the service fires its
///    hook once, on whichever thread resolved the request (a worker, the
///    supervisor, shutdown, or this thread for a request expired at
///    admission); the hook writes the slot's status and release-stores
///    one atomic, and the poll thread picks the slot up on its next
///    pass. No future, mutex or std::function per request.
///  * Flow control by NOT reading: a connection whose slots are all
///    busy is simply not drained further — backpressure propagates
///    through the transport's bounded buffer to the client's window,
///    never by dropping a frame (invariant 20).
///  * Session life cycle: AwaitHello (first frame must bind a tenant)
///    → Open → Draining (peer sent Bye; in-flight requests finish,
///    responses flush, Bye is acked) → Reaping (transport closed;
///    late completions land harmlessly in the slot table) → Vacant.
///    A protocol violation or decode error closes the connection after
///    a best-effort typed Error frame — a byte stream that lost frame
///    sync cannot be trusted further (satellite c's fuzz target).
///  * Fault sites (satellite b): net.poll_delay stalls a poll tick,
///    net.frame_drop / net.frame_duplicate / net.frame_truncate
///    perturb response frames at the staging boundary — deterministic,
///    seeded, compiled out of production builds (DESIGN.md §7.2).
///
/// Thread contract: accept/poll/stats from the single poll thread;
/// worker threads touch only a slot's status and state, through its
/// completion hook. The
/// Router (and its shards) must outlive the FrontDoor's last in-flight
/// request — drain or shut the router down before destroying the door.
#pragma once

#include "net/admin.hpp"
#include "net/config.hpp"
#include "net/router.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

#include "serve/types.hpp"

#include "alpaka/core/fault.hpp"
#include "alpaka/core/trace.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <utility>

namespace alpaka::net
{
    //! Maps a completed request's outcome to its wire status — the
    //! serve-layer failure taxonomy projected onto the protocol. Called
    //! on worker threads; the rethrow inspects an exception that was
    //! already allocated at throw time, so the success path (error ==
    //! nullptr) stays allocation-free.
    [[nodiscard]] inline auto statusOf(std::exception_ptr error) noexcept -> Status
    {
        if(error == nullptr)
            return Status::Ok;
        try
        {
            std::rethrow_exception(error);
        }
        catch(serve::DeadlineError const&)
        {
            return Status::Expired;
        }
        catch(serve::CancelledError const&)
        {
            return Status::Cancelled;
        }
        catch(serve::WorkerLostError const&)
        {
            return Status::WorkerLost;
        }
        catch(serve::OverloadError const&)
        {
            return Status::Overloaded;
        }
        catch(serve::AdmissionError const&)
        {
            return Status::Busy;
        }
        catch(...)
        {
            return Status::Failed;
        }
    }

    //! A refused admission's wire status: an unknown template is the
    //! client's BadRequest; the rest maps like a completion error
    //! (AdmissionError, ShardBusyError included, is Busy).
    [[nodiscard]] inline auto refusalStatus(std::exception_ptr error) noexcept -> Status
    {
        try
        {
            std::rethrow_exception(error);
        }
        catch(UsageError const&)
        {
            return Status::BadRequest;
        }
        catch(...)
        {
            return statusOf(std::current_exception());
        }
    }

    //! Poll-thread-local introspection counters (read them from the
    //! poll thread, like everything else on a FrontDoor).
    struct FrontDoorStats
    {
        std::uint64_t connectionsAccepted = 0;
        std::uint64_t connectionsClosed = 0;
        std::uint64_t framesIn = 0;
        std::uint64_t framesOut = 0;
        std::uint64_t requestsSubmitted = 0;
        std::uint64_t responsesOk = 0;
        std::uint64_t responsesError = 0;
        std::uint64_t admissionRejected = 0;
        //! Stall episodes: rx left undrained because every slot was busy
        //! (flow control engaged).
        std::uint64_t rxStalls = 0;
        //! \name injected-fault observations (chaos builds)
        //! @{
        std::uint64_t pollsDelayed = 0;
        std::uint64_t framesDropped = 0;
        std::uint64_t framesDuplicated = 0;
        std::uint64_t framesTruncated = 0;
        //! @}
        //! \name admin plane (DESIGN.md §11.1)
        //! @{
        std::uint64_t adminRequests = 0;
        std::uint64_t adminChunks = 0;
        //! @}
        //! Indexed by DecodeError.
        std::array<std::uint64_t, 8> decodeErrors{};
    };

    template<typename Cfg = DefaultCfg>
    class FrontDoor
    {
        static_assert(Cfg::maxTenantBytes <= Cfg::maxPayload, "a Hello payload is a frame payload");

    public:
        explicit FrontDoor(Router& router) noexcept : router_(router)
        {
        }

        FrontDoor(FrontDoor const&) = delete;
        auto operator=(FrontDoor const&) -> FrontDoor& = delete;

        //! Parks \p transport in a vacant connection entry awaiting its
        //! Hello. \returns false (transport dropped, peer sees EOF) when
        //! the table is full — the front door's own admission control.
        auto accept(std::unique_ptr<Transport> transport) -> bool
        {
            for(auto& c : conns_)
            {
                if(c.state != ConnState::Vacant)
                    continue;
                c.transport = std::move(transport);
                c.state = ConnState::AwaitHello;
                c.tenantLen = 0;
                c.rxHeaderHave = 0;
                c.headerDecoded = false;
                c.prepared = false;
                c.rxPayloadHave = 0;
                c.rxSlot = nullptr;
                c.rxPayloadDst = nullptr;
                c.stalled = false;
                c.txLen = 0;
                c.txSent = 0;
                c.truncateClose = false;
                c.byeQueued = false;
                c.adminActive = false;
                c.adminBody.clear();
                c.adminSent = 0;
                ++stats_.connectionsAccepted;
                return true;
            }
            return false;
        }

        //! One non-blocking pass over every connection. \p tnow anchors
        //! relative frame deadlines to the caller's clock (the core
        //! never reads a clock itself — SNIPPETS.md §1 discipline).
        //! \returns true when any byte or state moved (callers use this
        //! to decide between spinning and backing off).
        auto poll(std::chrono::steady_clock::time_point tnow) -> bool
        {
            try
            {
                ALPAKA_FAULT_POINT("net.poll_delay");
            }
            catch(fault::InjectedFault const&)
            {
                ++stats_.pollsDelayed;
                return false;
            }
            bool progress = false;
            for(auto& c : conns_)
                progress = pollConn(c) || progress;
            admitStaged(tnow);
            return progress;
        }

        [[nodiscard]] auto openConnections() const noexcept -> std::size_t
        {
            std::size_t n = 0;
            for(auto const& c : conns_)
                n += c.state != ConnState::Vacant ? 1 : 0;
            return n;
        }

        [[nodiscard]] auto stats() const noexcept -> FrontDoorStats const&
        {
            return stats_;
        }

        //! Plugs the admin back end in (nullptr detaches). Without one,
        //! admin requests are answered with a Status::BadRequest chunk —
        //! tenant traffic never depends on a provider. Poll-thread
        //! discipline applies: set it before the first poll or from the
        //! poll thread.
        void setAdminProvider(AdminProvider* provider) noexcept
        {
            admin_ = provider;
        }

    private:
        enum class ConnState : std::uint8_t
        {
            Vacant,
            AwaitHello,
            Open,
            Draining,
            Reaping,
        };

        //! Slot states: the poll thread owns Free→Busy (and reads
        //! Done); the completing worker owns Busy→Done (release, paired
        //! with the poll thread's acquire — the only cross-thread edge
        //! in the front door).
        static constexpr std::uint8_t slotFree = 0;
        static constexpr std::uint8_t slotBusy = 1;
        static constexpr std::uint8_t slotDone = 2;

        struct Slot : serve::Completion
        {
            Slot() noexcept : serve::Completion(&onComplete)
            {
            }

            //! Busy→Done: the one write of a resolving thread.
            static void onComplete(serve::Completion& completion, std::exception_ptr error) noexcept
            {
                auto& slot = static_cast<Slot&>(completion);
                slot.status = statusOf(error);
                ALPAKA_TRACE_INSTANT("net.completion", slot.reqId);
                slot.state.store(slotDone, std::memory_order_release);
            }

            std::atomic<std::uint8_t> state{slotFree};
            Status status = Status::Ok;
            //! Here, not after reqId: with the hook pointer, the slot
            //! stays at 96 bytes.
            std::uint32_t tmpl = 0;
            std::uint64_t reqId = 0;
            std::uint32_t len = 0;
            std::uint32_t deadlineUs = 0; //!< relative to the poll's tnow; 0 = none
            std::array<std::byte, Cfg::maxPayload> payload{};
        };

        struct Conn
        {
            std::unique_ptr<Transport> transport;
            ConnState state = ConnState::Vacant;
            std::array<char, Cfg::maxTenantBytes> tenant{};
            std::size_t tenantLen = 0;
            std::size_t shard = 0; //!< the tenant's Router shard, fixed at Hello
            //! \name rx reassembly (one frame at a time)
            //! @{
            std::array<std::byte, headerSize> rxHeader{};
            std::size_t rxHeaderHave = 0;
            FrameHeader header{};
            bool headerDecoded = false;
            bool prepared = false; //!< payload destination chosen
            Slot* rxSlot = nullptr;
            std::byte* rxPayloadDst = nullptr;
            std::size_t rxPayloadHave = 0;
            bool stalled = false;
            //! @}
            //! \name tx staging (two frames: the duplicate fault needs
            //! room for both copies)
            //! @{
            std::array<std::byte, 2 * (headerSize + Cfg::maxPayload)> tx{};
            std::size_t txLen = 0;
            std::size_t txSent = 0;
            bool truncateClose = false;
            bool byeQueued = false;
            //! @}
            //! \name admin response streaming (the one part of a
            //! connection that allocates — deliberately off the tenant
            //! hot path; the ALLOCTRACK audit measures the request slots,
            //! which admin traffic never touches)
            //! @{
            std::string adminBody;
            std::size_t adminSent = 0;
            std::uint64_t adminReqId = 0;
            std::uint32_t adminOp = 0;
            Status adminStatus = Status::Ok;
            bool adminActive = false;
            //! @}
            std::array<Slot, Cfg::slotsPerConnection> slots{};
        };

        //! Frames one poll reads from one connection at most: keeps one
        //! chatty connection from starving the table, and bounds a
        //! poll's staged admissions.
        static constexpr std::size_t framesPerPoll = 16;
        static constexpr std::size_t stagedCapacity = Cfg::maxConnections * framesPerPoll;

        //! A Request frame received this poll, awaiting admitStaged().
        struct Staged
        {
            Conn* conn = nullptr;
            Slot* slot = nullptr;
        };

        static constexpr auto errIdx(DecodeError e) noexcept -> std::size_t
        {
            return static_cast<std::size_t>(e);
        }

        auto pollConn(Conn& c) -> bool
        {
            if(c.state == ConnState::Vacant)
                return false;
            if(c.state == ConnState::Reaping)
                return reap(c);
            bool progress = flushTx(c);
            if(c.state == ConnState::Reaping)
                return true;
            progress = pumpResponses(c) || progress;
            progress = pumpAdmin(c) || progress;
            progress = flushTx(c) || progress;
            if(c.state == ConnState::Reaping)
                return true;
            if(c.state == ConnState::Draining && !c.byeQueued && allSlotsFree(c) && !c.adminActive)
            {
                FrameHeader bye;
                bye.type = FrameType::Bye;
                bye.payloadLen = 0;
                if(stageFrame(c, bye, nullptr, false))
                {
                    c.byeQueued = true;
                    progress = true;
                }
            }
            if(c.state == ConnState::Draining && c.byeQueued)
            {
                progress = flushTx(c) || progress;
                if(c.state == ConnState::Draining && c.txLen == 0)
                {
                    c.transport->close();
                    c.state = ConnState::Reaping;
                }
                return progress; // drained peers send nothing further
            }
            progress = pumpRx(c) || progress;
            return progress;
        }

        auto reap(Conn& c) -> bool
        {
            bool progress = false;
            bool allFree = true;
            for(auto& s : c.slots)
            {
                auto const st = s.state.load(std::memory_order_acquire);
                if(st == slotDone)
                {
                    s.state.store(slotFree, std::memory_order_relaxed);
                    progress = true;
                }
                else if(st == slotBusy)
                    allFree = false;
            }
            if(allFree)
            {
                c.transport.reset();
                c.state = ConnState::Vacant;
                ++stats_.connectionsClosed;
                progress = true;
            }
            return progress;
        }

        [[nodiscard]] auto allSlotsFree(Conn& c) const noexcept -> bool
        {
            for(auto& s : c.slots)
                if(s.state.load(std::memory_order_acquire) != slotFree)
                    return false;
            return true;
        }

        auto flushTx(Conn& c) -> bool
        {
            if(c.txLen == 0)
                return false;
            auto const n = c.transport->send(c.tx.data() + c.txSent, c.txLen - c.txSent);
            if(n < 0)
            {
                closeConn(c);
                return true;
            }
            if(n == 0)
                return false;
            c.txSent += static_cast<std::size_t>(n);
            if(c.txSent == c.txLen)
            {
                c.txLen = 0;
                c.txSent = 0;
                if(c.truncateClose)
                    closeConn(c);
            }
            return true;
        }

        //! Encodes one frame into the staging buffer; \p faults opts the
        //! frame into the chaos sites. \returns false (retry next poll)
        //! when the staging has no room.
        auto stageFrame(Conn& c, FrameHeader h, std::byte const* payload, bool faults) -> bool
        {
            bool drop = false;
            bool duplicate = false;
            bool truncate = false;
            if(faults)
            {
                try
                {
                    ALPAKA_FAULT_POINT("net.frame_drop");
                }
                catch(fault::InjectedFault const&)
                {
                    drop = true;
                }
                try
                {
                    ALPAKA_FAULT_POINT("net.frame_duplicate");
                }
                catch(fault::InjectedFault const&)
                {
                    duplicate = true;
                }
                try
                {
                    ALPAKA_FAULT_POINT("net.frame_truncate");
                }
                catch(fault::InjectedFault const&)
                {
                    truncate = true;
                }
            }
            if(drop)
            {
                ++stats_.framesDropped;
                return true; // consumed, never sent
            }
            auto const frameBytes = headerSize + h.payloadLen;
            auto const copies = duplicate ? std::size_t{2} : std::size_t{1};
            if(c.tx.size() - c.txLen < copies * frameBytes)
                return false;
            for(std::size_t i = 0; i < copies; ++i)
            {
                encodeHeader(h, c.tx.data() + c.txLen, payload, h.payloadLen);
                if(h.payloadLen != 0)
                    std::memcpy(c.tx.data() + c.txLen + headerSize, payload, h.payloadLen);
                c.txLen += frameBytes;
                ++stats_.framesOut;
            }
            if(duplicate)
                ++stats_.framesDuplicated;
            if(truncate)
            {
                // Drop the back half of the (last) staged frame and cut
                // the connection once the front half left: the peer sees
                // a frame truncated by a mid-frame EOF.
                c.txLen -= frameBytes - frameBytes / 2;
                c.truncateClose = true;
                ++stats_.framesTruncated;
            }
            return true;
        }

        auto pumpResponses(Conn& c) -> bool
        {
            bool progress = false;
            for(auto& slot : c.slots)
            {
                if(slot.state.load(std::memory_order_acquire) != slotDone)
                    continue;
                FrameHeader h;
                h.type = slot.status == Status::Ok ? FrameType::Response : FrameType::Error;
                h.status = slot.status;
                h.tmpl = slot.tmpl;
                h.reqId = slot.reqId;
                h.payloadLen = slot.status == Status::Ok ? slot.len : 0;
                if(!stageFrame(c, h, slot.payload.data(), true))
                    break; // staging full; retry next poll
                ALPAKA_TRACE_ASYNC_END("net.request", slot.reqId);
                slot.status == Status::Ok ? ++stats_.responsesOk : ++stats_.responsesError;
                slot.state.store(slotFree, std::memory_order_relaxed);
                progress = true;
            }
            return progress;
        }

        //! Chooses the landing area of the decoded header's payload (and
        //! validates the frame type against the session state). \returns
        //! false when the connection must wait (no free slot — flow
        //! control) or was closed (protocol violation).
        auto prepare(Conn& c) -> bool
        {
            switch(c.header.type)
            {
            case FrameType::Hello:
                if(c.state != ConnState::AwaitHello || c.header.payloadLen > Cfg::maxTenantBytes)
                {
                    closeWithError(c);
                    return false;
                }
                c.rxPayloadDst = reinterpret_cast<std::byte*>(c.tenant.data());
                c.prepared = true;
                return true;
            case FrameType::Request:
            {
                if(c.state == ConnState::AwaitHello)
                {
                    closeWithError(c);
                    return false;
                }
                for(auto& s : c.slots)
                {
                    if(s.state.load(std::memory_order_acquire) == slotFree)
                    {
                        c.rxSlot = &s;
                        c.rxPayloadDst = s.payload.data();
                        c.prepared = true;
                        c.stalled = false;
                        return true;
                    }
                }
                if(!c.stalled)
                {
                    c.stalled = true;
                    ++stats_.rxStalls;
                }
                return false; // backpressure: leave bytes in the transport
            }
            case FrameType::Bye:
                if(c.header.payloadLen != 0)
                {
                    closeWithError(c);
                    return false;
                }
                c.prepared = true;
                return true;
            case FrameType::MetricsScrape:
            case FrameType::HealthCheck:
            case FrameType::StatsSnapshot:
            case FrameType::TraceControl:
            {
                if(c.state == ConnState::AwaitHello)
                {
                    closeWithError(c);
                    return false;
                }
                if(auto const err = validateAdmin(c.header); err != DecodeError::None)
                {
                    ++stats_.decodeErrors[errIdx(err)];
                    closeWithError(c);
                    return false;
                }
                // One admin stream per connection at a time: leave the
                // frame in the transport until the active response has
                // fully streamed — the same backpressure-by-not-reading
                // discipline as a slot-full request (invariant 20).
                if(c.adminActive)
                    return false;
                c.prepared = true;
                return true;
            }
            default:
                // HelloAck/Response/Error/AdminData are server-to-client
                // only.
                closeWithError(c);
                return false;
            }
        }

        void handleFrame(Conn& c)
        {
            ++stats_.framesIn;
            switch(c.header.type)
            {
            case FrameType::Hello:
            {
                c.tenantLen = c.header.payloadLen;
                c.shard = router_.shardOf(std::string_view(c.tenant.data(), c.tenantLen));
                FrameHeader ack;
                ack.type = FrameType::HelloAck;
                ack.payloadLen = 0;
                stageFrame(c, ack, nullptr, false); // staging is empty pre-Open
                c.state = ConnState::Open;
                return;
            }
            case FrameType::Request:
                ALPAKA_TRACE_INSTANT("net.frame_decode", c.header.reqId);
                stageSlot(c, *c.rxSlot);
                return;
            case FrameType::Bye:
                c.state = ConnState::Draining;
                return;
            case FrameType::MetricsScrape:
            case FrameType::HealthCheck:
            case FrameType::StatsSnapshot:
            case FrameType::TraceControl:
                handleAdmin(c);
                return;
            default:
                return; // unreachable: prepare() closed on these
            }
        }

        //! Materializes one admin response via the provider and arms the
        //! chunked stream. Runs on the poll thread; the provider may
        //! allocate (off the tenant hot path), but a provider that throws
        //! still yields a well-formed (Failed) final chunk — the admin
        //! plane never kills a session that spoke the protocol correctly.
        void handleAdmin(Conn& c)
        {
            ++stats_.adminRequests;
            c.adminBody.clear();
            c.adminReqId = c.header.reqId;
            c.adminOp = c.header.tmpl;
            c.adminSent = 0;
            if(admin_ == nullptr)
                c.adminStatus = Status::BadRequest;
            else
            {
                try
                {
                    c.adminStatus = admin_->handleAdmin(c.header.type, c.header.tmpl, c.adminBody);
                }
                catch(...)
                {
                    c.adminBody.clear();
                    c.adminStatus = Status::Failed;
                }
            }
            c.adminActive = true;
            pumpAdmin(c);
        }

        //! Streams the active admin response as bounded AdminData chunks:
        //! at most Cfg::maxPayload bytes per frame, Status::Partial on
        //! every chunk but the last (which carries the provider's final
        //! status). Stops the moment staging or the transport is full and
        //! resumes next poll — the admin plane obeys the same never-block
        //! discipline as everything else on the door.
        auto pumpAdmin(Conn& c) -> bool
        {
            if(!c.adminActive)
                return false;
            bool progress = false;
            while(true)
            {
                auto const remaining = c.adminBody.size() - c.adminSent;
                auto const chunk = remaining < Cfg::maxPayload ? remaining : Cfg::maxPayload;
                FrameHeader h;
                h.type = FrameType::AdminData;
                h.status = chunk == remaining ? c.adminStatus : Status::Partial;
                h.tmpl = c.adminOp;
                h.reqId = c.adminReqId;
                h.payloadLen = static_cast<std::uint32_t>(chunk);
                if(!stageFrame(c, h, reinterpret_cast<std::byte const*>(c.adminBody.data()) + c.adminSent, false))
                    return progress; // staging full; resume next poll
                ++stats_.adminChunks;
                c.adminSent += chunk;
                progress = true;
                if(c.adminSent == c.adminBody.size())
                {
                    c.adminActive = false;
                    c.adminBody.clear();
                    c.adminSent = 0;
                    return progress;
                }
                flushTx(c); // hand staged chunks to the transport mid-stream
                if(c.state == ConnState::Reaping)
                    return true;
            }
        }

        void stageSlot(Conn& c, Slot& slot)
        {
            slot.reqId = c.header.reqId;
            slot.tmpl = c.header.tmpl;
            slot.len = c.header.payloadLen;
            slot.deadlineUs = c.header.deadlineUs;
            // The wire reqId is the request's trace correlation id: every
            // layer below (router, serve, graph) tags its spans with the
            // same value, so one Perfetto async track spans decode →
            // route → queue → execute → response staging.
            ALPAKA_TRACE_ASYNC_BEGIN("net.request", slot.reqId);
            if(c.state == ConnState::Draining)
            {
                slot.status = Status::Draining;
                slot.state.store(slotDone, std::memory_order_relaxed);
                return;
            }
            slot.state.store(slotBusy, std::memory_order_relaxed);
            staged_[stagedCount_++] = Staged{&c, &slot};
        }

        //! Admits the poll's staged Request frames: sorted by shard
        //! (stably — a connection's frames keep their order), rebuilt as
        //! serve::Requests on this stack frame, admitted in one Router
        //! call, which makes one Service admission per shard. Each
        //! request's completion is its slot.
        void admitStaged(std::chrono::steady_clock::time_point tnow)
        {
            auto const n = std::exchange(stagedCount_, std::size_t{0});
            if(n == 0)
                return;
            for(std::size_t i = 1; i < n; ++i)
                for(auto j = i; j > 0 && staged_[j - 1].conn->shard > staged_[j].conn->shard; --j)
                    std::swap(staged_[j - 1], staged_[j]);
            // Raw storage: only the n entries in use are constructed.
            alignas(serve::Request) std::array<std::byte, stagedCapacity * sizeof(serve::Request)> requestBytes;
            alignas(serve::Admission) std::array<std::byte, stagedCapacity * sizeof(serve::Admission)> admissionBytes;
            for(std::size_t i = 0; i < n; ++i)
            {
                auto const& [c, slot] = staged_[i];
                auto* const req = ::new(requestBytes.data() + i * sizeof(serve::Request)) serve::Request{};
                req->tmpl = slot->tmpl;
                req->tenant = std::string_view(c->tenant.data(), c->tenantLen);
                req->payload = serve::PayloadView(slot->payload.data(), slot->len);
                req->traceId = slot->reqId;
                req->completion = slot;
                if(slot->deadlineUs != 0)
                    req->deadline = tnow + std::chrono::microseconds(slot->deadlineUs);
                ::new(admissionBytes.data() + i * sizeof(serve::Admission)) serve::Admission{};
            }
            auto* const requests = std::launder(reinterpret_cast<serve::Request*>(requestBytes.data()));
            auto* const admissions = std::launder(reinterpret_cast<serve::Admission*>(admissionBytes.data()));
            router_.submit({requests, n}, {admissions, n});
            for(std::size_t i = 0; i < n; ++i)
            {
                auto* const slot = staged_[i].slot;
                auto& outcome = admissions[i];
                if(outcome.error == nullptr)
                {
                    // Admitted: the slot's hook fires once (already did,
                    // inline, for a request expired or cancelled here).
                    ++stats_.requestsSubmitted;
                }
                else
                {
                    slot->status = refusalStatus(outcome.error);
                    if(slot->status == Status::Busy)
                        ++stats_.admissionRejected;
                    slot->state.store(slotDone, std::memory_order_relaxed);
                }
                outcome.~Admission();
                requests[i].~Request();
            }
        }

        auto pumpRx(Conn& c) -> bool
        {
            bool progress = false;
            for(std::size_t frame = 0; frame < framesPerPoll; ++frame)
            {
                if(!c.headerDecoded)
                {
                    auto const n = c.transport->recv(c.rxHeader.data() + c.rxHeaderHave, headerSize - c.rxHeaderHave);
                    if(n < 0)
                    {
                        closeConn(c);
                        return true;
                    }
                    if(n == 0)
                        return progress;
                    c.rxHeaderHave += static_cast<std::size_t>(n);
                    progress = true;
                    if(c.rxHeaderHave < headerSize)
                        return progress;
                    auto const err = decodeHeader(c.rxHeader.data(), headerSize, Cfg::maxPayload, c.header);
                    if(err != DecodeError::None)
                    {
                        ++stats_.decodeErrors[errIdx(err)];
                        closeWithError(c);
                        return true;
                    }
                    c.headerDecoded = true;
                    c.prepared = false;
                    c.rxPayloadHave = 0;
                    c.rxSlot = nullptr;
                    c.rxPayloadDst = nullptr;
                }
                if(!c.prepared)
                {
                    if(!prepare(c))
                        return progress;
                }
                if(c.header.payloadLen != 0 && c.rxPayloadHave < c.header.payloadLen)
                {
                    auto const n
                        = c.transport->recv(c.rxPayloadDst + c.rxPayloadHave, c.header.payloadLen - c.rxPayloadHave);
                    if(n < 0)
                    {
                        closeConn(c);
                        return true;
                    }
                    if(n == 0)
                        return progress;
                    c.rxPayloadHave += static_cast<std::size_t>(n);
                    progress = true;
                    if(c.rxPayloadHave < c.header.payloadLen)
                        return progress;
                }
                if(verifyCrc(c.rxHeader.data(), c.rxPayloadDst, c.header.payloadLen) != DecodeError::None)
                {
                    ++stats_.decodeErrors[errIdx(DecodeError::BadCrc)];
                    closeWithError(c);
                    return true;
                }
                handleFrame(c);
                progress = true;
                c.headerDecoded = false;
                c.prepared = false;
                c.rxHeaderHave = 0;
                if(c.state == ConnState::Reaping || c.state == ConnState::Draining)
                    return progress;
            }
            return progress;
        }

        //! Best-effort typed rejection, then cut: one Error frame (echoes
        //! the offending reqId when a header got far enough to carry
        //! one), one flush attempt, close. A stream that lost frame sync
        //! cannot be re-synchronized — closing IS the error recovery.
        void closeWithError(Conn& c)
        {
            if(c.txLen == 0 && c.transport != nullptr)
            {
                FrameHeader err;
                err.type = FrameType::Error;
                err.status = Status::BadRequest;
                err.reqId = c.headerDecoded || c.rxHeaderHave == headerSize ? c.header.reqId : 0;
                err.payloadLen = 0;
                if(stageFrame(c, err, nullptr, false))
                {
                    ++stats_.responsesError;
                    flushTx(c);
                }
            }
            closeConn(c);
        }

        void closeConn(Conn& c)
        {
            if(c.transport != nullptr)
                c.transport->close();
            c.state = ConnState::Reaping;
        }

        Router& router_;
        AdminProvider* admin_ = nullptr;
        FrontDoorStats stats_{};
        std::array<Conn, Cfg::maxConnections> conns_{};
        std::array<Staged, stagedCapacity> staged_{};
        std::size_t stagedCount_ = 0;
    };
} // namespace alpaka::net
