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
///    into a per-connection slot buffer; the slot describes its request
///    to the service with a PayloadView over that buffer, the template
///    mutates it in place, and the response frame is encoded from the
///    same bytes. No payload copy exists anywhere between transport and
///    kernel.
///  * Admission on the shard (DESIGN.md §9.2): the frames a poll reads
///    from a connection are posted, as one span of slots
///    (serve::Posted), to the shard fixed at the connection's Hello
///    (serve::Service::post: one CAS links them into the shard's posted
///    list, which takes every frame). That shard's worker has
///    each slot describe its request (template, the connection's tenant,
///    payload view, deadline, reqId) and admits them; this thread does no
///    tenant lookup, reservation, clock read or queue push. A refusal
///    (Busy, BadRequest) arrives through the slot like any other outcome.
///  * The slot is the request's serve::Completion: the service fires its
///    hook once, on whichever thread resolved the request (a worker, the
///    supervisor, shutdown); the hook writes the slot's status and
///    sets the slot's bit in its connection's done word (fetch_or,
///    release). The poll takes the whole word with one exchange
///    (acquire), so a poll's cost follows the frames it moves, not
///    Cfg::slotsPerConnection; a free mask that only the poll thread
///    touches hands out slots (lowest free bit). No future, mutex or
///    std::function per request.
///  * A slot answered WorkerLost stays out of the free mask until the
///    lost worker lets go of its payload (Completion::release sets the
///    slot's bit in the connection's released word): a later request
///    never lands in bytes a zombie kernel may still write.
///  * Flow control by NOT reading: a connection whose slots are all
///    busy is simply not drained further — backpressure propagates
///    through the transport's bounded buffer to the client's window,
///    never by dropping a frame and never by blocking or spinning
///    (invariant 20). The slots bound what a connection has posted.
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
/// worker threads read a posted slot's fields, payload and connection
/// tenant, and write only its payload, its status and its connection's
/// done and released words, through the slot's hooks (and the posted
/// list's link in its serve::Posted base, the service's). The Router (and
/// its shards) must outlive the FrontDoor's last in-flight request —
/// drain or shut the router down before destroying the door.
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
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
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
        catch(serve::UnknownTemplateError const&)
        {
            return Status::BadRequest;
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

    //! Poll-thread-local introspection counters (read them from the
    //! poll thread, like everything else on a FrontDoor).
    struct FrontDoorStats
    {
        std::uint64_t connectionsAccepted = 0;
        std::uint64_t connectionsClosed = 0;
        std::uint64_t framesIn = 0;
        std::uint64_t framesOut = 0;
        //! Requests the door handed to their shard (posted). A refusal is
        //! one of their outcomes: Busy counts in admissionRejected too.
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
        static_assert(
            Cfg::slotsPerConnection >= 1 && Cfg::slotsPerConnection <= 64,
            "a connection's slots are the bits of one 64-bit word");

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
            tnow_ = tnow;
            bool progress = false;
            for(auto& c : conns_)
                progress = pollConn(c) || progress;
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

        static constexpr auto noDeadline = std::chrono::steady_clock::time_point::max();
        static constexpr std::uint64_t allSlots
            = Cfg::slotsPerConnection == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << Cfg::slotsPerConnection) - 1;

        //! The words resolving threads write (one bit per slot): the only
        //! cross-thread edges of the front door. A hook sets its slot's
        //! bit (fetch_or, release) after its other writes; the poll takes
        //! the whole word (exchange, acquire) before it reads the slots
        //! (litmus: net/*_slot_done). On a line of their own: the rest of
        //! a connection is the poll thread's.
        struct alignas(64) SlotWords
        {
            std::atomic<std::uint64_t> done{0}; //!< resolved: status written
            std::atomic<std::uint64_t> released{0}; //!< a lost worker let go of the payload
        };

        struct Conn;

        //! One request's landing place and its serve::Posted: the poll
        //! thread writes the frame's fields and payload before the post,
        //! the admitting worker reads them through describe(). Only what
        //! differs per request lives here; the tenant is the connection's.
        struct Slot : serve::Posted
        {
            Slot() noexcept : serve::Posted(&onComplete, &onRelease, &describe)
            {
            }

            //! On the admitting worker: the wire reqId is the request's
            //! trace correlation id (DESIGN.md §10), so every layer below
            //! tags its spans with it — one Perfetto async track spans
            //! decode → queue → execute → response staging.
            static void describe(serve::Posted& posted, serve::Request& request) noexcept
            {
                auto& slot = static_cast<Slot&>(posted);
                request.tmpl = slot.tmpl;
                request.tenant = std::string_view(slot.conn->tenant.data(), slot.conn->tenantLen);
                request.payload = serve::PayloadView(slot.payload.data(), slot.len);
                if(slot.deadline != noDeadline)
                    request.deadline = slot.deadline;
                request.traceId = slot.reqId;
            }

            //! The one write of a resolving thread: status, then the bit.
            static void onComplete(serve::Completion& completion, std::exception_ptr error) noexcept
            {
                auto& slot = static_cast<Slot&>(completion);
                slot.status = statusOf(error);
                ALPAKA_TRACE_INSTANT("net.completion", slot.reqId);
                slot.conn->words.done.fetch_or(slot.bit(), std::memory_order_release); // litmus: net/*_slot_done
            }

            //! After a WorkerLost answer: the lost worker left the payload.
            static void onRelease(serve::Completion& completion) noexcept
            {
                auto& slot = static_cast<Slot&>(completion);
                slot.conn->words.released.fetch_or(slot.bit(), std::memory_order_release); // litmus: net/*_slot_done
            }

            [[nodiscard]] auto bit() const noexcept -> std::uint64_t
            {
                return std::uint64_t{1} << index;
            }

            Conn* conn = nullptr;
            std::uint64_t reqId = 0;
            std::chrono::steady_clock::time_point deadline = noDeadline; //!< absolute
            serve::TemplateId tmpl = 0;
            std::uint32_t len = 0;
            Status status = Status::Ok;
            std::uint8_t index = 0;
            std::array<std::byte, Cfg::maxPayload> payload{};
        };

        //! Frames one poll reads from one connection at most: keeps one
        //! chatty connection from starving the table, and sizes the span
        //! one post hands the shard.
        static constexpr std::size_t framesPerPoll = 16;

        struct Conn
        {
            Conn() noexcept
            {
                for(std::size_t i = 0; i < slots.size(); ++i)
                {
                    slots[i].conn = this;
                    slots[i].index = static_cast<std::uint8_t>(i);
                }
            }

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
            //! \name slot table: one bit per slot; the masks are the poll
            //! thread's, the words the resolving threads'
            //! @{
            SlotWords words;
            std::uint64_t freeMask = allSlots; //!< ready for the next frame
            std::uint64_t ready = 0; //!< resolved, response not staged yet
            std::uint64_t held = 0; //!< answered WorkerLost, payload not released yet
            std::uint64_t releasedSeen = 0; //!< released, not yet matched with held
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
            // Bye once every request is answered: held slots were, though
            // their payload waits for a lost worker (reap waits for it).
            if(c.state == ConnState::Draining && !c.byeQueued && (c.freeMask | c.held) == allSlots && !c.adminActive)
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
            return pumpRx(c) || progress;
        }

        //! A closed connection's late completions land here, unanswered;
        //! the entry goes Vacant once every slot is free again.
        auto reap(Conn& c) -> bool
        {
            harvest(c);
            auto const resolved = c.ready;
            for(; c.ready != 0; c.ready &= c.ready - 1)
                retire(c, c.slots[std::countr_zero(c.ready)]);
            reclaim(c);
            if(c.freeMask != allSlots)
                return resolved != 0;
            c.transport.reset();
            c.state = ConnState::Vacant;
            ++stats_.connectionsClosed;
            return true;
        }

        //! Takes what resolving threads published since the last poll. The
        //! relaxed loads keep an idle connection's words shared in this
        //! core's cache; only a word with bits pays the exchange.
        static void harvest(Conn& c) noexcept
        {
            if(c.words.done.load(std::memory_order_relaxed) != 0)
                c.ready |= c.words.done.exchange(0, std::memory_order_acquire); // litmus: net/*_slot_done
            if(c.words.released.load(std::memory_order_relaxed) != 0)
                c.releasedSeen |= c.words.released.exchange(0, std::memory_order_acquire);
        }

        //! A slot whose request is answered (or never will be): free again,
        //! unless a lost worker may still write its payload.
        void retire(Conn& c, Slot& slot) noexcept
        {
            if(slot.status == Status::Busy)
                ++stats_.admissionRejected;
            (slot.status == Status::WorkerLost ? c.held : c.freeMask) |= slot.bit();
        }

        //! Held slots whose lost worker let go of the payload: free again.
        static void reclaim(Conn& c) noexcept
        {
            auto const back = c.held & c.releasedSeen;
            c.held &= ~back;
            c.releasedSeen &= ~back;
            c.freeMask |= back;
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
        //! when the staging has no room for it. Room is checked before
        //! the sites roll, so every fault hit belongs to a frame staged
        //! or dropped, however many polls the staging stays full: the
        //! hit count, and with it a seed's schedule, does not depend on
        //! timing. A duplicate that finds no room for its second copy
        //! stages one and is not counted duplicated.
        auto stageFrame(Conn& c, FrameHeader h, std::byte const* payload, bool faults) -> bool
        {
            auto const frameBytes = headerSize + h.payloadLen;
            auto const room = c.tx.size() - c.txLen;
            if(room < frameBytes)
                return false;
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
                    duplicate = room >= 2 * frameBytes;
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
            auto const copies = duplicate ? std::size_t{2} : std::size_t{1};
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
            harvest(c);
            bool progress = false;
            while(c.ready != 0)
            {
                auto& slot = c.slots[std::countr_zero(c.ready)];
                auto const ok = slot.status == Status::Ok;
                FrameHeader h;
                h.type = ok ? FrameType::Response : FrameType::Error;
                h.status = slot.status;
                h.tmpl = slot.tmpl;
                h.reqId = slot.reqId;
                h.payloadLen = ok ? slot.len : 0;
                if(!stageFrame(c, h, slot.payload.data(), true))
                    break; // staging full; retry next poll
                ALPAKA_TRACE_ASYNC_END("net.request", h.reqId);
                ok ? ++stats_.responsesOk : ++stats_.responsesError;
                c.ready &= ~slot.bit();
                retire(c, slot);
                progress = true;
            }
            reclaim(c);
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
                if(c.freeMask != 0)
                {
                    c.rxSlot = &c.slots[std::countr_zero(c.freeMask)];
                    c.rxPayloadDst = c.rxSlot->payload.data();
                    c.prepared = true;
                    c.stalled = false;
                    return true;
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

        //! \returns the request frame's slot when it is to be posted.
        auto handleFrame(Conn& c) -> Slot*
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
                return nullptr;
            }
            case FrameType::Request:
                ALPAKA_TRACE_INSTANT("net.frame_decode", c.header.reqId);
                return stageSlot(c, *c.rxSlot);
            case FrameType::Bye:
                c.state = ConnState::Draining;
                return nullptr;
            case FrameType::MetricsScrape:
            case FrameType::HealthCheck:
            case FrameType::StatsSnapshot:
            case FrameType::TraceControl:
                handleAdmin(c);
                return nullptr;
            default:
                return nullptr; // unreachable: prepare() closed on these
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

        //! Fills \p slot from the decoded header; the slot leaves the
        //! free mask. \returns it when it is to be posted (nullptr: it is
        //! answered Draining without a post).
        auto stageSlot(Conn& c, Slot& slot) -> Slot*
        {
            slot.tmpl = c.header.tmpl;
            slot.len = c.header.payloadLen;
            slot.reqId = c.header.reqId;
            slot.deadline
                = c.header.deadlineUs != 0 ? tnow_ + std::chrono::microseconds(c.header.deadlineUs) : noDeadline;
            ALPAKA_TRACE_ASYNC_BEGIN("net.request", slot.reqId);
            c.freeMask &= ~slot.bit();
            if(c.state == ConnState::Draining)
            {
                slot.status = Status::Draining;
                c.ready |= slot.bit();
                return nullptr;
            }
            return &slot;
        }

        //! Reads up to framesPerPoll frames, then posts their request
        //! slots, in order, to the connection's shard
        //! (serve::Service::post), which takes them all — also when the
        //! read closed the connection: their answers come back to reap().
        auto pumpRx(Conn& c) -> bool
        {
            std::array<serve::Posted*, framesPerPoll> requests;
            std::size_t posted = 0;
            auto const progress = readFrames(c, requests, posted);
            if(posted != 0)
            {
                stats_.requestsSubmitted += posted;
                for(std::size_t i = 0; i < posted; ++i)
                    if(auto const reqId = static_cast<Slot*>(requests[i])->reqId; reqId != 0)
                        ALPAKA_TRACE_INSTANT("net.shard_route", reqId);
                router_.shard(c.shard).post(std::span(requests.data(), posted));
            }
            return progress;
        }

        //! pumpRx's reading half: each request frame it reads appends its
        //! slot to \p requests (\p posted of them so far).
        auto readFrames(Conn& c, std::array<serve::Posted*, framesPerPoll>& requests, std::size_t& posted) -> bool
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
                if(auto* const slot = handleFrame(c))
                    requests[posted++] = slot;
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
        //! The current poll's clock, which relative frame deadlines count
        //! from.
        std::chrono::steady_clock::time_point tnow_{};
        std::array<Conn, Cfg::maxConnections> conns_{};
    };
} // namespace alpaka::net
