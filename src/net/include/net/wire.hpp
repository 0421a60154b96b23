/// \file Statically-sized wire protocol of the network front door
/// (DESIGN.md §9.1).
///
/// The design debt this layer pays off is the zenoh-pico discipline the
/// serving stack already lives by (SNIPPETS.md §1): everything sized at
/// compile time, nothing blocking, nothing allocating on the hot path.
/// A frame is a fixed 32-byte little-endian header plus at most
/// `maxPayload` payload bytes; the header is encoded and decoded field
/// by explicit field (no struct memcpy — the wire format is defined by
/// THIS file, not by the host ABI), and its CRC-32C (Castagnoli, the
/// iSCSI polynomial, RFC 3720) covers the header (with the crc field
/// zeroed) plus the payload, so a flipped bit anywhere in the frame is
/// caught before any byte reaches admission. The CRC runs on the CPU's
/// CRC32 instruction where it has one (x86-64 SSE4.2, probed once at
/// run time) and on slicing-by-8 tables elsewhere and in constant
/// evaluation; both give the same value.
///
/// Error discipline: the decoder is called per received frame on the
/// poll path, so it must not throw and must not allocate — it returns a
/// DecodeError code. The typed exception surface (`ProtocolError` and
/// its per-code subclasses, `raise()`) exists for API boundaries: the
/// session layer counts codes on the hot path and raises typed only
/// when the caller asked for strict mode or a test inspects the
/// taxonomy (satellite c: corrupted input must yield TYPED errors,
/// never a crash, a hang, or an allocation).
#pragma once

#include "alpaka/core/error.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

//! 1 where the frame CRC may run on the SSE4.2 CRC32 instruction
//! (x86-64, GCC or Clang; the CPU is still probed at run time).
#if defined(__x86_64__) && defined(__GNUC__)
#    define ALPAKA_NET_CRC32_SSE42 1
#else
#    define ALPAKA_NET_CRC32_SSE42 0
#endif

namespace alpaka::net
{
    //! First two wire bytes of every frame (little-endian 0xA1FA).
    inline constexpr std::uint16_t wireMagic = 0xA1FA;
    //! Protocol revision; a mismatch rejects the connection at Hello.
    //! 2: admin frame family (MetricsScrape..AdminData, Status::Partial).
    //! 3: the frame CRC is CRC-32C (reflected 0x82F63B78), not CRC-32.
    inline constexpr std::uint8_t wireVersion = 3;

    //! Frame taxonomy. Hello/HelloAck bind a connection to a tenant
    //! (the tenant name travels ONCE, in the Hello payload — request
    //! frames carry no strings, sessions are tenant-affine); Request/
    //! Response carry work; Error is a response that failed before or
    //! during execution; Bye starts a client-initiated drain.
    //!
    //! The admin family (DESIGN.md §11.1) is the live ops plane:
    //! MetricsScrape / HealthCheck / StatsSnapshot / TraceControl are
    //! payload-less client→server requests (TraceControl's op travels
    //! in the tmpl field — see TraceOp); the server answers every one
    //! of them with a stream of AdminData frames whose payloads
    //! concatenate to the response text (Status::Partial on every chunk
    //! but the last, which carries the final status). Admin frames ride
    //! the same 32-byte header, the same CRC, and the same session —
    //! they share the connection with tenant traffic but never touch
    //! the zero-copy request slots.
    enum class FrameType : std::uint8_t
    {
        Hello = 0,
        HelloAck = 1,
        Request = 2,
        Response = 3,
        Error = 4,
        Bye = 5,
        MetricsScrape = 6, //!< → registry text exposition
        HealthCheck = 7, //!< → component health report
        StatsSnapshot = 8, //!< → timestamped snapshot + window rates
        TraceControl = 9, //!< tmpl = TraceOp (enable/disable/capture)
        AdminData = 10, //!< server→client response chunk
    };

    //! TraceControl operations, carried in the frame's tmpl field.
    enum class TraceOp : std::uint32_t
    {
        Disable = 0, //!< trace::setEnabled(false)
        Enable = 1, //!< trace::setEnabled(true)
        Capture = 2, //!< drain the collector, reply with trace JSON
    };

    //! Response/Error status — the wire projection of the serve-layer
    //! failure taxonomy (DESIGN.md §7.1), so a remote client can react
    //! (retry, back off, give up) exactly like an in-process one.
    enum class Status : std::uint16_t
    {
        Ok = 0,
        Busy = 1, //!< admission rejected (AdmissionError / shard busy)
        Expired = 2, //!< DeadlineError
        Cancelled = 3, //!< CancelledError
        WorkerLost = 4, //!< WorkerLostError
        Overloaded = 5, //!< OverloadError
        Failed = 6, //!< the template body itself threw
        BadRequest = 7, //!< protocol violation (unknown template, ...)
        Draining = 8, //!< service shutting down
        Partial = 9, //!< non-final AdminData chunk; more follow
    };

    //! Admin requests travel client→server, AdminData server→client.
    [[nodiscard]] constexpr auto isAdminRequest(FrameType t) noexcept -> bool
    {
        return t == FrameType::MetricsScrape || t == FrameType::HealthCheck || t == FrameType::StatsSnapshot
               || t == FrameType::TraceControl;
    }

    //! The fixed-layout frame header, as host-side fields. Wire layout
    //! (32 bytes, little-endian, offsets in brackets):
    //!
    //!   [0]  u16 magic        [2]  u8 version    [3]  u8 type
    //!   [4]  u16 status       [6]  u16 shardHint
    //!   [8]  u32 tmpl         [12] u32 payloadLen
    //!   [16] u64 reqId
    //!   [24] u32 deadlineUs   [28] u32 crc
    //!
    //! reqId correlates a Response/Error to its Request (client-chosen,
    //! echoed verbatim). deadlineUs is a RELATIVE budget (0 = none) —
    //! absolute time points do not survive a wire hop between clocks.
    //! shardHint is advisory: the router's tenant-affine hash decides,
    //! the hint lets tests pin a shard. crc is CRC-32C (reflected
    //! 0x82F63B78) over the 32 header bytes with crc itself zeroed,
    //! then the payload bytes.
    struct FrameHeader
    {
        std::uint16_t magic = wireMagic;
        std::uint8_t version = wireVersion;
        FrameType type = FrameType::Request;
        Status status = Status::Ok;
        std::uint16_t shardHint = 0;
        std::uint32_t tmpl = 0;
        std::uint32_t payloadLen = 0;
        std::uint64_t reqId = 0;
        std::uint32_t deadlineUs = 0;
        std::uint32_t crc = 0;
    };

    inline constexpr std::size_t headerSize = 32;

    //! Non-throwing decode outcome (None == success). The order is the
    //! check order: a frame failing an earlier check never reports a
    //! later code, so tests can assert WHICH guard caught a corruption.
    enum class DecodeError : std::uint8_t
    {
        None = 0,
        Truncated, //!< fewer than headerSize bytes presented
        BadMagic,
        BadVersion,
        BadType, //!< type byte outside the FrameType range
        Oversized, //!< payloadLen exceeds the receiver's slot capacity
        BadCrc,
        BadAdmin, //!< well-formed header, malformed admin request
    };

    [[nodiscard]] constexpr auto toString(DecodeError e) noexcept -> std::string_view
    {
        switch(e)
        {
        case DecodeError::None:
            return "none";
        case DecodeError::Truncated:
            return "truncated frame";
        case DecodeError::BadMagic:
            return "bad magic";
        case DecodeError::BadVersion:
            return "bad version";
        case DecodeError::BadType:
            return "bad frame type";
        case DecodeError::Oversized:
            return "oversized payload";
        case DecodeError::BadCrc:
            return "bad crc";
        case DecodeError::BadAdmin:
            return "bad admin frame";
        }
        return "unknown";
    }

    //! \name typed protocol-error taxonomy (API surface, never hot path)
    //! @{
    class ProtocolError : public Error
    {
    public:
        ProtocolError(DecodeError code, std::string const& what) : Error(what), code_(code)
        {
        }
        [[nodiscard]] auto code() const noexcept -> DecodeError
        {
            return code_;
        }

    private:
        DecodeError code_;
    };

    class TruncatedFrameError : public ProtocolError
    {
    public:
        using ProtocolError::ProtocolError;
    };
    class BadMagicError : public ProtocolError
    {
    public:
        using ProtocolError::ProtocolError;
    };
    class BadVersionError : public ProtocolError
    {
    public:
        using ProtocolError::ProtocolError;
    };
    class BadFrameTypeError : public ProtocolError
    {
    public:
        using ProtocolError::ProtocolError;
    };
    class OversizedFrameError : public ProtocolError
    {
    public:
        using ProtocolError::ProtocolError;
    };
    class BadCrcError : public ProtocolError
    {
    public:
        using ProtocolError::ProtocolError;
    };
    class BadAdminError : public ProtocolError
    {
    public:
        using ProtocolError::ProtocolError;
    };
    //! @}

    //! Throws the typed subclass matching \p code (UsageError for None —
    //! raising success is caller misuse). Allocates; API boundaries only.
    [[noreturn]] void raise(DecodeError code);

    namespace detail
    {
        //! \name little-endian field stores/loads (the wire byte order,
        //! independent of host endianness)
        //! @{
        constexpr void store16(std::byte* p, std::uint16_t v) noexcept
        {
            p[0] = static_cast<std::byte>(v & 0xFFU);
            p[1] = static_cast<std::byte>(v >> 8U);
        }
        constexpr void store32(std::byte* p, std::uint32_t v) noexcept
        {
            for(int i = 0; i < 4; ++i)
                p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFU);
        }
        constexpr void store64(std::byte* p, std::uint64_t v) noexcept
        {
            for(int i = 0; i < 8; ++i)
                p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFU);
        }
        [[nodiscard]] constexpr auto load16(std::byte const* p) noexcept -> std::uint16_t
        {
            return static_cast<std::uint16_t>(
                static_cast<std::uint16_t>(p[0]) | (static_cast<std::uint16_t>(p[1]) << 8U));
        }
        [[nodiscard]] constexpr auto load32(std::byte const* p) noexcept -> std::uint32_t
        {
            std::uint32_t v = 0;
            for(int i = 3; i >= 0; --i)
                v = (v << 8U) | static_cast<std::uint32_t>(p[i]);
            return v;
        }
        [[nodiscard]] constexpr auto load64(std::byte const* p) noexcept -> std::uint64_t
        {
            std::uint64_t v = 0;
            for(int i = 7; i >= 0; --i)
                v = (v << 8U) | static_cast<std::uint64_t>(p[i]);
            return v;
        }
        //! @}

        //! Reflected CRC-32C table (polynomial 0x82F63B78), built at
        //! compile time so the codec has no runtime init order to get
        //! wrong.
        inline constexpr auto crcTable = []
        {
            std::array<std::uint32_t, 256> table{};
            for(std::uint32_t i = 0; i < 256; ++i)
            {
                std::uint32_t c = i;
                for(int k = 0; k < 8; ++k)
                    c = (c & 1U) != 0 ? 0x82F63B78U ^ (c >> 1U) : c >> 1U;
                table[i] = c;
            }
            return table;
        }();

        //! Slicing-by-8 tables (Kounavis & Berry, ISCC 2005), derived
        //! from crcTable: crcTables[k][b] is the CRC state contributed
        //! by byte b followed by k zero bytes. Eight input bytes then
        //! fold in with eight independent lookups instead of a chain of
        //! eight dependent ones; the result is the same CRC-32C.
        inline constexpr auto crcTables = []
        {
            std::array<std::array<std::uint32_t, 256>, 8> tables{};
            tables[0] = crcTable;
            for(std::size_t k = 1; k < tables.size(); ++k)
                for(std::size_t i = 0; i < 256; ++i)
                    tables[k][i] = (tables[k - 1][i] >> 8U) ^ crcTable[tables[k - 1][i] & 0xFFU];
            return tables;
        }();

        //! The table path of crc32Update: advances the (pre-inverted)
        //! CRC-32C state \p crc over \p len bytes, eight bytes per step,
        //! then a bytewise tail. Portable and usable in constant
        //! expressions.
        [[nodiscard]] constexpr auto crc32UpdateTable(std::uint32_t crc, std::byte const* data, std::size_t len) noexcept
            -> std::uint32_t
        {
            auto const& t = crcTables;
            std::size_t i = 0;
            for(; len - i >= 8; i += 8)
            {
                auto const lo = crc ^ load32(data + i);
                auto const hi = load32(data + i + 4);
                crc = t[7][lo & 0xFFU] ^ t[6][(lo >> 8U) & 0xFFU] ^ t[5][(lo >> 16U) & 0xFFU] ^ t[4][lo >> 24U]
                      ^ t[3][hi & 0xFFU] ^ t[2][(hi >> 8U) & 0xFFU] ^ t[1][(hi >> 16U) & 0xFFU] ^ t[0][hi >> 24U];
            }
            for(; i < len; ++i)
                crc = crcTable[(crc ^ static_cast<std::uint32_t>(data[i])) & 0xFFU] ^ (crc >> 8U);
            return crc;
        }

#if ALPAKA_NET_CRC32_SSE42
        //! The SSE4.2 CRC32 instruction path of crc32Update (wire.cpp,
        //! compiled for that target alone): eight bytes per instruction.
        //! Call it only where hasCrc32Instruction is true.
        [[nodiscard]] auto crc32UpdateSse42(std::uint32_t crc, std::byte const* data, std::size_t len) noexcept
            -> std::uint32_t;
        //! Whether this CPU has SSE4.2, probed once at static
        //! initialisation (wire.cpp). Read earlier, it is false and
        //! crc32Update takes the table path, which gives the same value.
        extern bool const hasCrc32Instruction;
#endif

        //! Advances the (pre-inverted) CRC-32C state \p crc over \p len
        //! bytes: the CPU's CRC32 instruction where it has one, the
        //! slicing-by-8 tables elsewhere and in constant evaluation.
        [[nodiscard]] constexpr auto crc32Update(std::uint32_t crc, std::byte const* data, std::size_t len) noexcept
            -> std::uint32_t
        {
#if ALPAKA_NET_CRC32_SSE42
            if(!std::is_constant_evaluated() && hasCrc32Instruction)
                return crc32UpdateSse42(crc, data, len);
#endif
            return crc32UpdateTable(crc, data, len);
        }
    } // namespace detail

    //! CRC-32C of one frame: the 32 encoded header bytes with the crc
    //! field (offset 28) treated as zero, then the payload.
    [[nodiscard]] constexpr auto frameCrc(
        std::byte const* headerBytes,
        std::byte const* payload,
        std::size_t payloadLen) noexcept -> std::uint32_t
    {
        constexpr std::byte zeroCrc[4]{};
        auto crc = detail::crc32Update(0xFFFFFFFFU, headerBytes, 28);
        crc = detail::crc32Update(crc, zeroCrc, 4);
        if(payloadLen != 0)
            crc = detail::crc32Update(crc, payload, payloadLen);
        return crc ^ 0xFFFFFFFFU;
    }

    //! Encodes \p h into \p out (headerSize bytes), computing and
    //! embedding the crc over the header and \p payload. Never
    //! allocates, never throws — hot-path safe.
    inline void encodeHeader(
        FrameHeader const& h,
        std::byte* out,
        std::byte const* payload = nullptr,
        std::size_t payloadLen = 0) noexcept
    {
        detail::store16(out + 0, h.magic);
        out[2] = static_cast<std::byte>(h.version);
        out[3] = static_cast<std::byte>(h.type);
        detail::store16(out + 4, static_cast<std::uint16_t>(h.status));
        detail::store16(out + 6, h.shardHint);
        detail::store32(out + 8, h.tmpl);
        detail::store32(out + 12, h.payloadLen);
        detail::store64(out + 16, h.reqId);
        detail::store32(out + 24, h.deadlineUs);
        detail::store32(out + 28, 0);
        detail::store32(out + 28, frameCrc(out, payload, payloadLen));
    }

    //! Decodes and validates the HEADER checks (magic, version, type,
    //! payloadLen against \p maxPayload) from \p in (\p len available
    //! bytes) into \p out. The crc cannot be checked yet — the payload
    //! may not have arrived; call verifyCrc() once it has. Never
    //! allocates, never throws.
    [[nodiscard]] inline auto decodeHeader(std::byte const* in, std::size_t len, std::size_t maxPayload, FrameHeader& out) noexcept
        -> DecodeError
    {
        if(len < headerSize)
            return DecodeError::Truncated;
        out.magic = detail::load16(in + 0);
        if(out.magic != wireMagic)
            return DecodeError::BadMagic;
        out.version = static_cast<std::uint8_t>(in[2]);
        if(out.version != wireVersion)
            return DecodeError::BadVersion;
        auto const type = static_cast<std::uint8_t>(in[3]);
        if(type > static_cast<std::uint8_t>(FrameType::AdminData))
            return DecodeError::BadType;
        out.type = static_cast<FrameType>(type);
        out.status = static_cast<Status>(detail::load16(in + 4));
        out.shardHint = detail::load16(in + 6);
        out.tmpl = detail::load32(in + 8);
        out.payloadLen = detail::load32(in + 12);
        if(out.payloadLen > maxPayload)
            return DecodeError::Oversized;
        out.reqId = detail::load64(in + 16);
        out.deadlineUs = detail::load32(in + 24);
        out.crc = detail::load32(in + 28);
        return DecodeError::None;
    }

    //! Admin-request validity beyond the header checks: admin requests
    //! carry no payload (a scrape is a question, not a data push), and
    //! a TraceControl op must be one the server knows. Non-admin frames
    //! pass untouched. Never allocates, never throws — the session
    //! layers count the returned code like any other DecodeError.
    [[nodiscard]] constexpr auto validateAdmin(FrameHeader const& h) noexcept -> DecodeError
    {
        if(!isAdminRequest(h.type))
            return DecodeError::None;
        if(h.payloadLen != 0)
            return DecodeError::BadAdmin;
        if(h.type == FrameType::TraceControl && h.tmpl > static_cast<std::uint32_t>(TraceOp::Capture))
            return DecodeError::BadAdmin;
        return DecodeError::None;
    }

    //! The deferred half of decodeHeader: checks the embedded crc
    //! against header + fully-received payload. Never allocates.
    [[nodiscard]] inline auto verifyCrc(std::byte const* headerBytes, std::byte const* payload, std::size_t payloadLen) noexcept
        -> DecodeError
    {
        auto const embedded = detail::load32(headerBytes + 28);
        return embedded == frameCrc(headerBytes, payload, payloadLen) ? DecodeError::None : DecodeError::BadCrc;
    }
} // namespace alpaka::net
