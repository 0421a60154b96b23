/// \file Wire-codec correctness and hostility (DESIGN.md §9.1,
/// satellite c): exact layout pinning, field round-trips, the
/// check-order of the decode guards, the typed error taxonomy, and a
/// seeded fuzz loop — random truncation, bit flips, and garbage must
/// always come back as a typed DecodeError, never a crash, a hang, or
/// (checked under ALPAKA_REPRO_ALLOCTRACK) a heap allocation.
/// Reproducible via ALPAKA_STRESS_SEED, the repo-wide convention.
#include <net/wire.hpp>

#include <alpaka/core/alloctrack.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

using namespace alpaka;

namespace
{
    [[nodiscard]] auto envSeed() -> std::uint64_t
    {
        if(char const* const env = std::getenv("ALPAKA_STRESS_SEED"))
            return std::strtoull(env, nullptr, 10);
        return 0xA1FA2026ULL;
    }

    [[nodiscard]] auto sampleHeader() -> net::FrameHeader
    {
        net::FrameHeader h;
        h.type = net::FrameType::Request;
        h.status = net::Status::Ok;
        h.shardHint = 7;
        h.tmpl = 42;
        h.payloadLen = 16;
        h.reqId = 0x1122334455667788ULL;
        h.deadlineUs = 2500;
        return h;
    }

    [[nodiscard]] auto samplePayload() -> std::array<std::byte, 16>
    {
        std::array<std::byte, 16> p{};
        for(std::size_t i = 0; i < p.size(); ++i)
            p[i] = static_cast<std::byte>(i * 3 + 1);
        return p;
    }
} // namespace

TEST(NetWire, HeaderFieldsRoundTrip)
{
    auto const h = sampleHeader();
    auto const payload = samplePayload();
    std::array<std::byte, net::headerSize> buf{};
    net::encodeHeader(h, buf.data(), payload.data(), payload.size());

    net::FrameHeader out;
    ASSERT_EQ(net::decodeHeader(buf.data(), buf.size(), 1024, out), net::DecodeError::None);
    EXPECT_EQ(out.magic, net::wireMagic);
    EXPECT_EQ(out.version, net::wireVersion);
    EXPECT_EQ(out.type, h.type);
    EXPECT_EQ(out.status, h.status);
    EXPECT_EQ(out.shardHint, h.shardHint);
    EXPECT_EQ(out.tmpl, h.tmpl);
    EXPECT_EQ(out.payloadLen, h.payloadLen);
    EXPECT_EQ(out.reqId, h.reqId);
    EXPECT_EQ(out.deadlineUs, h.deadlineUs);
    EXPECT_EQ(net::verifyCrc(buf.data(), payload.data(), payload.size()), net::DecodeError::None);
}

//! The wire layout is a protocol constant, not an implementation detail:
//! pin the byte offsets so an accidental field reorder is a test failure,
//! not a silent interop break.
TEST(NetWire, LayoutIsPinnedLittleEndian)
{
    auto h = sampleHeader();
    h.payloadLen = 0x0A0B0C0D;
    std::array<std::byte, net::headerSize> buf{};
    net::encodeHeader(h, buf.data(), nullptr, 0);

    EXPECT_EQ(static_cast<unsigned>(buf[0]), 0xFAU); // magic LE low byte
    EXPECT_EQ(static_cast<unsigned>(buf[1]), 0xA1U);
    EXPECT_EQ(static_cast<unsigned>(buf[2]), net::wireVersion);
    EXPECT_EQ(static_cast<unsigned>(buf[3]), static_cast<unsigned>(net::FrameType::Request));
    EXPECT_EQ(static_cast<unsigned>(buf[6]), 7U); // shardHint LE at [6]
    EXPECT_EQ(static_cast<unsigned>(buf[12]), 0x0DU); // payloadLen LE at [12]
    EXPECT_EQ(static_cast<unsigned>(buf[13]), 0x0CU);
    EXPECT_EQ(static_cast<unsigned>(buf[16]), 0x88U); // reqId LE at [16]
    EXPECT_EQ(static_cast<unsigned>(buf[23]), 0x11U);
}

//! decodeHeader's guards fire in documented order; each corruption is
//! caught by the FIRST applicable guard.
TEST(NetWire, GuardOrderAndTaxonomy)
{
    auto const h = sampleHeader();
    auto const payload = samplePayload();
    std::array<std::byte, net::headerSize> good{};
    net::encodeHeader(h, good.data(), payload.data(), payload.size());
    net::FrameHeader out;

    EXPECT_EQ(net::decodeHeader(good.data(), 31, 1024, out), net::DecodeError::Truncated);

    auto bad = good;
    bad[0] = std::byte{0x00};
    EXPECT_EQ(net::decodeHeader(bad.data(), bad.size(), 1024, out), net::DecodeError::BadMagic);

    bad = good;
    bad[2] = std::byte{99};
    EXPECT_EQ(net::decodeHeader(bad.data(), bad.size(), 1024, out), net::DecodeError::BadVersion);

    bad = good;
    bad[3] = std::byte{200};
    EXPECT_EQ(net::decodeHeader(bad.data(), bad.size(), 1024, out), net::DecodeError::BadType);

    // payloadLen (16) over the receiver's capacity.
    EXPECT_EQ(net::decodeHeader(good.data(), good.size(), 8, out), net::DecodeError::Oversized);

    // A valid header whose payload was corrupted: only the crc knows.
    auto tampered = samplePayload();
    tampered[5] ^= std::byte{0x01};
    EXPECT_EQ(net::decodeHeader(good.data(), good.size(), 1024, out), net::DecodeError::None);
    EXPECT_EQ(net::verifyCrc(good.data(), tampered.data(), tampered.size()), net::DecodeError::BadCrc);
}

TEST(NetWire, RaiseThrowsTheMatchingSubclass)
{
    EXPECT_THROW(net::raise(net::DecodeError::Truncated), net::TruncatedFrameError);
    EXPECT_THROW(net::raise(net::DecodeError::BadMagic), net::BadMagicError);
    EXPECT_THROW(net::raise(net::DecodeError::BadVersion), net::BadVersionError);
    EXPECT_THROW(net::raise(net::DecodeError::BadType), net::BadFrameTypeError);
    EXPECT_THROW(net::raise(net::DecodeError::Oversized), net::OversizedFrameError);
    EXPECT_THROW(net::raise(net::DecodeError::BadCrc), net::BadCrcError);
    // Every subclass is catchable as the base, carrying its code.
    try
    {
        net::raise(net::DecodeError::BadCrc);
        FAIL() << "raise returned";
    }
    catch(net::ProtocolError const& e)
    {
        EXPECT_EQ(e.code(), net::DecodeError::BadCrc);
        EXPECT_NE(std::string(e.what()).find("crc"), std::string::npos);
    }
    EXPECT_THROW(net::raise(net::DecodeError::None), UsageError);
}

//! The fuzz satellite: every corruption of a valid frame must come back
//! as a typed code — and the decode loop itself must never allocate
//! (asserted when the counting allocator is linked in).
TEST(NetWire, FuzzedCorruptionAlwaysYieldsTypedError)
{
    auto const seed = envSeed();
    SCOPED_TRACE("ALPAKA_STRESS_SEED=" + std::to_string(seed));
    std::mt19937_64 rng(seed);

    constexpr std::size_t maxPayload = 64;
    std::array<std::byte, net::headerSize + maxPayload> frame{};
    std::array<std::byte, net::headerSize + maxPayload> mutated{};

    auto const before = core::allocCount();
    std::uint64_t caught = 0;
    for(int iter = 0; iter < 20'000; ++iter)
    {
        net::FrameHeader h;
        h.type = static_cast<net::FrameType>(rng() % 6);
        h.tmpl = static_cast<std::uint32_t>(rng());
        h.reqId = rng();
        h.deadlineUs = static_cast<std::uint32_t>(rng() % 10'000);
        h.payloadLen = static_cast<std::uint32_t>(rng() % (maxPayload + 1));
        for(std::size_t i = 0; i < h.payloadLen; ++i)
            frame[net::headerSize + i] = static_cast<std::byte>(rng());
        net::encodeHeader(h, frame.data(), frame.data() + net::headerSize, h.payloadLen);
        auto const frameBytes = net::headerSize + h.payloadLen;

        mutated = frame;
        std::size_t avail = frameBytes;
        auto const mode = rng() % 3;
        if(mode == 0)
        {
            // Truncate: fewer bytes than the frame claims.
            avail = rng() % frameBytes;
        }
        else if(mode == 1)
        {
            // Flip 1..4 bits anywhere in the frame. Two flips can land on
            // the same bit and cancel — re-flip one bit so the mutation
            // is never the identity.
            auto const flips = 1 + rng() % 4;
            for(std::uint64_t f = 0; f < flips; ++f)
                mutated[rng() % frameBytes] ^= static_cast<std::byte>(1U << (rng() % 8));
            if(std::memcmp(mutated.data(), frame.data(), frameBytes) == 0)
                mutated[rng() % frameBytes] ^= static_cast<std::byte>(1U << (rng() % 8));
        }
        else
        {
            // Pure garbage.
            for(std::size_t i = 0; i < frameBytes; ++i)
                mutated[i] = static_cast<std::byte>(rng());
        }

        net::FrameHeader out;
        auto err = net::decodeHeader(mutated.data(), avail < net::headerSize ? avail : net::headerSize, maxPayload, out);
        if(err == net::DecodeError::None)
        {
            if(avail < net::headerSize + out.payloadLen)
                err = net::DecodeError::Truncated;
            else
                err = net::verifyCrc(mutated.data(), mutated.data() + net::headerSize, out.payloadLen);
        }
        // Identity mutations cannot happen by construction: truncation
        // is strictly short, the flip mode re-flips when its pattern
        // cancelled out, and a 32-bit crc collision under a fixed seed
        // would have shown up in the first run. So: every iteration
        // must report.
        ASSERT_NE(err, net::DecodeError::None) << "iter " << iter << " mode " << mode;
        ++caught;
    }
    EXPECT_EQ(caught, 20'000U);
    if(core::allocTrackEnabled())
        EXPECT_EQ(core::allocCount(), before) << "frame decode allocated";
}

//! Un-corrupted fuzz frames decode clean — the fuzzer's oracle is not
//! vacuously rejecting everything.
TEST(NetWire, FuzzedValidFramesDecodeClean)
{
    std::mt19937_64 rng(envSeed() ^ 0x5EEDULL);
    constexpr std::size_t maxPayload = 64;
    std::vector<std::byte> frame(net::headerSize + maxPayload);
    for(int iter = 0; iter < 5'000; ++iter)
    {
        net::FrameHeader h;
        h.type = static_cast<net::FrameType>(rng() % 6);
        h.reqId = rng();
        h.payloadLen = static_cast<std::uint32_t>(rng() % (maxPayload + 1));
        for(std::size_t i = 0; i < h.payloadLen; ++i)
            frame[net::headerSize + i] = static_cast<std::byte>(rng());
        net::encodeHeader(h, frame.data(), frame.data() + net::headerSize, h.payloadLen);

        net::FrameHeader out;
        ASSERT_EQ(net::decodeHeader(frame.data(), net::headerSize, maxPayload, out), net::DecodeError::None);
        ASSERT_EQ(net::verifyCrc(frame.data(), frame.data() + net::headerSize, out.payloadLen), net::DecodeError::None);
        ASSERT_EQ(out.reqId, h.reqId);
    }
}

// ------------------------------------------------------------------
// Known answers: the CRC and the frame bytes are protocol constants, so
// a faster codec must reproduce them exactly.

namespace
{
    //! Bit-at-a-time reference CRC-32C (reflected 0x82F63B78), kept here
    //! independent of the codec's tables and of the CRC32 instruction.
    [[nodiscard]] constexpr auto referenceCrc(std::uint32_t crc, std::byte const* data, std::size_t len)
        -> std::uint32_t
    {
        for(std::size_t i = 0; i < len; ++i)
        {
            crc ^= static_cast<std::uint32_t>(data[i]);
            for(int k = 0; k < 8; ++k)
                crc = (crc & 1U) != 0 ? 0x82F63B78U ^ (crc >> 1U) : crc >> 1U;
        }
        return crc;
    }

    //! The CRC check input, "123456789".
    constexpr auto checkInput = []
    {
        std::array<std::byte, 9> bytes{};
        for(std::size_t i = 0; i < bytes.size(); ++i)
            bytes[i] = static_cast<std::byte>('1' + i);
        return bytes;
    }();

    //! The CRC-32C check value of "123456789" (RFC 3720, B.4).
    constexpr std::uint32_t checkValue = 0xE3069283U;
} // namespace

// crc32Update stays usable in a constant expression (the table path),
// and the reference agrees with the published check value.
static_assert((net::detail::crc32Update(0xFFFFFFFFU, checkInput.data(), checkInput.size()) ^ 0xFFFFFFFFU) == checkValue);
static_assert((referenceCrc(0xFFFFFFFFU, checkInput.data(), checkInput.size()) ^ 0xFFFFFFFFU) == checkValue);

//! The CRC-32C check value at run time, through the dispatched path and
//! the table path alike.
TEST(NetWire, Crc32cCheckValue)
{
    auto const* const bytes = reinterpret_cast<std::byte const*>("123456789");
    EXPECT_EQ(net::detail::crc32Update(0xFFFFFFFFU, bytes, 9) ^ 0xFFFFFFFFU, checkValue);
    EXPECT_EQ(net::detail::crc32UpdateTable(0xFFFFFFFFU, bytes, 9) ^ 0xFFFFFFFFU, checkValue);
}

//! Every input length 0..200 (all eight-byte-block/tail splits), random
//! bytes and random start states, against the bitwise reference.
TEST(NetWire, Crc32cMatchesBitwiseReference)
{
    auto const seed = envSeed();
    SCOPED_TRACE("ALPAKA_STRESS_SEED=" + std::to_string(seed));
    std::mt19937_64 rng(seed ^ 0xC4C32ULL);
    std::vector<std::byte> data(200);
    for(int iter = 0; iter < 20'000; ++iter)
    {
        auto const len = static_cast<std::size_t>(iter % 201);
        auto const offset = static_cast<std::size_t>(rng() % (data.size() - len + 1));
        for(auto& b : data)
            b = static_cast<std::byte>(rng());
        auto const start = static_cast<std::uint32_t>(rng());
        ASSERT_EQ(
            net::detail::crc32Update(start, data.data() + offset, len),
            referenceCrc(start, data.data() + offset, len))
            << "iter " << iter << " len " << len << " offset " << offset;
    }
}

//! The table path called directly — the one a CPU without a CRC32
//! instruction runs, exercised here on any host — against the dispatched
//! path and the bitwise reference: lengths 0..64 at eight start offsets
//! (every alignment of the eight-byte steps).
TEST(NetWire, Crc32cTablePathMatchesTheDispatchedPath)
{
    std::mt19937_64 rng(envSeed() ^ 0x7AB1EULL);
    std::array<std::byte, 64 + 8> data{};
    for(auto& b : data)
        b = static_cast<std::byte>(rng());
    for(std::size_t offset = 0; offset < 8; ++offset)
        for(std::size_t len = 0; len <= 64; ++len)
        {
            auto const start = static_cast<std::uint32_t>(rng());
            auto const* const at = data.data() + offset;
            auto const table = net::detail::crc32UpdateTable(start, at, len);
            EXPECT_EQ(table, referenceCrc(start, at, len)) << "len " << len << " offset " << offset;
            EXPECT_EQ(table, net::detail::crc32Update(start, at, len)) << "len " << len << " offset " << offset;
        }
}

//! A whole 48-byte Request frame (header + 16-byte payload, CRC
//! embedded), byte for byte: the wire format does not move. The CRC
//! bytes are the bitwise reference's, checked here too.
TEST(NetWire, GoldenRequestFrame)
{
    constexpr std::array<unsigned, 48> golden{
        0xFA, 0xA1, 0x03, 0x02, 0x00, 0x00, 0x07, 0x00, // magic, version, type, status, shardHint
        0x2A, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, // tmpl, payloadLen
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // reqId
        0xC4, 0x09, 0x00, 0x00, 0xF3, 0xF4, 0xCC, 0xF6, // deadlineUs, crc
        0x01, 0x04, 0x07, 0x0A, 0x0D, 0x10, 0x13, 0x16, // payload
        0x19, 0x1C, 0x1F, 0x22, 0x25, 0x28, 0x2B, 0x2E};
    std::array<std::byte, golden.size()> goldenBytes{};
    for(std::size_t i = 0; i < golden.size(); ++i)
        goldenBytes[i] = static_cast<std::byte>(golden[i]);
    auto zeroedCrc = goldenBytes;
    std::fill_n(zeroedCrc.begin() + 28, 4, std::byte{0});
    EXPECT_EQ(
        referenceCrc(0xFFFFFFFFU, zeroedCrc.data(), zeroedCrc.size()) ^ 0xFFFFFFFFU,
        net::detail::load32(goldenBytes.data() + 28))
        << "the golden CRC bytes are the reference CRC-32C of the frame";

    auto const payload = samplePayload();
    std::array<std::byte, net::headerSize + 16> frame{};
    net::encodeHeader(sampleHeader(), frame.data(), payload.data(), payload.size());
    std::memcpy(frame.data() + net::headerSize, payload.data(), payload.size());
    for(std::size_t i = 0; i < golden.size(); ++i)
        EXPECT_EQ(static_cast<unsigned>(frame[i]), golden[i]) << "byte " << i;
    EXPECT_EQ(net::verifyCrc(frame.data(), frame.data() + net::headerSize, 16), net::DecodeError::None);
}

//! A version-2 frame (CRC-32 framing) is refused at the version guard,
//! before its CRC is looked at.
TEST(NetWire, VersionTwoFrameIsRefused)
{
    auto h = sampleHeader();
    h.version = 2;
    auto const payload = samplePayload();
    std::array<std::byte, net::headerSize> buf{};
    net::encodeHeader(h, buf.data(), payload.data(), payload.size());
    net::FrameHeader out;
    EXPECT_EQ(net::decodeHeader(buf.data(), buf.size(), 1024, out), net::DecodeError::BadVersion);
}
