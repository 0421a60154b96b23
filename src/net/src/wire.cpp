/// \file Out-of-line parts of the wire protocol: raise(), and the
/// CRC32-instruction path of the frame CRC. The codec itself is inline
/// and allocation-free; keeping the throw (which allocates its message)
/// out of line keeps the decoder's codegen free of EH bloat on the poll
/// path, and the instruction path is the only code of the build
/// compiled for SSE4.2, so it runs only where the CPU probe found it.

#include "net/wire.hpp"

#include <cstring>
#include <string>

#if ALPAKA_NET_CRC32_SSE42
#    include <nmmintrin.h>
#endif

namespace alpaka::net
{
#if ALPAKA_NET_CRC32_SSE42
    namespace detail
    {
        // __builtin_cpu_init first: this initialiser may run before
        // libgcc's own CPU-model constructor.
        bool const hasCrc32Instruction = []
        {
            __builtin_cpu_init();
            return __builtin_cpu_supports("sse4.2") != 0;
        }();

        __attribute__((target("sse4.2"))) auto crc32UpdateSse42(
            std::uint32_t crc,
            std::byte const* data,
            std::size_t len) noexcept -> std::uint32_t
        {
            std::uint64_t state = crc;
            for(; len >= 8; data += 8, len -= 8)
            {
                std::uint64_t word = 0;
                std::memcpy(&word, data, 8);
                state = _mm_crc32_u64(state, word);
            }
            auto c = static_cast<std::uint32_t>(state);
            if(len >= 4)
            {
                std::uint32_t word = 0;
                std::memcpy(&word, data, 4);
                c = _mm_crc32_u32(c, word);
                data += 4;
                len -= 4;
            }
            for(; len != 0; ++data, --len)
                c = _mm_crc32_u8(c, static_cast<std::uint8_t>(*data));
            return c;
        }
    } // namespace detail
#endif

    void raise(DecodeError code)
    {
        auto const what = std::string("net: protocol error: ") + std::string(toString(code));
        switch(code)
        {
        case DecodeError::Truncated:
            throw TruncatedFrameError(code, what);
        case DecodeError::BadMagic:
            throw BadMagicError(code, what);
        case DecodeError::BadVersion:
            throw BadVersionError(code, what);
        case DecodeError::BadType:
            throw BadFrameTypeError(code, what);
        case DecodeError::Oversized:
            throw OversizedFrameError(code, what);
        case DecodeError::BadCrc:
            throw BadCrcError(code, what);
        case DecodeError::BadAdmin:
            throw BadAdminError(code, what);
        case DecodeError::None:
            break;
        }
        throw UsageError("net::raise(DecodeError::None): raising success is caller misuse");
    }
} // namespace alpaka::net
