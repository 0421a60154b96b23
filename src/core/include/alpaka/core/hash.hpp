/// \file The stack's one string hash and one 64-bit mixer: the router's
/// consistent-hash ring and the fault plan's seeded schedules both
/// derive from these, so a placement or a fault schedule re-derived
/// offline matches the running system bit for bit.
#pragma once

#include <cstdint>
#include <string_view>

namespace alpaka::core
{
    //! FNV-1a over \p s, continuing from state \p h.
    [[nodiscard]] constexpr auto fnv1a(std::string_view s, std::uint64_t h = 14695981039346656037ULL) noexcept
        -> std::uint64_t
    {
        for(char const c : s)
        {
            h ^= static_cast<std::uint8_t>(c);
            h *= 1099511628211ULL;
        }
        return h;
    }

    //! splitmix64's finalizer. FNV-1a alone moves the hash of names that
    //! differ only in their last byte by little, so sequential names
    //! cluster; mixing the state spreads every input bit over all 64.
    //! splitmix64(x) is mix64(x + 0x9E3779B97F4A7C15).
    [[nodiscard]] constexpr auto mix64(std::uint64_t h) noexcept -> std::uint64_t
    {
        h ^= h >> 30;
        h *= 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 27;
        h *= 0x94d049bb133111ebULL;
        h ^= h >> 31;
        return h;
    }
} // namespace alpaka::core
