/// \file The pipe transport's SPSC byte ring (DESIGN.md §9): copies that
/// straddle the end of the buffer, zero-length moves, and a two-thread
/// stress run in which every byte must arrive once and in order.
/// Reproducible via ALPAKA_STRESS_SEED, the repo-wide convention.
#include <net/transport.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace alpaka;

namespace
{
    [[nodiscard]] auto envSeed() -> std::uint64_t
    {
        if(char const* const env = std::getenv("ALPAKA_STRESS_SEED"))
            return std::strtoull(env, nullptr, 10);
        return 0xB17E5EEDULL;
    }

    //! Byte \p i of the stream seeded with \p seed: position-dependent,
    //! so a dropped, duplicated or reordered byte shows.
    [[nodiscard]] auto streamByte(std::uint64_t seed, std::uint64_t i) -> std::byte
    {
        auto x = (i + seed) * 0x9E3779B97F4A7C15ULL;
        x ^= x >> 29U;
        return static_cast<std::byte>(x & 0xFFU);
    }
} // namespace

//! For each capacity, park the indices just short of the end, then
//! write and read runs that wrap, across several laps.
TEST(ByteRing, WriteAndReadStraddleTheEnd)
{
    for(std::size_t const capacity : {std::size_t{7}, std::size_t{61}, std::size_t{4099}})
    {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        net::detail::ByteRing ring(capacity);
        std::vector<std::byte> in(capacity);
        std::vector<std::byte> out(capacity);
        std::uint64_t written = 0;
        std::uint64_t read = 0;

        // Advance both indices to capacity - 2: the next write of more
        // than two bytes wraps.
        for(std::size_t i = 0; i < capacity - 2; ++i)
            in[i] = streamByte(capacity, written++);
        ASSERT_EQ(ring.write(in.data(), capacity - 2), capacity - 2);
        ASSERT_EQ(ring.read(out.data(), capacity - 2), capacity - 2);
        read += capacity - 2;

        for(int lap = 0; lap < 5; ++lap)
        {
            // Fill the ring completely: this write straddles the end.
            for(std::size_t i = 0; i < capacity; ++i)
                in[i] = streamByte(capacity, written + i);
            ASSERT_EQ(ring.write(in.data(), capacity + 3), capacity) << "lap " << lap;
            written += capacity;
            EXPECT_EQ(ring.write(in.data(), 1), 0U) << "a full ring accepts nothing";

            // Drain it: this read straddles the end as well.
            ASSERT_EQ(ring.read(out.data(), capacity + 3), capacity);
            for(std::size_t i = 0; i < capacity; ++i)
                ASSERT_EQ(out[i], streamByte(capacity, read + i)) << "lap " << lap << " byte " << i;
            read += capacity;
            EXPECT_TRUE(ring.empty());
            EXPECT_EQ(ring.read(out.data(), 1), 0U) << "an empty ring yields nothing";

            // Shift the wrap point for the next lap.
            auto const step = static_cast<std::size_t>(lap) % capacity + 1;
            for(std::size_t i = 0; i < step; ++i)
                in[i] = streamByte(capacity, written + i);
            ASSERT_EQ(ring.write(in.data(), step), step);
            written += step;
            ASSERT_EQ(ring.read(out.data(), step), step);
            for(std::size_t i = 0; i < step; ++i)
                ASSERT_EQ(out[i], streamByte(capacity, read + i));
            read += step;
        }
    }
}

//! Zero-length moves succeed with 0 and change nothing, including with
//! null pointers (no memcpy is handed one).
TEST(ByteRing, ZeroLengthSendAndRecv)
{
    net::detail::ByteRing ring(7);
    EXPECT_EQ(ring.write(nullptr, 0), 0U);
    EXPECT_EQ(ring.read(nullptr, 0), 0U);
    EXPECT_TRUE(ring.empty());

    std::byte const in[3]{std::byte{1}, std::byte{2}, std::byte{3}};
    std::byte out[3]{};
    ASSERT_EQ(ring.write(in, 3), 3U);
    EXPECT_EQ(ring.write(in, 0), 0U);
    EXPECT_EQ(ring.read(out, 0), 0U);
    ASSERT_EQ(ring.read(out, 3), 3U);
    EXPECT_EQ(out[2], std::byte{3});

    auto [a, b] = net::makePipePair(7);
    EXPECT_EQ(a->send(nullptr, 0), 0);
    EXPECT_EQ(b->recv(nullptr, 0), 0);
}

//! One producer writes a seeded stream in random chunks of 1 to
//! capacity + 3 bytes; one consumer reads random chunk sizes and checks
//! every byte in order. Bounded by bytes and by a 2 s wall clock.
TEST(ByteRing, SpscStressDeliversEveryByteInOrder)
{
    auto const seed = envSeed();
    SCOPED_TRACE("ALPAKA_STRESS_SEED=" + std::to_string(seed));
    for(std::size_t const capacity : {std::size_t{7}, std::size_t{61}, std::size_t{4099}})
    {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        net::detail::ByteRing ring(capacity);
        constexpr std::uint64_t totalBytes = 4'000'000;
        auto const deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(600);
        std::atomic<std::uint64_t> produced{0};
        std::atomic<bool> stop{false};

        std::thread producer(
            [&]
            {
                std::mt19937_64 rng(seed);
                std::vector<std::byte> chunk(capacity + 3);
                std::uint64_t sent = 0;
                while(sent < totalBytes && !stop.load(std::memory_order_relaxed))
                {
                    auto const want = static_cast<std::size_t>(1 + rng() % (capacity + 3));
                    for(std::size_t i = 0; i < want; ++i)
                        chunk[i] = streamByte(seed, sent + i);
                    std::size_t done = 0;
                    while(done < want && !stop.load(std::memory_order_relaxed))
                    {
                        auto const n = ring.write(chunk.data() + done, want - done);
                        done += n;
                        if(n == 0)
                            std::this_thread::yield();
                    }
                    sent += done;
                }
                produced.store(sent, std::memory_order_release);
                ring.close();
            });

        std::mt19937_64 rng(seed ^ 0xC0115EEDULL);
        std::vector<std::byte> chunk(capacity + 3);
        std::uint64_t received = 0;
        std::uint64_t firstBad = ~std::uint64_t{0};
        for(;;)
        {
            auto const want = static_cast<std::size_t>(1 + rng() % (capacity + 3));
            auto const n = ring.read(chunk.data(), want);
            for(std::size_t i = 0; i < n && firstBad == ~std::uint64_t{0}; ++i)
                if(chunk[i] != streamByte(seed, received + i))
                    firstBad = received + i;
            received += n;
            if(firstBad != ~std::uint64_t{0} || std::chrono::steady_clock::now() > deadline)
                stop.store(true, std::memory_order_relaxed);
            if(n == 0)
            {
                if(ring.closed() && ring.empty())
                    break;
                std::this_thread::yield();
            }
        }
        producer.join();
        EXPECT_EQ(firstBad, ~std::uint64_t{0}) << "stream byte " << firstBad << " arrived wrong";
        EXPECT_EQ(received, produced.load(std::memory_order_acquire));
        EXPECT_GT(received, 0U);
    }
}
