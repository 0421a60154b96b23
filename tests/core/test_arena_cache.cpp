/// \file Steady-state allocation behaviour of the launch engine: after a
/// warm-up launch, kernel launches on the CPU back-ends perform zero
/// shared-arena heap allocations (DESIGN.md "Zero-overhead launch engine").
#include <alpaka/alpaka.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>

// ---------------------------------------------------------------------
// Global allocation counter: counts every operator new in this binary.

namespace
{
    std::atomic<std::uint64_t> g_allocCount{0};
} // namespace

auto operator new(std::size_t size) -> void*
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if(auto* p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

auto operator new[](std::size_t size) -> void*
{
    return ::operator new(size);
}

void operator delete(void* p) noexcept
{
    std::free(p);
}
void operator delete[](void* p) noexcept
{
    std::free(p);
}
void operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

// ---------------------------------------------------------------------

using namespace alpaka;
using Size = std::size_t;

namespace
{
    struct TouchSharedKernel
    {
        template<typename TAcc>
        ALPAKA_FN_ACC void operator()(TAcc const& acc, std::uint64_t* sink) const
        {
            // Exercise the arena so the cache cannot be optimized away.
            auto& v = block::shared::st::allocVar<std::uint64_t>(acc);
            v = idx::getIdx<Grid, Blocks>(acc)[0];
            atomic::atomicAdd(acc, sink, v);
        }
    };

    //! Allocations across \p launches steady-state launches of \p Acc.
    template<typename TAcc>
    auto allocationsPerSteadyStateLaunch(std::size_t launches) -> std::uint64_t
    {
        auto const dev = dev::DevMan<TAcc>::getDevByIdx(0);
        stream::StreamCpuSync stream(dev);
        auto const wd = workdiv::table2WorkDiv<TAcc>(Size{64}, Size{1}, Size{1});
        std::uint64_t sink = 0;
        auto const exec = exec::create<TAcc>(wd, TouchSharedKernel{}, &sink);

        // Warm up: first launch may allocate arenas, pool stacks, ...
        for(int i = 0; i < 3; ++i)
            stream::enqueue(stream, exec);

        auto const before = g_allocCount.load();
        for(std::size_t i = 0; i < launches; ++i)
            stream::enqueue(stream, exec);
        return g_allocCount.load() - before;
    }

    //! Has every global-pool thread (workers and the helping caller) take
    //! its arena for \p TAcc. A warm-up launch of cheap blocks can finish
    //! on the caller before a parked worker wakes; that worker's first
    //! block would then allocate inside the measured window. Each index
    //! holds its thread until all have arrived, so every thread runs one.
    template<typename TAcc>
    void warmEveryPoolThreadArena()
    {
        auto const capacity = acc::getAccDevProps<TAcc>(dev::DevMan<TAcc>::getDevByIdx(0)).sharedMemSizeBytes;
        auto& pool = threadpool::ThreadPool::global();
        auto const threads = pool.workerCount() + 1;
        auto const deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
        std::atomic<std::size_t> arrived{0};
        pool.parallelFor(
            threads,
            [&](std::size_t)
            {
                (void) acc::SharedArenaCache::get(capacity);
                arrived.fetch_add(1);
                while(arrived.load() < threads && std::chrono::steady_clock::now() < deadline)
                    std::this_thread::yield();
            });
        ASSERT_EQ(arrived.load(), threads);
    }
} // namespace

TEST(ArenaCache, ReusesArenaAcrossCallsAndGrowsMonotonically)
{
    acc::SharedArenaCache::reset();
    auto* small = acc::SharedArenaCache::get(1024);
    ASSERT_NE(small, nullptr);
    EXPECT_EQ(acc::SharedArenaCache::get(512), small); // reuse, no shrink
    EXPECT_EQ(acc::SharedArenaCache::get(1024), small);
    EXPECT_GE(acc::SharedArenaCache::capacity(), 1024u);
    auto* big = acc::SharedArenaCache::get(4096);
    EXPECT_GE(acc::SharedArenaCache::capacity(), 4096u);
    EXPECT_EQ(acc::SharedArenaCache::get(4096), big);
    acc::SharedArenaCache::reset();
}

TEST(ArenaCache, SteadyStateSerialLaunchesAllocateNothing)
{
    EXPECT_EQ((allocationsPerSteadyStateLaunch<acc::AccCpuSerial<Dim1, Size>>(100)), 0u);
}

TEST(ArenaCache, SteadyStateTaskBlocksLaunchesAllocateNothing)
{
    warmEveryPoolThreadArena<acc::AccCpuTaskBlocks<Dim1, Size>>();
    EXPECT_EQ((allocationsPerSteadyStateLaunch<acc::AccCpuTaskBlocks<Dim1, Size>>(100)), 0u);
}

TEST(ArenaCache, SteadyStateOmp2BlocksLaunchesAllocateNothing)
{
    EXPECT_EQ((allocationsPerSteadyStateLaunch<acc::AccCpuOmp2Blocks<Dim1, Size>>(100)), 0u);
}

TEST(ArenaCache, SharedMemContentsStillBlockPrivatePerLaunch)
{
    // The cached arena is reused, but each launch re-carves it; a kernel
    // writing then reading its shared variable must never observe a
    // torn/foreign value within one block.
    using Acc = acc::AccCpuTaskBlocks<Dim1, Size>;
    auto const dev = dev::DevMan<Acc>::getDevByIdx(0);
    stream::StreamCpuSync stream(dev);
    auto const wd = workdiv::table2WorkDiv<Acc>(Size{128}, Size{1}, Size{1});
    for(int round = 0; round < 10; ++round)
    {
        std::uint64_t sink = 0;
        stream::enqueue(stream, exec::create<Acc>(wd, TouchSharedKernel{}, &sink));
        // sum of block indices 0..127
        EXPECT_EQ(sink, 127u * 128u / 2u);
    }
}
