/// \file Tests of the stream-ordered memory pool (DESIGN.md §5):
/// size-class recycling, the no-fence same-stream fast path, event-fenced
/// cross-stream reuse, trim/OOM behaviour, typed misuse errors, buffer
/// adoption through mem::buf::allocAsync/freeAsync, and concurrent
/// alloc/free churn from many streams (run under TSan/ASan/UBSan in CI).
#include <alpaka/alpaka.hpp>
#include <mempool/pool.hpp>
#include <mempool/stream_ops.hpp>

#include <gpusim/memory.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <new>
#include <thread>
#include <vector>

using namespace alpaka;
using Size = std::size_t;

namespace
{
    //! Upstream over the host allocator that counts traffic, so tests can
    //! assert when the pool did (not) go to the system allocator.
    struct CountingUpstream
    {
        std::atomic<std::size_t> allocs{0};
        std::atomic<std::size_t> frees{0};
        std::atomic<std::size_t> liveBytes{0};

        [[nodiscard]] auto upstream() -> mempool::Upstream
        {
            return {
                [this](std::size_t bytes)
                {
                    ++allocs;
                    liveBytes += bytes;
                    return ::operator new[](bytes, std::align_val_t{256});
                },
                [this](void* ptr, std::size_t bytes)
                {
                    ++frees;
                    liveBytes -= bytes;
                    ::operator delete[](ptr, std::align_val_t{256});
                }};
        }
    };

    //! A fence the test flips by hand.
    struct ManualFence
    {
        std::shared_ptr<std::atomic<bool>> open = std::make_shared<std::atomic<bool>>(false);

        [[nodiscard]] auto fence() const -> mempool::Fence
        {
            return mempool::Fence{[state = open] { return state->load(); }};
        }
    };

    struct FillKernel
    {
        template<typename TAcc>
        ALPAKA_FN_ACC void operator()(TAcc const& acc, double* out, double value) const
        {
            auto const i = idx::getIdx<Grid, Blocks>(acc)[0];
            out[i] = value;
        }
    };

    using Acc = acc::AccCpuTaskBlocks<Dim1, Size>;

    auto const hostDev = dev::PltfCpu::getDevByIdx(0);
} // namespace

// ---------------------------------------------------------------- pool core

TEST(MemPool, SizeClassRoundingAndIntrospection)
{
    CountingUpstream upstream;
    mempool::Pool pool(upstream.upstream());
    int streamTag = 0;

    void* const p = pool.allocOrdered(&streamTag, 100); // -> 256 B class
    EXPECT_NE(p, nullptr);
    EXPECT_EQ(pool.bytesHeld(), 256u);
    EXPECT_EQ(pool.bytesInUse(), 256u);
    EXPECT_EQ(upstream.allocs.load(), 1u);

    void* const q = pool.allocOrdered(&streamTag, 257); // -> 512 B class
    EXPECT_NE(q, p);
    EXPECT_EQ(pool.bytesHeld(), 768u);
    EXPECT_EQ(pool.highWaterBytes(), 768u);

    pool.freeOrdered(&streamTag, p, {});
    pool.freeOrdered(&streamTag, q, {});
    EXPECT_EQ(pool.bytesInUse(), 0u);
    EXPECT_EQ(pool.bytesHeld(), 768u) << "freed blocks stay cached";
    EXPECT_EQ(pool.blocksCached(), 2u);

    // Recycled, not re-allocated: LIFO hands the same addresses back.
    EXPECT_EQ(pool.allocOrdered(&streamTag, 100), p);
    EXPECT_EQ(pool.allocOrdered(&streamTag, 300), q);
    EXPECT_EQ(upstream.allocs.load(), 2u);
    EXPECT_EQ(pool.cacheHits(), 2u);
    EXPECT_EQ(pool.highWaterBytes(), 768u);
}

TEST(MemPool, SameStreamReuseIgnoresPendingFence)
{
    CountingUpstream upstream;
    mempool::Pool pool(upstream.upstream());
    int streamA = 0;
    int streamB = 0;
    ManualFence fence; // never opened in this test

    void* const p = pool.allocOrdered(&streamA, 4096);
    pool.freeOrdered(&streamA, p, fence.fence());

    // The freeing stream gets its block back instantly (in-order queue =
    // implicit fence) ...
    EXPECT_EQ(pool.allocOrdered(&streamA, 4096), p);
    pool.freeOrdered(&streamA, p, fence.fence());

    // ... while a foreign stream must not see it and goes upstream.
    void* const q = pool.allocOrdered(&streamB, 4096);
    EXPECT_NE(q, p);
    EXPECT_EQ(upstream.allocs.load(), 2u);
}

TEST(MemPool, CrossStreamReuseWaitsForFence)
{
    CountingUpstream upstream;
    mempool::Pool pool(upstream.upstream());
    int streamA = 0;
    int streamB = 0;
    ManualFence fence;

    void* const p = pool.allocOrdered(&streamA, 1024);
    pool.freeOrdered(&streamA, p, fence.fence());

    void* const miss = pool.allocOrdered(&streamB, 1024);
    EXPECT_NE(miss, p) << "fence still pending: B may not reuse A's block";

    fence.open->store(true);
    EXPECT_EQ(pool.allocOrdered(&streamB, 1024), p) << "fence complete: block crosses streams";
}

TEST(MemPool, TypedMisuseErrors)
{
    CountingUpstream upstream;
    mempool::Pool pool(upstream.upstream());
    int streamTag = 0;

    EXPECT_THROW((void) pool.allocOrdered(&streamTag, 0), mempool::PoolError);

    int notABlock = 0;
    EXPECT_THROW(pool.freeOrdered(&streamTag, &notABlock, {}), mempool::ForeignPointerError);

    void* const p = pool.allocOrdered(&streamTag, 512);
    pool.freeOrdered(&streamTag, p, {});
    EXPECT_THROW(pool.freeOrdered(&streamTag, p, {}), mempool::DoubleFreeError);

    // The typed errors are PoolErrors are alpaka::Errors.
    EXPECT_THROW(pool.freeOrdered(&streamTag, p, {}), mempool::PoolError);
    EXPECT_THROW(pool.freeOrdered(&streamTag, p, {}), Error);
}

TEST(MemPool, TrimReleasesOnlyFenceCompleteBlocks)
{
    CountingUpstream upstream;
    mempool::Pool pool(upstream.upstream());
    int streamTag = 0;
    ManualFence pending;

    void* const done = pool.allocOrdered(&streamTag, 4096);
    void* const held = pool.allocOrdered(&streamTag, 8192);
    void* const inUse = pool.allocOrdered(&streamTag, 16384);
    pool.freeOrdered(&streamTag, done, {});
    pool.freeOrdered(&streamTag, held, pending.fence());

    auto const released = pool.trim(0);
    EXPECT_EQ(released, 4096u) << "only the fence-complete cached block is trimmable";
    EXPECT_EQ(upstream.frees.load(), 1u);
    EXPECT_EQ(pool.bytesHeld(), 8192u + 16384u);

    // Freeing a trimmed pointer is a foreign-pointer error (the block
    // went back upstream).
    EXPECT_THROW(pool.freeOrdered(&streamTag, done, {}), mempool::ForeignPointerError);

    pending.open->store(true);
    EXPECT_EQ(pool.trim(0), 8192u);
    pool.freeOrdered(&streamTag, inUse, {});
    EXPECT_EQ(pool.trim(0), 16384u);
    EXPECT_EQ(pool.bytesHeld(), 0u);
    EXPECT_EQ(upstream.liveBytes.load(), 0u);
}

TEST(MemPool, UpstreamOomTrimsCachesAndRetries)
{
    // A small simulated device as upstream: the pool must survive
    // capacity pressure by giving its caches back.
    gpusim::MemoryManager manager(1280 * 1024); // 1.25 MiB
    mempool::Pool pool(mempool::Upstream{
        [&manager](std::size_t bytes) { return manager.allocate(bytes); },
        [&manager](void* ptr, std::size_t) { manager.free(ptr); }});
    int streamTag = 0;

    void* const big = pool.allocOrdered(&streamTag, 1024 * 1024);
    pool.freeOrdered(&streamTag, big, {});
    EXPECT_EQ(manager.allocationCount(), 1u);

    // 1 MiB cached + 512 KiB requested > capacity: the pool must trim the
    // cached block and retry instead of surfacing the OOM.
    void* const half = pool.allocOrdered(&streamTag, 512 * 1024);
    EXPECT_NE(half, nullptr);
    EXPECT_EQ(pool.bytesHeld(), 512u * 1024u);
    EXPECT_EQ(manager.allocationCount(), 1u) << "big block was trimmed back to the device";

    // Nothing cached and capacity exhausted: the device error propagates.
    EXPECT_THROW((void) pool.allocOrdered(&streamTag, 1024 * 1024), gpusim::MemoryError);
    pool.freeOrdered(&streamTag, half, {});
}

TEST(MemPool, GraphBlocksAreReservedUntilReleased)
{
    CountingUpstream upstream;
    mempool::Pool pool(upstream.upstream());
    int streamTag = 0;

    void* reserved = nullptr;
    {
        auto block = pool.allocGraph(2048);
        reserved = block->data();
        EXPECT_EQ(pool.bytesInUse(), 2048u) << "graph reservations count as in use";

        // Concurrent pool users never receive a graph-reserved block.
        void* const other = pool.allocOrdered(&streamTag, 2048);
        EXPECT_NE(other, reserved);
        pool.freeOrdered(&streamTag, other, {});

        // freeAsync of a graph-owned block is typed misuse.
        EXPECT_THROW(pool.freeOrdered(&streamTag, reserved, {}), mempool::PoolError);
    }
    // Last owner died: the block is cached again and immediately reusable.
    EXPECT_EQ(pool.bytesInUse(), 0u);
    EXPECT_EQ(pool.allocOrdered(&streamTag, 2048), reserved);
}

// ------------------------------------------------------- stream-typed layer

TEST(MemPoolStream, SameStreamImmediateReuseWhileStreamBusy)
{
    CountingUpstream upstream;
    mempool::Pool pool(upstream.upstream());
    stream::StreamCpuAsync stream(hostDev);

    // Gate the stream so its fence marker cannot run.
    std::atomic<bool> open{false};
    stream.push([&open] { open.wait(false); });

    void* const p = pool.allocAsync(stream, 4096);
    pool.freeAsync(stream, p);
    EXPECT_EQ(pool.allocAsync(stream, 4096), p) << "same stream reuses its block with no fence";
    pool.freeAsync(stream, p);

    open.store(true);
    open.notify_all();
    stream.wait();
}

TEST(MemPoolStream, CrossStreamHandOffHappensOnlyAfterFence)
{
    CountingUpstream upstream;
    mempool::Pool pool(upstream.upstream());
    stream::StreamCpuAsync streamA(hostDev);
    stream::StreamCpuAsync streamB(hostDev);

    std::atomic<bool> open{false};
    streamA.push([&open] { open.wait(false); });

    void* const p = pool.allocAsync(streamA, 4096);
    pool.freeAsync(streamA, p); // fence marker is stuck behind the gate

    void* const q = pool.allocAsync(streamB, 4096);
    EXPECT_NE(q, p) << "A's free point has not passed: B must not reuse the block";

    open.store(true);
    open.notify_all();
    streamA.wait(); // fence marker ran
    EXPECT_EQ(pool.allocAsync(streamB, 4096), p) << "after A's fence, B reuses the block";
    pool.freeAsync(streamB, p);
    pool.freeAsync(streamB, q);
    streamB.wait();
}

TEST(MemPoolStream, SyncStreamFencesAreInstant)
{
    CountingUpstream upstream;
    mempool::Pool pool(upstream.upstream());
    stream::StreamCpuSync streamA(hostDev);
    stream::StreamCpuAsync streamB(hostDev);

    void* const p = pool.allocAsync(streamA, 1024);
    pool.freeAsync(streamA, p);
    // A sync stream's free point is the host timeline: any stream may
    // reuse immediately.
    EXPECT_EQ(pool.allocAsync(streamB, 1024), p);
    pool.freeAsync(streamB, p);
    streamB.wait();
}

TEST(MemPoolStream, WriteAfterReallocIsOrderedOnOneStream)
{
    // alloc -> kernel(1.0) -> freeAsync -> allocAsync (same block) ->
    // kernel(2.0) -> copy out, all without a host sync: the stream's
    // in-order execution must make the second kernel's writes win.
    constexpr Size n = 512;
    stream::StreamCpuAsync stream(hostDev);
    Vec<Dim1, Size> const extent(n);
    workdiv::WorkDivMembers<Dim1, Size> const wd(n, Size{1}, Size{1});

    auto first = mem::buf::allocAsync<double, Size>(stream, n);
    stream::enqueue(stream, exec::create<Acc>(wd, FillKernel{}, first.data(), 1.0));
    double* const firstPtr = first.data();
    mem::buf::freeAsync(stream, first);

    auto second = mem::buf::allocAsync<double, Size>(stream, n);
    EXPECT_EQ(second.data(), firstPtr) << "LIFO same-stream reuse hands the block straight back";
    stream::enqueue(stream, exec::create<Acc>(wd, FillKernel{}, second.data(), 2.0));

    std::vector<double> out(n, 0.0);
    mem::view::ViewPlainPtr<dev::DevCpu, double, Dim1, Size> outView(out.data(), hostDev, extent);
    mem::view::copy(stream, outView, second, extent);
    mem::buf::freeAsync(stream, second);
    stream.wait();

    for(Size i = 0; i < n; ++i)
        ASSERT_EQ(out[i], 2.0) << "index " << i;
}

TEST(MemPoolStream, BufCpuAdoptionAndImplicitDestructorFree)
{
    auto& pool = mempool::Pool::forDev(hostDev);
    stream::StreamCpuAsync stream(hostDev);
    auto const inUseBefore = pool.bytesInUse();

    {
        auto buf = mem::buf::allocAsync<double, Size>(stream, Size{1000});
        EXPECT_NE(buf.pooledLease(), nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
        EXPECT_EQ(buf.extent()[0], 1000u);
        EXPECT_GT(pool.bytesInUse(), inUseBefore);

        Vec<Dim1, Size> const extent(Size{1000});
        workdiv::WorkDivMembers<Dim1, Size> const wd(Size{1000}, Size{1}, Size{1});
        stream::enqueue(stream, exec::create<Acc>(wd, FillKernel{}, buf.data(), 7.0));
        stream.wait();
        EXPECT_EQ(buf.data()[999], 7.0);
        // No explicit freeAsync: the destructor releases on the
        // allocating stream.
    }
    EXPECT_EQ(pool.bytesInUse(), inUseBefore);
}

TEST(MemPoolStream, BufCpuTwoDimensionalPitch)
{
    stream::StreamCpuAsync stream(hostDev);
    Vec<Dim2, Size> const extent(10, 13);
    auto buf = mem::buf::allocAsync<double, Size>(stream, extent);
    EXPECT_EQ(buf.rowPitchBytes() % 64, 0u);
    EXPECT_GE(buf.rowPitchBytes(), 13 * sizeof(double));
    mem::buf::freeAsync(stream, buf);
    stream.wait();
}

TEST(MemPoolStream, BufCudaSimAdoption)
{
    auto const dev = dev::PltfCudaSim::getDevByIdx(0);
    auto& memory = dev.simDevice().memory();
    stream::StreamCudaSimAsync stream(dev);
    constexpr Size n = 256;
    Vec<Dim1, Size> const extent(n);

    auto devBuf = mem::buf::allocAsync<std::uint8_t, Size>(stream, n);
    EXPECT_NE(devBuf.pooledLease(), nullptr);
    EXPECT_TRUE(memory.owns(devBuf.data(), n)) << "pooled blocks are live device allocations";

    std::vector<std::uint8_t> out(n, 0);
    mem::view::ViewPlainPtr<dev::DevCpu, std::uint8_t, Dim1, Size> outView(out.data(), hostDev, extent);
    mem::view::set(stream, devBuf, 0xAB, extent);
    mem::view::copy(stream, outView, devBuf, extent);
    mem::buf::freeAsync(stream, devBuf);
    stream.wait();

    for(Size i = 0; i < n; ++i)
        ASSERT_EQ(out[i], 0xAB);

    // Same-stream churn reuses the block instead of touching the device
    // allocator again.
    auto const allocationsBefore = memory.stats().totalAllocations;
    for(int i = 0; i < 8; ++i)
    {
        auto scratch = mem::buf::allocAsync<std::uint8_t, Size>(stream, n);
        mem::buf::freeAsync(stream, scratch);
    }
    stream.wait();
    EXPECT_EQ(memory.stats().totalAllocations, allocationsBefore);
}

TEST(MemPoolStream, DestructorReleaseFromWorkerClosureDoesNotDeadlock)
{
    // A task closure can own the last reference to a pooled buffer; the
    // stream worker destroys it — on a poisoned stream even as a skipped
    // task. The implicit release must not re-enter the queue (it is
    // pool-only), and the queue must not destroy closures under its
    // mutex, or this wait() would hang forever.
    auto& pool = mempool::Pool::forDev(hostDev);
    auto const inUseBefore = pool.bytesInUse();
    {
        stream::StreamCpuAsync stream(hostDev);
        auto buf = mem::buf::allocAsync<double, Size>(stream, Size{512});
        stream.push([] { throw std::runtime_error("boom"); });
        stream.push([keep = buf] { (void) keep; }); // skipped, destroyed by the worker
        buf = mem::buf::allocAsync<double, Size>(stream, Size{1}); // drop the host reference
        EXPECT_THROW(stream.wait(), std::runtime_error);
    }
    EXPECT_EQ(pool.bytesInUse(), inUseBefore);
}

TEST(MemPoolStream, ExplicitDoubleFreeIsTyped)
{
    stream::StreamCpuAsync stream(hostDev);
    auto buf = mem::buf::allocAsync<double, Size>(stream, Size{64});
    mem::buf::freeAsync(stream, buf);
    EXPECT_THROW(mem::buf::freeAsync(stream, buf), mempool::DoubleFreeError);
    stream.wait();

    auto plain = mem::buf::alloc<double, Size>(hostDev, Size{64});
    EXPECT_THROW(mem::buf::freeAsync(stream, plain), mempool::PoolError)
        << "freeAsync of a non-pooled buffer is typed misuse";
}

TEST(MemPoolStream, ConcurrentChurnFromManyStreams)
{
    // K streams churn allocAsync -> kernel/copy -> freeAsync from K host
    // threads while the main thread trims — the TSan/ASan/UBSan surface.
    constexpr Size streams = 4;
    auto const iterations = Size{200};
    CountingUpstream upstream;
    mempool::Pool pool(upstream.upstream());

    std::atomic<bool> stop{false};
    std::thread trimmer(
        [&]
        {
            while(!stop.load())
            {
                (void) pool.trim(64 * 1024);
                std::this_thread::yield();
            }
        });

    {
        std::vector<std::jthread> threads;
        threads.reserve(streams);
        for(Size s = 0; s < streams; ++s)
            threads.emplace_back(
                [&pool, s, iterations]
                {
                    stream::StreamCpuAsync stream(dev::PltfCpu::getDevByIdx(0));
                    for(Size i = 0; i < iterations; ++i)
                    {
                        auto const bytes = 256u << (i % 5);
                        void* const p = pool.allocAsync(stream, bytes);
                        auto* const bytesPtr = static_cast<std::byte*>(p);
                        stream.push(
                            [bytesPtr, bytes, s]
                            { std::memset(bytesPtr, static_cast<int>(s), bytes); });
                        pool.freeAsync(stream, p);
                    }
                    stream.wait();
                });
    }
    stop.store(true);
    trimmer.join();

    EXPECT_EQ(pool.bytesInUse(), 0u);
    (void) pool.trim(0);
    EXPECT_EQ(pool.bytesHeld(), 0u);
    EXPECT_EQ(upstream.liveBytes.load(), 0u);
}

TEST(MemPoolStream, ChurnThroughBufApiOnGlobalPools)
{
    // Same churn through the public buffer API on the process-wide pools
    // (CPU and simulated device side by side).
    auto const simDev = dev::PltfCudaSim::getDevByIdx(0);
    auto& cpuPool = mempool::Pool::forDev(hostDev);
    auto const cpuInUseBefore = cpuPool.bytesInUse();

    {
        std::vector<std::jthread> threads;
        for(int t = 0; t < 2; ++t)
        {
            threads.emplace_back(
                [&]
                {
                    stream::StreamCpuAsync stream(hostDev);
                    for(int i = 0; i < 100; ++i)
                    {
                        auto buf = mem::buf::allocAsync<double, Size>(stream, static_cast<Size>(100 + i));
                        mem::buf::freeAsync(stream, buf);
                    }
                    stream.wait();
                });
            threads.emplace_back(
                [&]
                {
                    stream::StreamCudaSimAsync stream(simDev);
                    for(int i = 0; i < 100; ++i)
                    {
                        auto buf = mem::buf::allocAsync<float, Size>(stream, static_cast<Size>(100 + i));
                        mem::buf::freeAsync(stream, buf);
                    }
                    stream.wait();
                });
        }
    }
    EXPECT_EQ(cpuPool.bytesInUse(), cpuInUseBefore);
}

// ------------------------------------------------- gpusim leak observability

TEST(GpusimMemory, FreeOfUnknownPointerIsTypedAndCountsStayExact)
{
    gpusim::MemoryManager manager(1024 * 1024);
    EXPECT_EQ(manager.allocationCount(), 0u);

    void* const a = manager.allocate(1024);
    void* const b = manager.allocate(2048);
    EXPECT_EQ(manager.allocationCount(), 2u);

    manager.free(a);
    EXPECT_EQ(manager.allocationCount(), 1u);
    EXPECT_THROW(manager.free(a), gpusim::MemoryError) << "double free is typed, not corrupting";
    EXPECT_EQ(manager.allocationCount(), 1u) << "the failed free changed nothing";

    int foreign = 0;
    EXPECT_THROW(manager.free(&foreign), gpusim::MemoryError);
    manager.free(b);
    EXPECT_EQ(manager.allocationCount(), 0u);
}

// The trim boundary audit (DESIGN.md §5.1): trim(keepBytes) racing
// concurrent freeAsync/allocAsync traffic must keep the accounting
// exact — bytesHeld equals the upstream's live bytes at every quiesce
// point, bytesInUse covers exactly the outstanding blocks, and
// highWaterBytes is monotone and never exceeded by any later
// bytesInUse. Every counter mutation is serialized under the pool
// lock (trim subtracts victims under the lock and only the upstream
// release happens outside it), so drift here would mean a mutation
// escaped the lock.
TEST(MemPool, TrimRacingConcurrentFreeKeepsAccountingExact)
{
    CountingUpstream upstream;
    mempool::Pool pool(upstream.upstream());

    constexpr std::size_t churnThreads = 3;
    constexpr int rounds = 400;
    std::atomic<bool> stopTrim{false};
    std::atomic<std::size_t> peakInUse{0};

    std::vector<std::thread> threads;
    for(std::size_t t = 0; t < churnThreads; ++t)
    {
        threads.emplace_back(
            [&, t]
            {
                int const streamTag = 0; // distinct per thread by address
                std::vector<std::pair<void*, std::size_t>> held;
                held.reserve(8);
                std::size_t mine = 0;
                for(int r = 0; r < rounds; ++r)
                {
                    std::size_t const bytes = std::size_t{256} << ((r + t) % 4); // 256..2048
                    held.emplace_back(pool.allocOrdered(&streamTag, bytes), bytes);
                    mine += bytes;
                    // Track a lower bound of the true concurrent in-use
                    // peak: my own outstanding bytes alone never exceed
                    // the real peak.
                    auto prev = peakInUse.load();
                    while(prev < mine && !peakInUse.compare_exchange_weak(prev, mine))
                    {
                    }
                    if(held.size() >= 6)
                    {
                        // Free the oldest half while trim races us.
                        for(std::size_t k = 0; k < 3; ++k)
                        {
                            pool.freeOrdered(&streamTag, held.front().first, {});
                            mine -= held.front().second;
                            held.erase(held.begin());
                        }
                    }
                }
                for(auto const& [p, bytes] : held)
                    pool.freeOrdered(&streamTag, p, {});
            });
    }
    threads.emplace_back(
        [&]
        {
            std::size_t keep = 0;
            while(!stopTrim.load(std::memory_order_acquire))
            {
                (void) pool.trim(keep);
                keep = (keep + 1024) % 8192;
                std::this_thread::yield();
            }
        });

    for(std::size_t t = 0; t < churnThreads; ++t)
        threads[t].join();
    stopTrim.store(true, std::memory_order_release);
    threads.back().join();

    // Quiesced: every block freed, fences instant. Exactness checks.
    auto const stats = pool.stats();
    EXPECT_EQ(stats.bytesInUse, 0u) << "all blocks were freed";
    EXPECT_EQ(stats.bytesHeld, upstream.liveBytes.load())
        << "held bytes drifted from the upstream's live bytes across trim races";
    EXPECT_GE(stats.highWaterBytes, peakInUse.load())
        << "high water lost a concurrently observed in-use peak";
    EXPECT_EQ(stats.cacheHits + stats.cacheMisses,
              static_cast<std::uint64_t>(churnThreads) * rounds)
        << "every allocation is either a hit or a miss";
    EXPECT_EQ(upstream.allocs.load(), stats.cacheMisses)
        << "each miss went upstream exactly once";

    // trim(0) on a quiet pool must empty the caches exactly: held
    // drops to zero and the upstream got every block back.
    auto const released = pool.trim(0);
    EXPECT_EQ(released, stats.bytesHeld);
    EXPECT_EQ(pool.bytesHeld(), 0u);
    EXPECT_EQ(pool.blocksCached(), 0u);
    EXPECT_EQ(upstream.liveBytes.load(), 0u) << "upstream live bytes leak after full trim";
    EXPECT_EQ(upstream.allocs.load(), upstream.frees.load());

    // High water is a max over history: the racy window above cannot
    // lower it afterwards.
    EXPECT_EQ(pool.highWaterBytes(), stats.highWaterBytes);
}
