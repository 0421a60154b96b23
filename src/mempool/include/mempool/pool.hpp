/// \file Stream-ordered caching memory pool (DESIGN.md §5).
///
/// The paper's memory model prices every buffer at one `malloc` — fine for
/// the long-lived buffers of its listings, but allocation-churn workloads
/// (per-iteration temporaries, solver scratch, request-scoped buffers)
/// serialize on the allocator exactly the way launches used to serialize
/// on the pool before the launch engine (DESIGN.md §3). mempool::Pool is
/// the stream-ordered answer, modeled on CUDA's `cudaMallocAsync` pools:
///
///  * `allocAsync(stream, bytes)` returns immediately with a block from a
///    power-of-two size-class bin; a miss falls through to the upstream
///    allocator (host `operator new` or `gpusim::MemoryManager`) and the
///    block stays with the pool afterwards.
///  * `freeAsync(stream, ptr)` returns the block to its bin *ordered after
///    the work previously enqueued on that stream*: a completion fence is
///    recorded at the stream's tail (EventCpu / gpusim::Event machinery).
///  * Reuse discipline: a block freed on stream S is handed back to S
///    immediately — the stream is an in-order queue, so any later work of
///    S is ordered after the free point and no event is needed at all. A
///    *different* stream only receives the block once the free-point fence
///    completed (non-blocking poll; blocks whose fence is still pending
///    are simply skipped).
///  * Graph blocks (`allocGraph`) are reserved for the lifetime of a task
///    graph: replays of a graph::Exec reuse the identical virtual address
///    every iteration (the CUDA graph mem-node analog, DESIGN.md §5.4);
///    the block returns to the bins when the last graph owner dies.
///
/// The hot path is one short critical section over the bin vectors and the
/// block registry — no system allocator, no per-device capacity scan, and
/// on the simulated device no `MemoryManager` mutex/map/validation. Misuse
/// (double free, foreign pointer) is detected deterministically through
/// the registry and raised as the typed errors of errors.hpp.
#pragma once

#include "mempool/errors.hpp"

#include "alpaka/dev.hpp"

#include "gpusim/types.hpp"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace alpaka::mempool
{
    //! Poll-able completion marker of a stream's free point. A null poll
    //! means "already complete" (synchronous streams, graph releases).
    struct Fence
    {
        std::function<bool()> poll;

        [[nodiscard]] auto done() const -> bool
        {
            return poll == nullptr || poll();
        }
    };

    //! Where the pool gets (and returns) memory: host `operator new` or a
    //! device's gpusim::MemoryManager. Allocation failures must throw.
    struct Upstream
    {
        std::function<void*(std::size_t)> allocate;
        std::function<void(void*, std::size_t)> deallocate;
    };

    class Pool;

    //! A block reserved for a task graph: captured/explicit graph alloc
    //! nodes hold it in shared ownership, so every replay of the graph sees
    //! the identical address and concurrent pool users never receive it.
    //! The destructor of the last owner returns the block to the pool's
    //! bins (safe without a fence: a graph::Exec must outlive its replays,
    //! so by the time the owners die no replay can still touch the block).
    class GraphBlock
    {
    public:
        GraphBlock(Pool& pool, std::weak_ptr<void> poolAlive, void* ptr, std::size_t bytes) noexcept
            : pool_(&pool)
            , poolAlive_(std::move(poolAlive))
            , ptr_(ptr)
            , bytes_(bytes)
        {
        }
        ~GraphBlock();
        GraphBlock(GraphBlock const&) = delete;
        auto operator=(GraphBlock const&) -> GraphBlock& = delete;

        [[nodiscard]] auto data() const noexcept -> void*
        {
            return ptr_;
        }
        [[nodiscard]] auto bytes() const noexcept -> std::size_t
        {
            return bytes_;
        }

        //! \name replay bodies of the graph alloc/free nodes (introspection
        //! only — the reservation itself is lifetime-based). Atomic: an
        //! explicitly built graph may leave its alloc/free nodes unordered,
        //! and replay then runs them concurrently. Relaxed is sound
        //! (litmus sweep, DESIGN.md §8): the flag guards nothing — no
        //! data is published under it, so there is no ordering edge to
        //! strengthen.
        //! @{
        void activate() noexcept
        {
            active_.store(true, std::memory_order_relaxed);
        }
        void retire() noexcept
        {
            active_.store(false, std::memory_order_relaxed);
        }
        [[nodiscard]] auto active() const noexcept -> bool
        {
            return active_.load(std::memory_order_relaxed);
        }
        //! @}

    private:
        Pool* pool_;
        std::weak_ptr<void> poolAlive_; //!< expired: the pool died first
        void* ptr_;
        std::size_t bytes_;
        std::atomic<bool> active_{false};
    };

    //! One coherent snapshot of the pool's counters, taken under a single
    //! acquisition of the pool lock. Monitoring paths (the kernel-service
    //! introspection surface) must use this instead of composing the
    //! individual getters, whose separate locks can interleave with
    //! concurrent alloc/free and yield impossible combinations (e.g.
    //! bytesInUse > bytesHeld).
    struct PoolStats
    {
        std::size_t bytesHeld = 0; //!< held from upstream (in use + cached)
        std::size_t bytesInUse = 0; //!< handed out (incl. graph reservations)
        std::size_t highWaterBytes = 0; //!< highest bytesInUse ever observed
        std::size_t blocksCached = 0; //!< reusable blocks across all bins
        std::uint64_t cacheHits = 0; //!< allocations served from the bins
        std::uint64_t cacheMisses = 0; //!< allocations sent upstream
    };

    //! A stream-ordered caching allocator over one upstream (one device).
    //! Thread safe: any number of streams (i.e. their submitting host
    //! threads) may allocate and free concurrently.
    class Pool
    {
    public:
        explicit Pool(Upstream upstream);
        //! Releases every block — cached *and* still in use — back to the
        //! upstream allocator, like a device reset (the same rule
        //! gpusim::MemoryManager applies to leftover allocations).
        ~Pool();

        Pool(Pool const&) = delete;
        auto operator=(Pool const&) -> Pool& = delete;

        //! \name process-wide per-device pools (used by mem::buf::allocAsync)
        //! @{
        [[nodiscard]] static auto forDev(dev::DevCpu const& dev) -> Pool&;
        [[nodiscard]] static auto forDev(dev::DevCudaSim const& dev) -> Pool&;
        //! @}

        //! \name typed stream front end (defined in stream_ops.hpp)
        //! @{
        template<typename TStream>
        [[nodiscard]] auto allocAsync(TStream const& stream, std::size_t bytes) -> void*;
        template<typename TStream>
        void freeAsync(TStream const& stream, void* ptr);
        //! @}

        //! Type-erased core of allocAsync: \p streamKey identifies the
        //! allocating stream for the no-fence same-stream fast path.
        //! \throws PoolError for zero bytes; rethrows the upstream error
        //!         when a miss cannot be served even after trimming the
        //!         pool's caches.
        [[nodiscard]] auto allocOrdered(void const* streamKey, std::size_t bytes) -> void*;

        //! Type-erased core of freeAsync: the caller already recorded
        //! \p fence at the freeing stream's tail. \throws DoubleFreeError /
        //! ForeignPointerError on misuse.
        void freeOrdered(void const* streamKey, void* ptr, Fence fence);

        //! Deferred (destructor) release of a buffer lease: frees with
        //! the conservative drain fence built from \p drain — complete if
        //! the stream's queue is drained now, or once it next drains
        //! (nullptr: instant, the sync-stream case). See DESIGN.md §5.3.
        void freeDeferred(
            void const* streamKey,
            void* ptr,
            std::shared_ptr<gpusim::DrainState const> const& drain);

        //! Reserves a block for a task graph (see GraphBlock). Only
        //! fence-complete cached blocks are eligible for reuse here — a
        //! graph has no stream identity to ride the same-stream fast path.
        [[nodiscard]] auto allocGraph(std::size_t bytes) -> std::shared_ptr<GraphBlock>;

        //! Releases cached, fence-complete blocks back upstream until the
        //! pool holds at most \p keepBytes (in-use blocks are untouched —
        //! trim(0) empties the caches). \returns bytes released.
        auto trim(std::size_t keepBytes) -> std::size_t;

        //! \name introspection
        //! @{
        //! Atomic snapshot of every counter below under ONE lock hold —
        //! the only way to observe a mutually consistent set of values
        //! while other streams allocate and free concurrently.
        [[nodiscard]] auto stats() const -> PoolStats;
        //! Bytes held from the upstream allocator (in use + cached).
        [[nodiscard]] auto bytesHeld() const -> std::size_t;
        //! Bytes currently handed out (including graph reservations).
        [[nodiscard]] auto bytesInUse() const -> std::size_t;
        //! Highest bytesInUse ever observed.
        [[nodiscard]] auto highWaterBytes() const -> std::size_t;
        //! Cached (reusable) blocks across all bins.
        [[nodiscard]] auto blocksCached() const -> std::size_t;
        //! Expires when the pool dies. Deferred releases (buffer/graph
        //! owners that may outlive a device-owned pool) check it before
        //! touching the pool — an expired guard means the upstream owner
        //! already reclaimed every block.
        [[nodiscard]] auto aliveGuard() const noexcept -> std::weak_ptr<void>
        {
            return alive_;
        }
        //! Allocations served from the bins / sent upstream.
        [[nodiscard]] auto cacheHits() const -> std::uint64_t;
        [[nodiscard]] auto cacheMisses() const -> std::uint64_t;
        //! @}

    private:
        friend class GraphBlock;

        enum class State : std::uint8_t
        {
            InUse,
            Cached,
            Graph
        };

        //! One block held from upstream; owned by registry_.
        struct Node
        {
            void* ptr = nullptr;
            std::size_t bytes = 0; //!< size-class bytes
            std::uint32_t bin = 0;
            State state = State::InUse;
            //! \name valid while Cached
            //! @{
            void const* streamKey = nullptr;
            Fence fence{};
            //! @}
        };

        static constexpr std::size_t binCount = 64;
        //! Smallest size class; requests are rounded up to it.
        static constexpr std::size_t minBlockBytes = 256;
        //! How many cached blocks of a bin one allocation inspects before
        //! giving up and going upstream (bounds the fence-poll work on the
        //! hot path).
        static constexpr std::size_t scanLimit = 16;

        [[nodiscard]] auto binOf(std::size_t bytes) const -> std::uint32_t;
        //! Takes a reusable block from \p bin, or nullptr. \p streamKey
        //! nullptr requires a completed fence (graph reservations).
        [[nodiscard]] auto popReusable(std::uint32_t bin, void const* streamKey) -> Node*;
        [[nodiscard]] auto allocUpstream(std::size_t bytes) -> void*;
        void releaseGraph(void* ptr) noexcept;

        Upstream upstream_;

        mutable std::mutex mutex_;
        //! Every block currently held from upstream, keyed by payload.
        std::unordered_map<void*, std::unique_ptr<Node>> registry_;
        //! Cached (freed) blocks per size class, LIFO for cache warmth.
        std::array<std::vector<Node*>, binCount> bins_;
        std::size_t bytesHeld_ = 0;
        std::size_t bytesInUse_ = 0;
        std::size_t highWater_ = 0;
        std::uint64_t hits_ = 0;
        std::uint64_t misses_ = 0;
        std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    };
} // namespace alpaka::mempool
