#include "mempool/pool.hpp"

#include "alpaka/core/fault.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

namespace alpaka::mempool
{
    GraphBlock::~GraphBlock()
    {
        // A graph may legitimately outlive a device-owned pool (the user
        // destroyed the device first); its MemoryManager already reclaimed
        // every block, so there is nothing to return.
        if(poolAlive_.lock() != nullptr)
            pool_->releaseGraph(ptr_);
    }

    Pool::Pool(Upstream upstream) : upstream_(std::move(upstream))
    {
        if(upstream_.allocate == nullptr || upstream_.deallocate == nullptr)
            throw PoolError("mempool::Pool: upstream allocate/deallocate must both be set");
    }

    Pool::~Pool()
    {
        // Device-reset semantics: everything the pool holds goes back
        // upstream, including blocks still handed out (their owners are
        // program bugs by this point, same as MemoryManager leftovers).
        // Expire the alive guard and reclaim under the lock, so a
        // deferred release that was sequenced before this destructor has
        // finished and one sequenced after sees the guard expired. (A
        // release racing the destructor itself is the existing contract
        // violation of any buffer outliving its device.)
        std::scoped_lock lock(mutex_);
        alive_.reset();
        for(auto const& [ptr, node] : registry_)
            upstream_.deallocate(ptr, node->bytes);
    }

    auto Pool::binOf(std::size_t bytes) const -> std::uint32_t
    {
        return static_cast<std::uint32_t>(std::bit_width(std::bit_ceil(std::max(bytes, minBlockBytes)) - 1));
    }

    auto Pool::popReusable(std::uint32_t bin, void const* streamKey) -> Node*
    {
        // Scan LIFO (most recently freed first — warm in cache and most
        // likely fence-complete last-to-first on one stream), bounded by
        // scanLimit so a bin full of pending fences cannot stall the hot
        // path. Completed fences are cleared on sight so they are polled
        // at most once.
        // Fault site (delay rules): models slow fence polling — e.g. a
        // device whose event queries stall — while the pool lock is held,
        // which is exactly where it would hurt.
        ALPAKA_FAULT_POINT("mempool.fence_poll");
        auto& list = bins_[bin];
        auto const scan = std::min(scanLimit, list.size());
        for(std::size_t i = 0; i < scan; ++i)
        {
            auto const idx = list.size() - 1 - i;
            Node* node = list[idx];
            if(node->fence.done())
                node->fence = Fence{};
            else if(streamKey == nullptr || node->streamKey != streamKey)
                continue; // pending fence, foreign stream — not reusable yet
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(idx));
            node->fence = Fence{};
            node->streamKey = nullptr;
            return node;
        }
        return nullptr;
    }

    auto Pool::allocUpstream(std::size_t bytes) -> void*
    {
        try
        {
            // Fault site: a one-shot rule exercises the trim-and-retry
            // recovery below; a two-fire rule makes the retry fail too and
            // tests upstream-error propagation to the caller.
            ALPAKA_FAULT_POINT("mempool.upstream_oom");
            return upstream_.allocate(bytes);
        }
        catch(...)
        {
            // Out of upstream memory: give the caches back and retry once.
            // Only fence-complete blocks can be released (a pending block
            // may still be read by the freeing stream's in-flight work),
            // so a retry failure propagates the upstream error.
            if(trim(0) == 0)
                throw;
            ALPAKA_FAULT_POINT("mempool.upstream_oom");
            return upstream_.allocate(bytes);
        }
    }

    auto Pool::allocOrdered(void const* streamKey, std::size_t bytes) -> void*
    {
        if(bytes == 0)
            throw PoolError("mempool::Pool: zero-byte allocation");
        auto const bin = binOf(bytes);
        auto const want = std::size_t{1} << bin;
        {
            std::scoped_lock lock(mutex_);
            if(Node* node = popReusable(bin, streamKey); node != nullptr)
            {
                node->state = State::InUse;
                bytesInUse_ += want;
                highWater_ = std::max(highWater_, bytesInUse_);
                ++hits_;
                return node->ptr;
            }
            ++misses_;
        }
        // Miss: go upstream without the pool lock (MemoryManager has its
        // own; the host allocator may block arbitrarily long).
        void* ptr = allocUpstream(want);
        std::scoped_lock lock(mutex_);
        auto node = std::make_unique<Node>();
        node->ptr = ptr;
        node->bytes = want;
        node->bin = bin;
        node->state = State::InUse;
        registry_.emplace(ptr, std::move(node));
        bytesHeld_ += want;
        bytesInUse_ += want;
        highWater_ = std::max(highWater_, bytesInUse_);
        return ptr;
    }

    void Pool::freeOrdered(void const* streamKey, void* ptr, Fence fence)
    {
        std::scoped_lock lock(mutex_);
        auto const it = registry_.find(ptr);
        if(it == registry_.end())
            throw ForeignPointerError(
                "mempool::Pool: freed pointer was not allocated from this pool (foreign pointer, interior "
                "pointer, or block already trimmed)");
        Node& node = *it->second;
        if(node.state == State::Cached)
            throw DoubleFreeError("mempool::Pool: double free of a pooled block");
        if(node.state == State::Graph)
            throw PoolError("mempool::Pool: graph-reserved block freed through freeAsync");
        node.state = State::Cached;
        node.streamKey = streamKey;
        node.fence = std::move(fence);
        bins_[node.bin].push_back(&node);
        bytesInUse_ -= node.bytes;
    }

    void Pool::freeDeferred(
        void const* streamKey,
        void* ptr,
        std::shared_ptr<gpusim::DrainState const> const& drain)
    {
        Fence fence{};
        if(drain != nullptr)
        {
            // Read seq BEFORE drained: a drain landing between the two
            // reads either flips drained (seen here) or has already
            // bumped seq past the captured value (seen by every poll) —
            // it can never be missed, which matters on a stream that
            // stays busy and may not drain again for a long time.
            auto const seq = drain->seq.load(std::memory_order_acquire);
            if(!drain->drained.load(std::memory_order_acquire))
                fence.poll = [drain, seq]
                {
                    return drain->drained.load(std::memory_order_acquire)
                           || drain->seq.load(std::memory_order_acquire) != seq;
                };
        }
        freeOrdered(streamKey, ptr, std::move(fence));
    }

    auto Pool::allocGraph(std::size_t bytes) -> std::shared_ptr<GraphBlock>
    {
        // Same as allocOrdered, minus the same-stream fast path: a graph
        // has no stream identity, so only fence-complete blocks qualify.
        void* const ptr = allocOrdered(nullptr, bytes);
        std::scoped_lock lock(mutex_);
        Node& node = *registry_.at(ptr);
        node.state = State::Graph;
        return std::make_shared<GraphBlock>(*this, alive_, ptr, node.bytes);
    }

    void Pool::releaseGraph(void* ptr) noexcept
    {
        std::scoped_lock lock(mutex_);
        auto const it = registry_.find(ptr);
        if(it == registry_.end())
            return; // pool already reset underneath the graph
        Node& node = *it->second;
        node.state = State::Cached;
        node.streamKey = nullptr;
        node.fence = Fence{};
        bins_[node.bin].push_back(&node);
        bytesInUse_ -= node.bytes;
    }

    auto Pool::trim(std::size_t keepBytes) -> std::size_t
    {
        // Collect victims under the lock, return them upstream without it.
        std::vector<std::pair<void*, std::size_t>> victims;
        {
            std::scoped_lock lock(mutex_);
            for(auto& list : bins_)
            {
                if(bytesHeld_ <= keepBytes)
                    break;
                for(std::size_t i = list.size(); i-- > 0 && bytesHeld_ > keepBytes;)
                {
                    Node* node = list[i];
                    if(!node->fence.done())
                        continue; // the freeing stream may still touch it
                    victims.emplace_back(node->ptr, node->bytes);
                    bytesHeld_ -= node->bytes;
                    list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
                    registry_.erase(node->ptr);
                }
            }
        }
        std::size_t released = 0;
        for(auto const& [ptr, bytes] : victims)
        {
            upstream_.deallocate(ptr, bytes);
            released += bytes;
        }
        return released;
    }

    auto Pool::stats() const -> PoolStats
    {
        std::scoped_lock lock(mutex_);
        PoolStats s;
        s.bytesHeld = bytesHeld_;
        s.bytesInUse = bytesInUse_;
        s.highWaterBytes = highWater_;
        for(auto const& list : bins_)
            s.blocksCached += list.size();
        s.cacheHits = hits_;
        s.cacheMisses = misses_;
        return s;
    }

    auto Pool::bytesHeld() const -> std::size_t
    {
        std::scoped_lock lock(mutex_);
        return bytesHeld_;
    }

    auto Pool::bytesInUse() const -> std::size_t
    {
        std::scoped_lock lock(mutex_);
        return bytesInUse_;
    }

    auto Pool::highWaterBytes() const -> std::size_t
    {
        std::scoped_lock lock(mutex_);
        return highWater_;
    }

    auto Pool::blocksCached() const -> std::size_t
    {
        std::scoped_lock lock(mutex_);
        std::size_t count = 0;
        for(auto const& list : bins_)
            count += list.size();
        return count;
    }

    auto Pool::cacheHits() const -> std::uint64_t
    {
        std::scoped_lock lock(mutex_);
        return hits_;
    }

    auto Pool::cacheMisses() const -> std::uint64_t
    {
        std::scoped_lock lock(mutex_);
        return misses_;
    }
} // namespace alpaka::mempool
