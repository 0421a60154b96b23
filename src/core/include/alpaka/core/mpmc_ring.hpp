/// \file Bounded lock-free MPMC ring (Vyukov per-cell-sequence design).
///
/// The queue primitive behind two block caches: serve's Future::State
/// recycling allocator and the lock-free TaskQueue's node cache
/// (DESIGN.md §8.6/§8.7). Each cell
/// carries its own sequence number: a producer claims a slot with one CAS
/// on the enqueue cursor, writes the value, then publishes it by storing
/// seq = pos + 1 (release); a consumer observing that sequence (acquire)
/// owns the value and recycles the cell by storing seq = pos + capacity.
/// The per-cell sequence is what makes the design ABA-free across cursor
/// wraparound, and the single release/acquire edge per handoff is encoded
/// in litmus/core/{x86,arm64}_mpmc_ring_cell.litmus.
///
/// Guarantees (relied on by tests/core/test_mpmc_ring.cpp):
///  * bounded: push on a full ring fails (returns false), never blocks;
///  * no lost or duplicated elements across any producer/consumer mix;
///  * per-producer FIFO: two pushes by one thread are popped in order
///    (cursor positions are claimed in program order).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace alpaka::core
{
    //! \tparam T default-constructible, move-assignable element type.
    template<typename T>
    class MpmcRing
    {
    public:
        //! \p capacity is rounded up to the next power of two (min 2).
        explicit MpmcRing(std::size_t capacity)
            : capacity_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity))
            , mask_(capacity_ - 1)
            , cells_(std::make_unique<Cell[]>(capacity_))
        {
            for(std::size_t i = 0; i < capacity_; ++i)
                cells_[i].seq.store(i, std::memory_order_relaxed);
        }

        MpmcRing(MpmcRing const&) = delete;
        auto operator=(MpmcRing const&) -> MpmcRing& = delete;

        //! \returns false when the ring is full (the value is untouched
        //! in that case — the caller keeps ownership).
        [[nodiscard]] auto push(T& value) -> bool
        {
            auto pos = head_.load(std::memory_order_relaxed);
            for(;;)
            {
                auto& cell = cells_[pos & mask_];
                auto const seq = cell.seq.load(std::memory_order_acquire);
                auto const dif
                    = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
                if(dif == 0)
                {
                    if(head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed))
                    {
                        cell.value = std::move(value);
                        // Publication edge of the handoff (litmus:
                        // core/*_mpmc_ring_cell): the consumer's acquire
                        // load of seq orders the value write before its
                        // read.
                        cell.seq.store(pos + 1, std::memory_order_release);
                        return true;
                    }
                }
                else if(dif < 0)
                {
                    return false; // full: the tail lap has not recycled this cell yet
                }
                else
                {
                    pos = head_.load(std::memory_order_relaxed);
                }
            }
        }

        [[nodiscard]] auto push(T&& value) -> bool
        {
            return push(value);
        }

        //! \returns false when the ring is empty.
        [[nodiscard]] auto pop(T& out) -> bool
        {
            auto pos = tail_.load(std::memory_order_relaxed);
            for(;;)
            {
                auto& cell = cells_[pos & mask_];
                auto const seq = cell.seq.load(std::memory_order_acquire);
                auto const dif
                    = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1);
                if(dif == 0)
                {
                    if(tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed))
                    {
                        out = std::move(cell.value);
                        cell.value = T{}; // drop resources now, not a lap later
                        cell.seq.store(pos + capacity_, std::memory_order_release);
                        return true;
                    }
                }
                else if(dif < 0)
                {
                    return false; // empty (or the producer owning this cell is mid-write)
                }
                else
                {
                    pos = tail_.load(std::memory_order_relaxed);
                }
            }
        }

        [[nodiscard]] auto capacity() const noexcept -> std::size_t
        {
            return capacity_;
        }

    private:
        struct alignas(64) Cell
        {
            std::atomic<std::size_t> seq{0};
            T value{};
        };

        std::size_t capacity_;
        std::size_t mask_;
        std::unique_ptr<Cell[]> cells_;
        alignas(64) std::atomic<std::size_t> head_{0}; //!< enqueue cursor
        alignas(64) std::atomic<std::size_t> tail_{0}; //!< dequeue cursor
    };
} // namespace alpaka::core
