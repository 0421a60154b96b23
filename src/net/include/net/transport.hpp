/// \file net::Transport — the byte-stream boundary of the front door
/// (DESIGN.md §9.1).
///
/// The session layer (front_door.hpp, client.hpp) speaks frames over an
/// abstract non-blocking byte stream and NEVER calls the OS: every
/// operation is a polled, partial-progress send/recv, so the whole
/// protocol stack is testable hermetically (no ports, no syscalls, no
/// timing dependence) and deployable over a real socket by swapping the
/// transport (net/socket.hpp confines the OS calls to one file — the
/// zenoh-pico platform-layer split, SNIPPETS.md §1).
///
/// The in-process PipeTransport here is the hermetic implementation: a
/// pair of fixed-capacity SPSC byte rings (one per direction), lock-free
/// (one producer, one consumer per ring), allocation-free after
/// construction, and honest about backpressure — a full ring returns
/// would-block exactly like a full socket buffer, which is what lets
/// the tests drive fragmentation and flow-control paths
/// deterministically.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <utility>

namespace alpaka::net
{
    //! Non-blocking byte stream. Both directions report progress the
    //! same way: > 0 bytes moved (possibly fewer than asked — partial
    //! progress is normal), 0 would-block (try again after the peer
    //! drains/fills), -1 closed (peer gone; for recv: gone AND drained —
    //! bytes sent before a close are still delivered first).
    class Transport
    {
    public:
        virtual ~Transport() = default;
        Transport() = default;
        Transport(Transport const&) = delete;
        auto operator=(Transport const&) -> Transport& = delete;

        [[nodiscard]] virtual auto send(std::byte const* data, std::size_t len) noexcept -> std::ptrdiff_t = 0;
        [[nodiscard]] virtual auto recv(std::byte* data, std::size_t len) noexcept -> std::ptrdiff_t = 0;
        //! Half-close of this end: the peer drains what was sent, then
        //! sees -1. Idempotent.
        virtual void close() noexcept = 0;
    };

    namespace detail
    {
        //! Fixed-capacity SPSC byte ring: monotonically-increasing
        //! 64-bit head/tail (never wrapped — indices are taken mod
        //! capacity), so full/empty are unambiguous without a spare
        //! slot. The producer owns tail_, the consumer owns head_, each
        //! publishes with release and reads the other with acquire —
        //! the classic two-counter SPSC proof obligation, same shape as
        //! the litmus-checked rings below (DESIGN.md §8.2). Bytes move
        //! as at most two memcpy runs, split where the ring wraps, so
        //! the capacity may be any size; a zero-byte move returns
        //! before touching the buffer or the index.
        class ByteRing
        {
        public:
            //! The buffer is not zero-filled: the ring hands out only
            //! bytes that were written to it, so a page is touched when
            //! traffic first reaches it, not at construction.
            explicit ByteRing(std::size_t capacity)
                : buf_(std::make_unique_for_overwrite<std::byte[]>(capacity))
                , capacity_(capacity)
            {
            }

            //! Producer side: copies up to \p len bytes in, returns how
            //! many fit (0 = full).
            auto write(std::byte const* data, std::size_t len) noexcept -> std::size_t
            {
                auto const tail = tail_.load(std::memory_order_relaxed);
                auto const head = head_.load(std::memory_order_acquire);
                auto const space = capacity_ - static_cast<std::size_t>(tail - head);
                auto const n = len < space ? len : space;
                if(n == 0)
                    return 0;
                auto const at = static_cast<std::size_t>(tail % capacity_);
                auto const first = n < capacity_ - at ? n : capacity_ - at;
                std::memcpy(buf_.get() + at, data, first);
                if(first != n)
                    std::memcpy(buf_.get(), data + first, n - first);
                tail_.store(tail + n, std::memory_order_release);
                return n;
            }

            //! Consumer side: copies up to \p len bytes out, returns how
            //! many were there (0 = empty).
            auto read(std::byte* data, std::size_t len) noexcept -> std::size_t
            {
                auto const head = head_.load(std::memory_order_relaxed);
                auto const tail = tail_.load(std::memory_order_acquire);
                auto const avail = static_cast<std::size_t>(tail - head);
                auto const n = len < avail ? len : avail;
                if(n == 0)
                    return 0;
                auto const at = static_cast<std::size_t>(head % capacity_);
                auto const first = n < capacity_ - at ? n : capacity_ - at;
                std::memcpy(data, buf_.get() + at, first);
                if(first != n)
                    std::memcpy(data + first, buf_.get(), n - first);
                head_.store(head + n, std::memory_order_release);
                return n;
            }

            [[nodiscard]] auto empty() const noexcept -> bool
            {
                return head_.load(std::memory_order_acquire) == tail_.load(std::memory_order_acquire);
            }

            void close() noexcept
            {
                closed_.store(true, std::memory_order_release);
            }
            [[nodiscard]] auto closed() const noexcept -> bool
            {
                return closed_.load(std::memory_order_acquire);
            }

        private:
            std::unique_ptr<std::byte[]> buf_;
            std::size_t capacity_;
            std::atomic<std::uint64_t> head_{0};
            std::atomic<std::uint64_t> tail_{0};
            std::atomic<bool> closed_{false};
        };
    } // namespace detail

    //! One end of an in-process duplex pipe (see makePipePair). Sends
    //! into one shared ring, receives from the other; the peer end holds
    //! them swapped.
    class PipeTransport final : public Transport
    {
    public:
        PipeTransport(std::shared_ptr<detail::ByteRing> tx, std::shared_ptr<detail::ByteRing> rx) noexcept
            : tx_(std::move(tx))
            , rx_(std::move(rx))
        {
        }

        ~PipeTransport() override
        {
            close();
        }

        auto send(std::byte const* data, std::size_t len) noexcept -> std::ptrdiff_t override
        {
            if(tx_->closed())
                return -1;
            return static_cast<std::ptrdiff_t>(tx_->write(data, len));
        }

        auto recv(std::byte* data, std::size_t len) noexcept -> std::ptrdiff_t override
        {
            auto const n = rx_->read(data, len);
            if(n != 0)
                return static_cast<std::ptrdiff_t>(n);
            // Empty: EOF only when the peer closed AND everything it
            // sent before closing was drained (checked in that order —
            // close-then-drain must not lose the tail).
            return rx_->closed() && rx_->empty() ? -1 : 0;
        }

        void close() noexcept override
        {
            // Close BOTH rings: the peer's recv sees EOF (tx_ is its rx)
            // and our own pending recv unblocks permanently.
            tx_->close();
            rx_->close();
        }

    private:
        std::shared_ptr<detail::ByteRing> tx_;
        std::shared_ptr<detail::ByteRing> rx_;
    };

    //! The two ends of a fresh in-process duplex pipe with \p capacity
    //! bytes of buffer per direction. Each end is SPSC: one thread may
    //! drive each end (the front door's poll thread on one, a client's
    //! on the other).
    [[nodiscard]] inline auto makePipePair(std::size_t capacity = 1 << 16)
        -> std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
    {
        auto aToB = std::make_shared<detail::ByteRing>(capacity);
        auto bToA = std::make_shared<detail::ByteRing>(capacity);
        return {std::make_unique<PipeTransport>(aToB, bToA), std::make_unique<PipeTransport>(bToA, aToB)};
    }
} // namespace alpaka::net
