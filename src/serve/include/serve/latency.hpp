/// \file Log2-bucketed latency accounting, shared by serve::Service and
/// the obs::Registry fleet merge (DESIGN.md §6.4/§9.3).
///
/// PR 8 lifted the histogram out of Service's private parts because the
/// shard router needs to MERGE latency distributions: quantiles of
/// quantiles are meaningless (the p99 of two shards' p99s is not the
/// fleet p99), so Service::stats() now exports the raw bucket counts
/// (LatencyCounts) next to the derived snapshot, and the fleet merge
/// (obs::Registry) sums counts bucket-wise before deriving quantiles —
/// exact, because the buckets are identical power-of-two bins on every
/// shard.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace alpaka::serve
{
    //! Latency quantiles derived from a log2-bucketed histogram of
    //! request latencies (admission to future completion). Quantiles are
    //! upper bucket bounds, i.e. conservative to within a factor of 2.
    struct LatencySnapshot
    {
        std::uint64_t count = 0;
        double p50Us = 0.0;
        double p99Us = 0.0;
        double maxUs = 0.0;
    };

    //! A plain (non-atomic) copy of one histogram's state: the mergeable
    //! form. counts[b] holds samples in [2^(b-1), 2^b) microseconds.
    struct LatencyCounts
    {
        static constexpr std::size_t bucketCount = 48;
        std::array<std::uint64_t, bucketCount> counts{};
        std::uint64_t maxUs = 0;

        //! Bucket-wise sum; max of maxes. Exact for identical binning,
        //! which every LatencyHistogram shares by construction.
        auto merge(LatencyCounts const& other) noexcept -> LatencyCounts&
        {
            for(std::size_t b = 0; b < bucketCount; ++b)
                counts[b] += other.counts[b];
            if(other.maxUs > maxUs)
                maxUs = other.maxUs;
            return *this;
        }

        [[nodiscard]] auto total() const noexcept -> std::uint64_t
        {
            std::uint64_t sum = 0;
            for(auto const c : counts)
                sum += c;
            return sum;
        }

        //! Derives the quantile snapshot; the router calls this on merged
        //! counts, Service::stats() on its own.
        [[nodiscard]] auto snapshot() const noexcept -> LatencySnapshot
        {
            LatencySnapshot snap;
            snap.count = total();
            snap.maxUs = static_cast<double>(maxUs);
            if(snap.count == 0)
                return snap;
            auto const quantile = [&](double q) -> double
            {
                auto const rank = static_cast<std::uint64_t>(q * static_cast<double>(snap.count - 1)) + 1;
                std::uint64_t seen = 0;
                for(std::size_t b = 0; b < bucketCount; ++b)
                {
                    seen += counts[b];
                    // The bucket's upper bound, clamped to the observed
                    // max: the estimate must never exceed a real sample.
                    if(seen >= rank)
                        return std::min(static_cast<double>(std::uint64_t{1} << b), snap.maxUs);
                }
                return snap.maxUs;
            };
            snap.p50Us = quantile(0.50);
            snap.p99Us = quantile(0.99);
            return snap;
        }
    };

    //! Log2-bucketed latency histogram, lock-free on the record path.
    //! Snapshot consistency (litmus: serve/*_hist_snapshot): record()
    //! raises maxUs BEFORE counting the sample (release), counts() reads
    //! counts (acquire) before maxUs — so every sample a snapshot counts
    //! is covered by the maxUs it reports, and the derived quantiles
    //! never exceed the reported max.
    class LatencyHistogram
    {
    public:
        static constexpr std::size_t bucketCount = LatencyCounts::bucketCount;

        void record(std::uint64_t us) noexcept
        {
            auto const bucket = std::min<std::size_t>(std::bit_width(us), bucketCount - 1);
            // Max BEFORE count (the MP pattern with maxUs as payload and
            // the bucket count as flag): once a snapshot has seen this
            // sample's count, read-read coherence across the release/
            // acquire pair guarantees its maxUs read covers this sample.
            auto prev = maxUs_.load(std::memory_order_relaxed);
            while(us > prev
                  && !maxUs_.compare_exchange_weak(prev, us, std::memory_order_release, std::memory_order_relaxed))
            {
            }
            counts_[bucket].fetch_add(1, std::memory_order_release);
        }

        //! Coherent-enough copy (counts first, acquire; maxUs last — the
        //! mirror of record()'s ordering).
        [[nodiscard]] auto counts() const noexcept -> LatencyCounts
        {
            LatencyCounts out;
            for(std::size_t b = 0; b < bucketCount; ++b)
                out.counts[b] = counts_[b].load(std::memory_order_acquire);
            out.maxUs = maxUs_.load(std::memory_order_acquire);
            return out;
        }

        [[nodiscard]] auto snapshot() const noexcept -> LatencySnapshot
        {
            return counts().snapshot();
        }

    private:
        std::array<std::atomic<std::uint64_t>, bucketCount> counts_{};
        std::atomic<std::uint64_t> maxUs_{0};
    };
} // namespace alpaka::serve
