/// \file Per-layer probes of the traced run: each times calls into one
/// layer's public functions from the benchmark's own code, paired with a
/// without-the-work twin where the layer has one (the paper's Fig. 5
/// method).
#pragma once

#include "drive.hpp"

#include <mempool/stream_ops.hpp>
#include <native/native.hpp>

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

namespace layerbench
{
    template<typename F>
    [[nodiscard]] auto timeNs(F&& f) -> double
    {
        auto const t0 = Clock::now();
        f();
        return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
    }

    struct HandoffProbe
    {
        double ns = 0.0; //!< median runPrebuilt of an empty job, workers parked
        double parkedShare = 0.0; //!< rounds in which the workers had parked
    };

    //! Park/wake: an empty job with one chunk per pool worker, issued after
    //! the workers have given up spinning and parked.
    [[nodiscard]] inline auto probeHandoff(threadpool::ThreadPool& pool, int rounds) -> HandoffProbe
    {
        struct Nop
        {
            void operator()(std::size_t) const noexcept
            {
            }
        };
        Nop const nop;
        auto const job = pool.prebuild(pool.workerCount(), nop);
        std::vector<double> samples;
        int parked = 0;
        for(int r = 0; r < rounds; ++r)
        {
            auto const afterLastJob = pool.counters().parks;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            parked += pool.counters().parks > afterLastJob ? 1 : 0;
            samples.push_back(timeNs([&] { pool.runPrebuilt(job); }));
        }
        return {median(samples), static_cast<double>(parked) / rounds};
    }

    struct ReplayProbe
    {
        double ns = 0.0; //!< the gemm DAG, one request
        double emptyNs = 0.0; //!< same DAG shape, empty node bodies
    };

    //! wire_gemm's DAG replayed directly on a synchronous stream for a
    //! batch of one, interleaved with its empty-bodied twin.
    [[nodiscard]] inline auto probeReplay(threadpool::ThreadPool& pool, GemmData const& data, std::size_t maxBatch, int pairs)
        -> ReplayProbe
    {
        auto const dev = dev::PltfCpu::getDevByIdx(0);
        stream::StreamCpuSync stream(dev);
        std::vector<double> scratch(data.n * data.n);
        std::array<std::byte, payloadBytes> payload{};
        GemmPayload const p{3, 0.0};
        std::memcpy(payload.data(), &p, sizeof(p));
        serve::RequestItem const item{payload.data(), payloadBytes, scratch.data()};
        serve::BatchView const view(&item, 1, data.scratchBytes());
        serve::BatchView const* cell = &view;
        graph::Exec full(buildGemmGraph(dev, &cell, data, maxBatch, false), pool);
        graph::Exec empty(buildGemmGraph(dev, &cell, data, maxBatch, true), pool);
        std::vector<double> fullNs;
        std::vector<double> emptyNs;
        for(int i = 0; i < pairs; ++i)
        {
            fullNs.push_back(timeNs([&] { full.replay(stream); }));
            emptyNs.push_back(timeNs([&] { empty.replay(stream); }));
        }
        GemmPayload out;
        std::memcpy(&out, payload.data(), sizeof(out));
        if(std::abs(out.checksum - data.ref[3]) > 1e-9 * std::max(1.0, std::abs(data.ref[3])))
            throw std::runtime_error("layerbench: direct replay produced a wrong checksum");
        return {median(fullNs), median(emptyNs)};
    }

    //! One allocAsync + freeAsync pair of the gemm scratch size on the CPU
    //! device pool the shards use, same-stream (the serving pattern).
    [[nodiscard]] inline auto probeAllocFree(std::size_t bytes, int batches) -> double
    {
        auto const dev = dev::PltfCpu::getDevByIdx(0);
        stream::StreamCpuSync stream(dev);
        auto& pool = mempool::Pool::forDev(dev);
        constexpr int perBatch = 1000;
        std::vector<double> samples;
        for(int b = 0; b < batches; ++b)
            samples.push_back(
                timeNs(
                    [&]
                    {
                        for(int i = 0; i < perBatch; ++i)
                            pool.freeAsync(stream, pool.allocAsync(stream, bytes));
                    })
                / perBatch);
        return median(samples);
    }

    struct KernelProbe
    {
        double gemmNs = 0.0; //!< one n x n DGEMM through AccCpuTaskBlocks on the pool
        double nativeNs = 0.0; //!< native::omp::gemm, same n, same thread count
        double alpakaOverNative = 0.0;
    };

    //! The Fig. 5 pairing: the wire_gemm kernel for one request, lowered
    //! once and chunked over the fleet's pool exactly as a graph replay
    //! runs it, interleaved with the native OpenMP DGEMM on as many
    //! threads as the pool has participants.
    [[nodiscard]] inline auto probeKernel(threadpool::ThreadPool& pool, GemmData const& data, int pairs) -> KernelProbe
    {
        auto const dev = dev::PltfCpu::getDevByIdx(0);
        auto const n = data.n;
        std::vector<double> a = data.a[5];
        std::vector<double> c(n * n);
        std::vector<double> nativeC(n * n);
        serve::RequestItem const item{nullptr, 0, a.data()};
        serve::BatchView const view(&item, 1, data.scratchBytes());
        serve::BatchView const* cell = &view;
        auto const lowered = exec::detail::lowerKernel(
            dev,
            exec::create<GemmAcc>(gemmWorkDiv(1), BatchGemmKernel{}, n, data.b.data(), &cell, c.data()));
        auto const blocks = [&](std::size_t block) { lowered.range(block, block + 1); };

        omp_set_num_threads(static_cast<int>(pool.workerCount() + 1));
        std::vector<double> alpakaNs;
        std::vector<double> nativeNs;
        for(int i = 0; i < pairs; ++i)
        {
            alpakaNs.push_back(timeNs([&] { pool.parallelForTemplated(lowered.chunkCount, blocks); }));
            nativeNs.push_back(timeNs(
                [&] { native::omp::gemm(n, 1.0, a.data(), n, data.b.data(), n, 0.0, nativeC.data(), n); }));
        }
        auto const ref = data.ref[5];
        for(auto const* result : {&c, &nativeC})
            if(std::abs(checksum(result->data(), n * n) - ref) > 1e-9 * std::max(1.0, std::abs(ref)))
                throw std::runtime_error("layerbench: kernel probe produced a wrong DGEMM");
        KernelProbe out;
        out.gemmNs = median(alpakaNs);
        out.nativeNs = median(nativeNs);
        out.alpakaOverNative = out.gemmNs / out.nativeNs;
        return out;
    }
} // namespace layerbench
