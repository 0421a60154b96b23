/// \file Task-graph tests: explicit node-add API, instantiation-time
/// pre-resolution, and replay equivalence against direct stream execution
/// (DESIGN.md §4, invariants 9 and 10).
#include <graph/exec.hpp>
#include <graph/graph.hpp>

#include <alpaka/alpaka.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

using namespace alpaka;
using Size = std::size_t;

namespace
{
    struct IotaKernel
    {
        template<typename TAcc>
        ALPAKA_FN_ACC void operator()(TAcc const& acc, double* out) const
        {
            auto const i = idx::getIdx<Grid, Blocks>(acc)[0];
            out[i] = static_cast<double>(i);
        }
    };

    struct ScaleKernel
    {
        template<typename TAcc>
        ALPAKA_FN_ACC void operator()(TAcc const& acc, double const* in, double* out, double factor) const
        {
            auto const i = idx::getIdx<Grid, Blocks>(acc)[0];
            out[i] = in[i] * factor;
        }
    };

    struct OffsetKernel
    {
        template<typename TAcc>
        ALPAKA_FN_ACC void operator()(TAcc const& acc, double const* in, double* out, double offset) const
        {
            auto const i = idx::getIdx<Grid, Blocks>(acc)[0];
            out[i] = in[i] + offset;
        }
    };

    struct JoinKernel
    {
        template<typename TAcc>
        ALPAKA_FN_ACC void operator()(TAcc const& acc, double const* a, double const* b, double* out) const
        {
            auto const i = idx::getIdx<Grid, Blocks>(acc)[0];
            out[i] = a[i] + b[i];
        }
    };

    struct AccumulateKernel
    {
        template<typename TAcc>
        ALPAKA_FN_ACC void operator()(TAcc const& acc, double* data, double delta) const
        {
            auto const i = idx::getIdx<Grid, Blocks>(acc)[0];
            data[i] += delta;
        }
    };

    //! Builds the canonical diamond over raw pointers: iota -> {×2, +3} ->
    //! join. One-thread-per-block work division, \p n blocks.
    template<typename TAcc>
    auto buildDiamond(typename TAcc::Dev const& dev, Size n, double* a, double* b1, double* b2, double* c)
        -> graph::Graph
    {
        workdiv::WorkDivMembers<Dim1, Size> const wd(n, Size{1}, Size{1});
        graph::Graph g;
        auto const n0 = g.addKernel({}, dev, exec::create<TAcc>(wd, IotaKernel{}, a));
        auto const n1 = g.addKernel({n0}, dev, exec::create<TAcc>(wd, ScaleKernel{}, a, b1, 2.0));
        auto const n2 = g.addKernel({n0}, dev, exec::create<TAcc>(wd, OffsetKernel{}, a, b2, 3.0));
        g.addKernel({n1, n2}, dev, exec::create<TAcc>(wd, JoinKernel{}, b1, b2, c));
        return g;
    }

    //! Direct (per-call resubmission) execution of the same diamond.
    template<typename TAcc, typename TStream>
    void runDiamondDirect(TStream& stream, Size n, double* a, double* b1, double* b2, double* c)
    {
        auto const dev = stream.getDev();
        workdiv::WorkDivMembers<Dim1, Size> const wd(n, Size{1}, Size{1});
        stream::enqueue(stream, exec::create<TAcc>(wd, IotaKernel{}, a));
        stream::enqueue(stream, exec::create<TAcc>(wd, ScaleKernel{}, a, b1, 2.0));
        stream::enqueue(stream, exec::create<TAcc>(wd, OffsetKernel{}, a, b2, 3.0));
        stream::enqueue(stream, exec::create<TAcc>(wd, JoinKernel{}, b1, b2, c));
        wait::wait(stream);
        (void) dev;
    }
} // namespace

// ---------------------------------------------------------------------
// Replay equivalence on DevCpu (invariant 9), pool-backed and serial
// back-ends, sync and async target streams.

namespace
{
    template<typename TAcc, typename TStream>
    void diamondEquivalence()
    {
        auto const dev = dev::DevMan<TAcc>::getDevByIdx(0);
        constexpr Size n = 64;
        std::vector<double> a(n), b1(n), b2(n), c(n);
        std::vector<double> ra(n), rb1(n), rb2(n), rc(n);

        TStream direct(dev);
        runDiamondDirect<TAcc>(direct, n, a.data(), b1.data(), b2.data(), c.data());

        auto const g = buildDiamond<TAcc>(dev, n, ra.data(), rb1.data(), rb2.data(), rc.data());
        graph::Exec exec(g);
        EXPECT_EQ(exec.nodeCount(), 4u);
        EXPECT_EQ(exec.edgeCount(), 4u);
        TStream replayStream(dev);
        exec.replay(replayStream);
        wait::wait(replayStream);

        EXPECT_EQ(c, rc) << "replay result differs from direct execution";
        EXPECT_EQ(b1, rb1);
        EXPECT_EQ(b2, rb2);
    }
} // namespace

TEST(GraphReplay, DiamondMatchesDirectOnTaskBlocksAsync)
{
    diamondEquivalence<acc::AccCpuTaskBlocks<Dim1, Size>, stream::StreamCpuAsync>();
}

TEST(GraphReplay, DiamondMatchesDirectOnTaskBlocksSync)
{
    diamondEquivalence<acc::AccCpuTaskBlocks<Dim1, Size>, stream::StreamCpuSync>();
}

TEST(GraphReplay, DiamondMatchesDirectOnSerial)
{
    diamondEquivalence<acc::AccCpuSerial<Dim1, Size>, stream::StreamCpuAsync>();
}

TEST(GraphReplay, DiamondMatchesDirectOnThreads)
{
    diamondEquivalence<acc::AccCpuThreads<Dim1, Size>, stream::StreamCpuAsync>();
}

//! A fat TaskBlocks kernel node must split into multiple subtasks (the
//! chunked range path) and still cover every block exactly once.
TEST(GraphReplay, FatKernelNodeChunksAcrossWorkers)
{
    using Acc = acc::AccCpuTaskBlocks<Dim1, Size>;
    auto const dev = dev::DevMan<Acc>::getDevByIdx(0);
    constexpr Size n = 1000;
    workdiv::WorkDivMembers<Dim1, Size> const wd(n, Size{1}, Size{1});

    std::vector<double> data(n, 0.0);
    graph::Graph g;
    g.addKernel({}, dev, exec::create<Acc>(wd, AccumulateKernel{}, data.data(), 1.0));
    graph::Exec exec(g);
    EXPECT_GT(exec.subtaskCount(), 1u) << "a 1000-block kernel node must chunk";

    stream::StreamCpuAsync s(dev);
    exec.replay(s);
    exec.replay(s);
    s.wait();
    for(Size i = 0; i < n; ++i)
        ASSERT_EQ(data[i], 2.0) << "block " << i << " not covered exactly once per replay";
}

namespace
{
    struct CountKernel
    {
        template<typename TAcc>
        ALPAKA_FN_ACC void operator()(TAcc const& acc, std::atomic<std::uint32_t>* runs) const
        {
            auto const i = idx::getIdx<Grid, Blocks>(acc)[0];
            runs[i].fetch_add(1, std::memory_order_relaxed);
        }
    };

    //! Subtask count of a one-kernel-node graph of \p blocks blocks
    //! instantiated on \p pool.
    auto kernelNodeSubtasks(Size blocks, threadpool::ThreadPool& pool) -> std::size_t
    {
        using Acc = acc::AccCpuTaskBlocks<Dim1, Size>;
        auto const dev = dev::DevMan<Acc>::getDevByIdx(0);
        workdiv::WorkDivMembers<Dim1, Size> const wd(blocks, Size{1}, Size{1});
        graph::Graph g;
        g.addKernel({}, dev, exec::create<Acc>(wd, IotaKernel{}, static_cast<double*>(nullptr)));
        return graph::Exec(g, pool).subtaskCount();
    }
} // namespace

//! A range node gets 8 subtasks per replay participant — the pool's
//! workers plus the driver — but no fewer than 8 blocks per subtask.
TEST(GraphReplay, KernelNodeSplitCountsTheDriver)
{
    threadpool::ThreadPool one(1);
    EXPECT_EQ(kernelNodeSubtasks(256, one), 16u) << "256 blocks / (2 participants x 8)";
    EXPECT_EQ(kernelNodeSubtasks(8, one), 1u) << "a tiny grid stays one subtask";
    threadpool::ThreadPool four(4);
    EXPECT_EQ(kernelNodeSubtasks(256, four), 32u) << "grain floors at 8 blocks";
    EXPECT_EQ(kernelNodeSubtasks(1000, four), 40u) << "1000 blocks / (5 participants x 8)";
}

//! Two drivers replay one Exec concurrently into a 1-worker pool, so
//! three threads share the subtasks of two replays: every block still
//! runs exactly once per replay.
TEST(GraphReplay, ConcurrentDriversRunEveryBlockOncePerReplay)
{
    using Acc = acc::AccCpuTaskBlocks<Dim1, Size>;
    auto const dev = dev::DevMan<Acc>::getDevByIdx(0);
    constexpr Size n = 256;
    constexpr std::uint32_t replaysPerDriver = 200;
    workdiv::WorkDivMembers<Dim1, Size> const wd(n, Size{1}, Size{1});

    std::vector<std::atomic<std::uint32_t>> runs(n);
    graph::Graph g;
    g.addKernel({}, dev, exec::create<Acc>(wd, CountKernel{}, runs.data()));
    threadpool::ThreadPool pool(1);
    graph::Exec exec(g, pool);
    ASSERT_GT(exec.subtaskCount(), 2u);

    auto const drive = [&]
    {
        stream::StreamCpuSync s(dev);
        for(std::uint32_t r = 0; r < replaysPerDriver; ++r)
            exec.replay(s);
        s.wait();
    };
    std::thread other(drive);
    drive();
    other.join();
    for(Size i = 0; i < n; ++i)
        ASSERT_EQ(runs[i].load(), 2 * replaysPerDriver) << "block " << i;
}

// ---------------------------------------------------------------------
// Replay equivalence on DevCudaSim: set + kernels + copy-back nodes, and
// the simulator's stats prove the grids really re-executed.

TEST(GraphReplay, DiamondMatchesDirectOnCudaSim)
{
    using Acc = acc::AccGpuCudaSim<Dim1, Size>;
    auto const dev = dev::DevMan<Acc>::getDevByIdx(0);
    constexpr Size n = 32;
    workdiv::WorkDivMembers<Dim1, Size> const wd(n, Size{1}, Size{1});

    auto a = mem::buf::alloc<double, Size>(dev, n);
    auto b1 = mem::buf::alloc<double, Size>(dev, n);
    auto b2 = mem::buf::alloc<double, Size>(dev, n);
    auto c = mem::buf::alloc<double, Size>(dev, n);
    std::vector<double> hostDirect(n, -1.0), hostReplay(n, -2.0);
    mem::view::ViewPlainPtr<dev::DevCpu, double, Dim1, Size> directView(hostDirect.data(), {}, Vec<Dim1, Size>(n));
    mem::view::ViewPlainPtr<dev::DevCpu, double, Dim1, Size> replayView(hostReplay.data(), {}, Vec<Dim1, Size>(n));

    // Direct execution.
    {
        stream::StreamCudaSimAsync s(dev);
        mem::view::set(s, a, 0, Vec<Dim1, Size>(n));
        stream::enqueue(s, exec::create<Acc>(wd, IotaKernel{}, a.data()));
        stream::enqueue(s, exec::create<Acc>(wd, ScaleKernel{}, a.data(), b1.data(), 2.0));
        stream::enqueue(s, exec::create<Acc>(wd, OffsetKernel{}, a.data(), b2.data(), 3.0));
        stream::enqueue(s, exec::create<Acc>(wd, JoinKernel{}, b1.data(), b2.data(), c.data()));
        mem::view::copy(s, directView, c, Vec<Dim1, Size>(n));
        wait::wait(s);
    }

    // Graph: same pipeline as explicit nodes, including Set and Copy.
    graph::Graph g;
    auto const nSet = g.addSet({}, a, 0, Vec<Dim1, Size>(n));
    auto const n0 = g.addKernel({nSet}, dev, exec::create<Acc>(wd, IotaKernel{}, a.data()));
    auto const n1 = g.addKernel({n0}, dev, exec::create<Acc>(wd, ScaleKernel{}, a.data(), b1.data(), 2.0));
    auto const n2 = g.addKernel({n0}, dev, exec::create<Acc>(wd, OffsetKernel{}, a.data(), b2.data(), 3.0));
    auto const n3 = g.addKernel({n1, n2}, dev, exec::create<Acc>(wd, JoinKernel{}, b1.data(), b2.data(), c.data()));
    g.addCopy({n3}, replayView, c, Vec<Dim1, Size>(n));

    graph::Exec exec(g);
    auto const launchedBefore = dev.simDevice().execStats().kernelsLaunched;
    stream::StreamCudaSimAsync replayStream(dev);
    exec.replay(replayStream);
    wait::wait(replayStream);

    EXPECT_EQ(hostDirect, hostReplay) << "sim replay result differs from direct execution";
    // Replay trace validation: the simulator really executed 4 grids.
    EXPECT_EQ(dev.simDevice().execStats().kernelsLaunched, launchedBefore + 4);
}

// ---------------------------------------------------------------------
// Replays accumulate exactly like resubmission (capture-once/replay-N).

TEST(GraphReplay, RepeatedReplayMatchesRepeatedResubmission)
{
    using Acc = acc::AccCpuTaskBlocks<Dim1, Size>;
    auto const dev = dev::DevMan<Acc>::getDevByIdx(0);
    constexpr Size n = 16;
    constexpr int rounds = 5;
    workdiv::WorkDivMembers<Dim1, Size> const wd(n, Size{1}, Size{1});

    std::vector<double> direct(n, 0.0), replayed(n, 0.0);
    stream::StreamCpuAsync s(dev);
    for(int r = 0; r < rounds; ++r)
        stream::enqueue(s, exec::create<Acc>(wd, AccumulateKernel{}, direct.data(), 1.5));
    s.wait();

    graph::Graph g;
    g.addKernel({}, dev, exec::create<Acc>(wd, AccumulateKernel{}, replayed.data(), 1.5));
    graph::Exec exec(g);
    stream::StreamCpuAsync rs(dev);
    for(int r = 0; r < rounds; ++r)
        exec.replay(rs);
    rs.wait();

    EXPECT_EQ(direct, replayed);
}

// ---------------------------------------------------------------------
// Mixed-device graphs: the nodes carry their devices; one DAG spans the
// CPU and a simulated GPU.

TEST(GraphReplay, MixedDeviceChain)
{
    using CpuAcc = acc::AccCpuSerial<Dim1, Size>;
    using SimAcc = acc::AccGpuCudaSim<Dim1, Size>;
    auto const cpu = dev::DevMan<CpuAcc>::getDevByIdx(0);
    auto const sim = dev::DevMan<SimAcc>::getDevByIdx(0);
    constexpr Size n = 8;
    workdiv::WorkDivMembers<Dim1, Size> const wd(n, Size{1}, Size{1});

    std::vector<double> host(n, 0.0), result(n, 0.0);
    mem::view::ViewPlainPtr<dev::DevCpu, double, Dim1, Size> hostView(host.data(), {}, Vec<Dim1, Size>(n));
    mem::view::ViewPlainPtr<dev::DevCpu, double, Dim1, Size> resultView(result.data(), {}, Vec<Dim1, Size>(n));
    auto devBuf = mem::buf::alloc<double, Size>(sim, n);

    graph::Graph g;
    auto const n0 = g.addKernel({}, cpu, exec::create<CpuAcc>(wd, IotaKernel{}, host.data()));
    auto const n1 = g.addCopy({n0}, devBuf, hostView, Vec<Dim1, Size>(n));
    auto const n2 = g.addKernel({n1}, sim, exec::create<SimAcc>(wd, AccumulateKernel{}, devBuf.data(), 10.0));
    g.addCopy({n2}, resultView, devBuf, Vec<Dim1, Size>(n));

    graph::Exec exec(g);
    stream::StreamCpuAsync s(cpu);
    exec.replay(s);
    s.wait();

    for(Size i = 0; i < n; ++i)
        EXPECT_EQ(result[i], static_cast<double>(i) + 10.0);
}

// ---------------------------------------------------------------------
// Independent branches genuinely overlap: a node that blocks until its
// independent sibling ran can only complete when both are in flight at
// once (driver + at least one pool worker).

TEST(GraphReplay, IndependentBranchesOverlap)
{
    std::atomic<bool> released{false};
    std::atomic<bool> waiterSawRelease{false};

    graph::Graph g;
    g.addHost(
        {},
        [&]
        {
            auto const deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while(!released.load() && std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            waiterSawRelease = released.load();
        });
    g.addHost({}, [&] { released = true; });

    graph::Exec exec(g);
    stream::StreamCpuAsync s(dev::PltfCpu::getDevByIdx(0));
    exec.replay(s);
    s.wait();
    EXPECT_TRUE(waiterSawRelease.load()) << "independent graph branches did not overlap";
}

// ---------------------------------------------------------------------
// Pre-resolution: invalid launches fail at graph-build time, not replay.

TEST(GraphBuild, InvalidWorkDivFailsAtAdd)
{
    using Acc = acc::AccCpuTaskBlocks<Dim1, Size>;
    auto const dev = dev::DevMan<Acc>::getDevByIdx(0);
    // TaskBlocks collapses the thread level: >1 thread per block invalid.
    workdiv::WorkDivMembers<Dim1, Size> const bad(Size{4}, Size{2}, Size{1});
    graph::Graph g;
    double* nullData = nullptr;
    EXPECT_THROW(
        g.addKernel({}, dev, exec::create<Acc>(bad, IotaKernel{}, nullData)),
        InvalidWorkDivError);
    EXPECT_EQ(g.nodeCount(), 0u);
}

TEST(GraphBuild, ForwardDependencyRejected)
{
    graph::Graph g;
    EXPECT_THROW(g.addHost({graph::NodeId{0}}, [] {}), UsageError);
    auto const n0 = g.addHost({}, [] {});
    EXPECT_THROW(g.addEmpty({static_cast<graph::NodeId>(n0 + 1)}), UsageError);
}

TEST(GraphBuild, DependsOnIsTransitive)
{
    graph::Graph g;
    auto const n0 = g.addEmpty({});
    auto const n1 = g.addEmpty({n0});
    auto const n2 = g.addEmpty({n1});
    auto const n3 = g.addEmpty({});
    EXPECT_TRUE(g.dependsOn(n2, n0));
    EXPECT_TRUE(g.dependsOn(n2, n1));
    EXPECT_FALSE(g.dependsOn(n0, n2));
    EXPECT_FALSE(g.dependsOn(n3, n0));
}

// ---------------------------------------------------------------------
// Empty graph replay is a no-op; duplicate deps count once.

TEST(GraphReplay, EmptyGraphIsNoop)
{
    graph::Graph g;
    graph::Exec exec(g);
    stream::StreamCpuAsync s(dev::PltfCpu::getDevByIdx(0));
    EXPECT_NO_THROW(exec.replay(s));
    EXPECT_NO_THROW(s.wait());
}

TEST(GraphReplay, DuplicateDependenciesCountOnce)
{
    int runs = 0;
    graph::Graph g;
    auto const n0 = g.addHost({}, [&] { ++runs; });
    g.addHost({n0, n0, n0}, [&] { ++runs; });
    graph::Exec exec(g);
    stream::StreamCpuSync s(dev::PltfCpu::getDevByIdx(0));
    exec.replay(s);
    EXPECT_EQ(runs, 2);
}

// ---------------------------------------------------------------------
// Error poisoning (invariant 10): the first throwing node poisons the
// replay — downstream bodies are skipped, event records still complete,
// and the error resurfaces through the target stream.

TEST(GraphReplay, ErrorPoisonsDownstreamButEventsComplete)
{
    auto const dev = dev::PltfCpu::getDevByIdx(0);
    std::atomic<bool> downstreamRan{false};
    event::EventCpu ev(dev);

    graph::Graph g;
    auto const bad = g.addHost({}, [] { throw std::runtime_error("node failed"); });
    auto const skipped = g.addHost({bad}, [&] { downstreamRan = true; });
    g.addEventRecord({skipped}, ev);

    graph::Exec exec(g);
    stream::StreamCpuAsync s(dev);
    exec.replay(s);
    EXPECT_THROW(s.wait(), std::runtime_error);
    EXPECT_FALSE(downstreamRan.load()) << "poisoned replay must skip downstream bodies";
    EXPECT_TRUE(ev.isDone()) << "event records complete even on a poisoned replay";
}

//! A failed replay leaves the Exec reusable (counters reset per replay).
TEST(GraphReplay, ExecReusableAfterPoisonedReplay)
{
    auto const dev = dev::PltfCpu::getDevByIdx(0);
    std::atomic<bool> shouldThrow{true};
    std::atomic<int> downstream{0};

    graph::Graph g;
    auto const first = g.addHost(
        {},
        [&]
        {
            if(shouldThrow.load())
                throw std::runtime_error("first replay fails");
        });
    g.addHost({first}, [&] { ++downstream; });

    graph::Exec exec(g);
    {
        stream::StreamCpuAsync s(dev);
        exec.replay(s);
        EXPECT_THROW(s.wait(), std::runtime_error);
    }
    EXPECT_EQ(downstream.load(), 0);
    shouldThrow = false;
    {
        stream::StreamCpuAsync s(dev);
        exec.replay(s);
        EXPECT_NO_THROW(s.wait());
    }
    EXPECT_EQ(downstream.load(), 1);
}

// ---------------------------------------------------------------------
// Event-record nodes re-arm per replay and complete in DAG order.

TEST(GraphReplay, EventRecordReArmsPerReplayAndCompletesInOrder)
{
    auto const dev = dev::PltfCpu::getDevByIdx(0);
    event::EventCpu ev(dev);
    EXPECT_TRUE(ev.isDone()); // never recorded counts as complete

    std::atomic<bool> started{false};
    std::atomic<bool> proceed{false};
    std::atomic<int> value{0};

    graph::Graph g;
    auto const work = g.addHost(
        {},
        [&]
        {
            started = true;
            auto const deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while(!proceed.load() && std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            value = 42;
        });
    g.addEventRecord({work}, ev);

    graph::Exec exec(g);
    stream::StreamCpuAsync s(dev);
    exec.replay(s);
    // The replay prologue re-armed the event before any node could run;
    // while the gated predecessor blocks, the event must be pending.
    while(!started.load())
        std::this_thread::yield();
    EXPECT_FALSE(ev.isDone()) << "replay must re-arm captured events at replay start";
    proceed = true;
    wait::wait(ev); // host-side wait on the replayed event
    EXPECT_EQ(value.load(), 42) << "event completed before its dependency finished";
    s.wait();
    EXPECT_TRUE(ev.isDone());
}
