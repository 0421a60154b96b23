/// \file Graph instantiation and near-zero-overhead replay
/// (DESIGN.md §4.3).
///
/// graph::Exec freezes a Graph into its executable form once:
/// dependencies become a successor CSR + per-node initial indegrees,
/// chunkable kernel nodes are split into block-range subtasks, and the
/// pool job descriptor (count, grain, trampoline) is pre-built.
/// replay(stream) then costs: one task pushed into the target stream +
/// one pre-built pool job — independent of how many operations the
/// pipeline contains.
///
/// Replays of one Exec may run CONCURRENTLY (the kernel-service runtime
/// keeps several in-flight replays of one request template): all mutable
/// per-replay state — the atomic indegree/pending counters, the ready
/// ring, the pop/push cursors, poisoning and the first-error slot — lives
/// in a ReplayScratch acquired from a small replay-owned pool at the
/// start of run() and returned when the replay drained. The frozen DAG
/// (nodes, CSR, subtasks) is shared read-only, so concurrent replays
/// never touch common mutable bookkeeping; whether the node BODIES
/// tolerate overlapped execution is the graph author's contract, exactly
/// as it is for the same kernels enqueued into two live streams.
///
/// Exception: an Exec whose graph carries *shared replay infrastructure*
/// the author cannot make overlap-safe — event-record nodes (the shared
/// event is re-armed by a per-replay prologue and completed mid-replay)
/// or graph memory nodes (every replay addresses the SAME reserved
/// block, invariant 12) — serializes its replays on an internal mutex,
/// preserving the pre-PR 5 semantics for exactly the graphs that need
/// them. Introspectable via replaysSerialize().
///
/// Replay protocol (run()/runTicket() in exec.cpp): the driver — the
/// task enqueued into the target stream, so a replay is ordered like any
/// other operation of that stream — re-arms captured events, resets the
/// counters, seeds the ready ring with the indegree-zero nodes and
/// submits the pre-built job to the ThreadPool. Every job index is a
/// *pop ticket*: the participant (pool worker or helping driver) takes
/// the next ring position, waits until a push filled it (spin-then-park,
/// the pool's own discipline), runs the subtask, and on a node's last
/// subtask decrements the successors' indegree counters — pushing every
/// node that reaches zero. Independent branches are therefore in the
/// ring simultaneously and spread over the workers through the ordinary
/// chunk claiming, exactly like any other job in the slot ring (stealing
/// included, since the graph occupies one slot among eight).
///
/// Error semantics mirror the streams' sticky errors (invariant 4/10):
/// the first throwing node poisons the replay — downstream bodies are
/// skipped (except always-run event records, which must complete or
/// host waiters would hang), the DAG bookkeeping still runs to
/// completion, and the error resurfaces through the target stream's
/// usual channel (stream::wait).
#pragma once

#include "graph/graph.hpp"

#include "alpaka/stream.hpp"

#include "threadpool/spin.hpp"
#include "threadpool/thread_pool.hpp"

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

namespace alpaka::graph
{
    class Exec
    {
    public:
        //! Instantiates \p graph for replay through \p pool. The Graph may
        //! be discarded afterwards; the Exec is self-contained.
        explicit Exec(Graph const& graph, threadpool::ThreadPool& pool = threadpool::ThreadPool::global());

        Exec(Exec const&) = delete;
        auto operator=(Exec const&) -> Exec& = delete;

        //! Enqueues one full DAG execution into \p stream (any stream
        //! type; the graph's nodes carry their own devices, so the target
        //! stream only hosts the driver). Replays of one Exec may overlap
        //! — each gets its own scratch, errors stay confined per replay;
        //! the Exec must outlive every replay (wait on the streams before
        //! destroying it). \throws UsageError when \p stream is capturing.
        template<typename TStream>
        void replay(TStream& stream)
        {
            requireNotCapturing(stream);
            if constexpr(std::is_same_v<TStream, stream::StreamCpuSync>)
                stream.run([this] { run(); });
            else if constexpr(std::is_same_v<TStream, stream::StreamCpuAsync>)
                stream.push([this] { run(); });
            else
                stream.simStream().enqueue([this] { run(); });
        }

        //! \name introspection (tests, bench)
        //! @{
        [[nodiscard]] auto nodeCount() const noexcept -> std::size_t
        {
            return nodes_.size();
        }
        [[nodiscard]] auto edgeCount() const noexcept -> std::size_t
        {
            return succ_.size();
        }
        [[nodiscard]] auto subtaskCount() const noexcept -> std::size_t
        {
            return subtasks_.size();
        }
        //! True when replays of this Exec serialize (the graph carries
        //! event-record or graph-memory nodes — shared state a concurrent
        //! replay would corrupt); false when replays may overlap.
        [[nodiscard]] auto replaysSerialize() const noexcept -> bool
        {
            return serializeReplays_;
        }
        //! @}

    private:
        template<typename TStream>
        static void requireNotCapturing(TStream const& stream)
        {
            bool capturing = false;
            if constexpr(requires { stream.captureSink(); })
                capturing = stream.captureSink() != nullptr;
            else
                capturing = stream.capturing();
            if(capturing)
                throw UsageError("graph::Exec::replay into a capturing stream");
        }

        struct SubTask
        {
            NodeId node = 0;
            std::size_t begin = 0;
            std::size_t end = 0;
        };

        //! Frozen per-node execution state (immutable after instantiate).
        struct NodeExec
        {
            std::function<void()> body;
            std::function<void(std::size_t, std::size_t)> range;
            bool always = false;
            std::uint32_t initialIndeg = 0;
            std::uint32_t subCount = 1;
            std::uint32_t succBegin = 0;
            std::uint32_t succEnd = 0;
        };

        //! Cache-line padded atomic, one per node (indegree / pending).
        struct alignas(64) Counter
        {
            std::atomic<std::uint32_t> value{0};
        };

        struct ReplayScratch;

        //! The per-index body of the pre-built pool job; one per scratch,
        //! so a pop ticket always lands in its own replay's ring.
        struct PopBody
        {
            Exec* self = nullptr;
            ReplayScratch* scratch = nullptr;
            void operator()(std::size_t /*index*/) const;
        };

        //! One replay's complete working set. Acquired from scratchPool_
        //! per run(); successive users are synchronized by the pool mutex,
        //! so the relaxed counter resets in run() stay safe exactly as
        //! under the old serialize-everything replay mutex.
        struct ReplayScratch
        {
            std::unique_ptr<Counter[]> indeg;
            std::unique_ptr<Counter[]> pending;
            //! Ready ring: position i holds subtask-id + 1 once pushed.
            //! Exactly subtaskCount() pushes and pops happen per replay,
            //! so positions are handed out by plain fetch_adds and never
            //! wrap.
            std::unique_ptr<std::atomic<std::uint32_t>[]> ring;
            alignas(64) std::atomic<std::size_t> popTicket{0};
            alignas(64) std::atomic<std::size_t> pushCursor{0};
            //! Publish word of the ring — the pool's own spin-then-park,
            //! notify-eliding discipline (threadpool::detail::PublishWord).
            threadpool::detail::PublishWord readyWord;
            std::atomic<bool> poisoned{false};
            threadpool::detail::FirstError errors;
            PopBody popBody;
            threadpool::ThreadPool::PrebuiltJob job;
        };

        void run();
        void runTicket(ReplayScratch& scratch);
        void pushNode(ReplayScratch& scratch, NodeId node);
        void completeNode(ReplayScratch& scratch, NodeId node);
        [[nodiscard]] auto acquireScratch() -> std::unique_ptr<ReplayScratch>;
        void releaseScratch(std::unique_ptr<ReplayScratch> scratch);

        threadpool::ThreadPool* pool_;
        std::vector<NodeExec> nodes_;
        std::vector<NodeId> succ_; //!< successor CSR, indexed by succBegin/End
        std::vector<SubTask> subtasks_; //!< grouped by node, node-contiguous
        std::vector<std::uint32_t> firstSub_; //!< per node: its first subtask
        std::vector<NodeId> initialReady_;
        std::vector<std::function<void()>> prologues_;

        //! Replay-owned scratch pool: LIFO of drained working sets, popped
        //! per run(), grown on demand (steady state: one per concurrently
        //! in-flight replay, typically 1).
        std::mutex scratchMutex_;
        std::vector<std::unique_ptr<ReplayScratch>> scratchPool_;
        //! Whole-replay serialization for graphs with shared replay
        //! infrastructure (see the header comment); held by run() only
        //! when serializeReplays_ is set.
        std::mutex serialMutex_;
        bool serializeReplays_ = false;
        int spinBudget_ = threadpool::detail::machineSpinBudget();
    };
} // namespace alpaka::graph
