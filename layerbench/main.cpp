/// \file layerbench — wire-to-kernel serving benchmark.
///
///   layerbench --workload <wire_small|wire_paced|wire_gemm> --seed <n>
///              --seconds <s> --trace <0|1>
///
/// --trace 0 (end to end): builds the fleet several times (set-up time is
/// the median), then drives the full wire path for --seconds and reports
/// throughput, exact client-side p50/p90 latency, set-up time and peak
/// RSS. Nothing inside the serving loop is timed by the benchmark except
/// the per-request send/receive stamps.
///
/// --trace 1 (per layer): an untraced and a traced wire phase (their p50
/// gap is the tracing overhead), the like-for-like ledger rungs (template
/// work alone -> Service::submit -> Router::submit -> wire, same requests,
/// tenants and window), and the layer probes. Every number is timed from
/// the benchmark's own calls into public functions.
///
/// Human-readable lines come first; the last line is one JSON object
/// {"correct", "attempted", "failed", "metrics"}. Exit code 1 on any
/// response that fails verification, 2 on bad arguments, 3 on a build
/// whose numbers must not be reported (fault injection or sanitizers).
#include "drive.hpp"
#include "fleet.hpp"
#include "probes.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace layerbench;

namespace
{
    //! Fleet builds per run; setup_s is their median.
    constexpr int setupRepeats = 15;

    struct Args
    {
        std::string workload;
        std::uint64_t seed = 1;
        double seconds = 10.0;
        bool trace = false;
    };

    [[nodiscard]] auto parseArgs(int argc, char** argv) -> Args
    {
        Args args;
        for(int i = 1; i + 1 < argc; i += 2)
        {
            std::string_view const key = argv[i];
            std::string const value = argv[i + 1];
            if(key == "--workload")
                args.workload = value;
            else if(key == "--seed")
                args.seed = std::stoull(value);
            else if(key == "--seconds")
                args.seconds = std::stod(value);
            else if(key == "--trace")
                args.trace = value != "0";
            else
                throw std::invalid_argument("unknown argument " + std::string(key));
        }
        if((argc - 1) % 2 != 0)
            throw std::invalid_argument("arguments come in --key value pairs");
        if(args.seconds <= 0.0)
            throw std::invalid_argument("--seconds must be positive");
        return args;
    }

    [[nodiscard]] auto sanitizerName() -> char const*
    {
#if defined(__SANITIZE_ADDRESS__)
        return "address";
#elif defined(__SANITIZE_THREAD__)
        return "thread";
#elif defined(__has_feature)
#    if __has_feature(address_sanitizer)
        return "address";
#    elif __has_feature(thread_sanitizer)
        return "thread";
#    endif
#endif
        return "none";
    }

    constexpr bool traceCompiledIn =
#if defined(ALPAKA_REPRO_TRACE)
        true;
#else
        false;
#endif
    constexpr bool faultInjectCompiledIn =
#if defined(ALPAKA_REPRO_FAULTINJECT)
        true;
#else
        false;
#endif
    constexpr bool allocTrackCompiledIn =
#if defined(ALPAKA_REPRO_ALLOCTRACK)
        true;
#else
        false;
#endif

    //! Host, build and run record carried by every result.
    [[nodiscard]] auto hostRecord(Args const& args) -> std::string
    {
        std::ostringstream os;
        os << R"({"workload":")" << args.workload << R"(","seed":)" << args.seed << R"(,"seconds":)"
           << args.seconds << R"(,"trace":)" << (args.trace ? 1 : 0) << R"(,"nproc":)"
           << std::thread::hardware_concurrency() << R"(,"compiler":")"
#if defined(__clang__)
           << "clang "
#elif defined(__GNUC__)
           << "gcc "
#endif
           << __VERSION__ << R"(","build_type":")" << LAYERBENCH_BUILD_TYPE << R"(","flags":{"ALPAKA_REPRO_TRACE":)"
           << traceCompiledIn << R"(,"ALPAKA_REPRO_FAULTINJECT":)" << faultInjectCompiledIn
           << R"(,"ALPAKA_REPRO_ALLOCTRACK":)" << allocTrackCompiledIn << R"(,"sanitizer":")" << sanitizerName()
           << R"("},"threads":{"generator_and_door_poller":1,"shard_workers":)" << shardCount * workersPerShard
           << R"(,"pool_workers":)" << poolWorkers << R"(,"total":)"
           << 1 + shardCount * workersPerShard + poolWorkers << R"(},"placement":")";
        if(placementOf(Place::front).empty())
            os << "unpinned";
        else
            for(auto const& [label, place] : {std::pair{"generator+door", Place::front}, {" shards+pool", Place::serving}})
            {
                os << label << "@cpu";
                for(auto const c : placementOf(place))
                    os << (c == placementOf(place).front() ? "" : "+") << c;
            }
        os << R"("})";
        return os.str();
    }

    //! Counters of every layer, read between phases.
    struct FleetSnap
    {
        std::array<std::uint64_t, shardCount> completed{};
        std::array<std::uint64_t, shardCount> batches{};
        serve::LatencyCounts queueWait;
        threadpool::PoolCounters pool;
        mempool::PoolStats mem;
        net::FrontDoorStats door;
    };

    [[nodiscard]] auto snap(Fleet& fleet) -> FleetSnap
    {
        FleetSnap s;
        for(std::size_t i = 0; i < shardCount; ++i)
        {
            auto const st = fleet.router.shard(i).stats();
            s.completed[i] = st.completed;
            s.batches[i] = st.batches;
            s.queueWait.merge(st.queueWaitCounts);
            // Every shard's CPU worker draws from the one per-device pool.
            if(i == 0 && !st.devicePools.empty())
                s.mem = st.devicePools.front().pool;
        }
        s.pool = fleet.pool.counters();
        s.door = fleet.door.stats();
        return s;
    }

    //! Upper edge (us) of the log2 bucket holding quantile \p q of the
    //! samples recorded between two snapshots.
    [[nodiscard]] auto bucketEdgeUs(serve::LatencyCounts const& after, serve::LatencyCounts const& before, double q)
        -> double
    {
        std::uint64_t total = 0;
        for(std::size_t b = 0; b < serve::LatencyCounts::bucketCount; ++b)
            total += after.counts[b] - before.counts[b];
        if(total == 0)
            return 0.0;
        auto const rank = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
        std::uint64_t seen = 0;
        for(std::size_t b = 0; b < serve::LatencyCounts::bucketCount; ++b)
        {
            seen += after.counts[b] - before.counts[b];
            if(seen >= rank)
                return static_cast<double>(std::uint64_t{1} << b);
        }
        return 0.0;
    }

    //! Stranded requests end the run: print where the fleet is stuck, then
    //! shut it down (resolving every admitted request) while the lanes the
    //! completions write into are still alive.
    void endStalledRun(Fleet& fleet, PhaseResult const& res, char const* phase)
    {
        std::cout << "STALL in phase " << phase << ": " << res.strandedAll << " request(s) unresolved after "
                  << stallTimeoutNs / 1'000'000 << " ms; ending the run\n";
        for(std::size_t i = 0; i < shardCount; ++i)
        {
            auto const st = fleet.router.shard(i).stats();
            std::cout << "  shard " << i << ": queued=" << st.queued << " inFlight=" << st.inFlight
                      << " completed=" << st.completed << " batches=" << st.batches << '\n';
        }
        auto const reports = fleet.router.shutdown(std::chrono::seconds(5));
        for(std::size_t i = 0; i < reports.size(); ++i)
            std::cout << "  shard " << i << " shutdown " << (reports[i].clean ? "clean" : "NOT clean") << '\n';
    }

    template<bool Traced, typename Backend>
    auto runPhase(Fleet& fleet, Backend& backend, PhaseConfig const& cfg, char const* name) -> PhaseResult
    {
        auto res = drive<Traced>(backend, cfg);
        if(res.stalled)
            endStalledRun(fleet, res, name);
        return res;
    }

    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    [[nodiscard]] auto fmt(double v) -> std::string
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
        return buf;
    }

    [[nodiscard]] auto peakRssBytes() -> double
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        return static_cast<double>(ru.ru_maxrss) * 1024.0;
    }

    //! Prints every metric by name with its unit, then the result line.
    auto finish(
        std::vector<Metric> const& metrics,
        std::vector<PhaseResult> const& phases,
        std::vector<std::string> const& notes) -> int
    {
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
        std::uint64_t mismatched = 0;
        for(auto const& p : phases)
        {
            attempted += p.attempted;
            failed += p.failed();
            mismatched += p.mismatchedAll;
        }
        bool const correct = mismatched == 0;
        for(auto const& note : notes)
            std::cout << note << '\n';
        for(auto const& m : metrics)
            std::cout << "  " << m.name << " = " << fmt(m.value) << ' ' << m.unit << '\n';
        if(!correct)
            std::cout << "FAILED VERIFICATION: " << mismatched << " response(s) did not match\n";
        std::ostringstream js;
        js << R"({"correct": )" << (correct ? "true" : "false") << R"(, "attempted": )" << std::max<std::uint64_t>(attempted, 1)
           << R"(, "failed": )" << failed << R"(, "metrics": {)";
        for(std::size_t i = 0; i < metrics.size(); ++i)
            js << (i == 0 ? "" : ", ") << '"' << metrics[i].name << R"(": {"value": )" << fmt(metrics[i].value)
               << R"(, "unit": ")" << metrics[i].unit << R"("})";
        js << "}}";
        std::cout << js.str() << std::endl;
        return correct ? 0 : 1;
    }

    [[nodiscard]] auto usOf(std::vector<std::uint32_t> const& ns, double q) -> double
    {
        return quantile(ns, q) / 1000.0;
    }

    [[nodiscard]] auto share(std::uint64_t part, std::uint64_t whole) -> double
    {
        return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
    }

    //! Request outcome summary of one phase (failed_share, tail, lateness).
    void describe(std::vector<std::string>& notes, char const* phase, PhaseResult const& res)
    {
        std::ostringstream os;
        os << "phase " << phase << ": attempted " << res.attempted << ", verified " << res.verified << ", failed "
           << res.failed() << " (refused/error " << res.statusFailed << ", mismatched " << res.mismatched
           << ", stranded " << res.stranded << ", unsent " << res.unsent << "), failed_share "
           << fmt(share(res.failed(), res.attempted)) << ", whole-run p50 " << fmt(usOf(res.latencyNs, 0.5))
           << " us, p90 " << fmt(usOf(res.latencyNs, 0.9)) << " us, tail p99 " << fmt(usOf(res.latencyNs, 0.99))
           << " us, p99.9 " << fmt(usOf(res.latencyNs, 0.999)) << " us over " << res.latencyNs.size() << " samples";
        if(!res.lateNs.empty())
            os << ", generator late p99 " << fmt(usOf(res.lateNs, 0.99)) << " us";
        notes.push_back(os.str());
    }

    auto runEndToEnd(Spec const& spec, GemmData const& data, Args const& args, Fleet& fleet, double setupS)
        -> int
    {
        WireBackend wire(fleet);
        PhaseConfig const cfg{spec, data, args.seed, std::min(0.5, args.seconds * 0.1), args.seconds};
        std::vector<PhaseResult> phases;
        phases.push_back(runPhase<false>(fleet, wire, cfg, "wire"));
        auto& res = phases.back();

        // The latency-sample buffers grow with throughput; their touched
        // pages are the benchmark's, not the fleet's. Read before the
        // quantile passes below copy samples around.
        auto const rssMb = (peakRssBytes() - static_cast<double>(res.sampleBytes())) / (1024.0 * 1024.0);
        std::vector<Metric> metrics{
            {"throughput_rps", throughput(res), "req/s"},
            {"latency_p50_us", windowedQuantile(res, 0.50) / 1000.0, "us"},
            {"latency_p90_us", windowedQuantile(res, 0.90) / 1000.0, "us"},
            {"setup_s", setupS, "s"},
            {"peak_rss_mb", rssMb, "MB"},
        };
        std::vector<std::string> notes;
        for(double const q : {0.5, 0.9})
        {
            std::string line = "p" + std::to_string(static_cast<int>(q * 100)) + " by " + std::to_string(windowNs / 1'000'000) + " ms window (us):";
            for(double const v : windowQuantiles(res, q))
                line += ' ' + fmt(std::round(v) / 1000.0);
            notes.push_back(line);
        }
        std::string rates = "req/s by " + std::to_string(windowNs / 1'000'000) + " ms window:";
        for(double const v : windowRates(res))
            rates += ' ' + fmt(v);
        notes.push_back(rates);
        describe(notes, "wire", res);
        return finish(metrics, phases, notes);
    }

    auto runTraced(Spec const& spec, GemmData const& data, Args const& args, Fleet& fleet) -> int
    {
        auto const S = args.seconds;
        std::vector<PhaseResult> phases;
        phases.reserve(8); // record() hands out references into it
        std::vector<std::string> notes;
        bool stalled = false;
        auto const record = [&](PhaseResult&& r, char const* name) -> PhaseResult&
        {
            stalled = stalled || r.stalled;
            phases.push_back(std::move(r));
            describe(notes, name, phases.back());
            return phases.back();
        };
        auto const phaseCfg = [&](double warm, double measure) { return PhaseConfig{spec, data, args.seed, warm, measure}; };

        WireBackend wire(fleet);
        FutureBackend viaService(fleet, false);
        FutureBackend viaRouter(fleet, true);
        DirectBackend direct(fleet, data);

        // Untraced and traced wire phases: the traced one yields the
        // client/door call timings and the layer counter deltas.
        auto& untraced = record(runPhase<false>(fleet, wire, phaseCfg(0.3, 0.2 * S), "wire-untraced"), "wire-untraced");
        double const wireP50 = windowedQuantile(untraced, 0.5) / 1000.0;
        double const tailP99 = usOf(untraced.latencyNs, 0.99);
        double const tailP999 = usOf(untraced.latencyNs, 0.999);
        auto const tailSamples = static_cast<double>(untraced.latencyNs.size());
        double const lateP99 = usOf(untraced.lateNs, 0.99);

        FleetSnap before{};
        FleetSnap after{};
        double tracedP50 = 0.0;
        CallTiming calls;
        if(!stalled)
        {
            before = snap(fleet);
            auto& traced = record(runPhase<true>(fleet, wire, phaseCfg(0.3, 0.2 * S), "wire-traced"), "wire-traced");
            after = snap(fleet);
            tracedP50 = windowedQuantile(traced, 0.5) / 1000.0;
            calls = traced.timing;
        }

        // The ledger: same requests, tenants and window on every rung.
        std::array<double, 4> rungP50{};
        auto const rung = [&](auto& backend, std::size_t i, char const* name)
        {
            if(stalled)
                return;
            auto const cfg = phaseCfg(0.2, 0.08 * S);
            auto& r = record(runPhase<false>(fleet, backend, cfg, name), name);
            rungP50[i] = windowedQuantile(r, 0.5) / 1000.0;
        };
        rung(direct, 0, "ledger-kernel");
        rung(viaService, 1, "ledger-service");
        rung(viaRouter, 2, "ledger-router");
        rung(wire, 3, "ledger-wire");

        HandoffProbe handoff;
        ReplayProbe replay;
        KernelProbe kernel;
        double allocFreeNs = 0.0;
        if(!stalled)
        {
            placeCallingThread(Place::any);
            handoff = probeHandoff(fleet.pool, 100);
            replay = probeReplay(fleet.pool, data, specs[2].maxBatch, 300);
            allocFreeNs = probeAllocFree(data.scratchBytes(), 50);
            kernel = probeKernel(fleet.pool, data, 100);
            notes.push_back(
                "probe threadpool.handoff: workers had parked before " + fmt(handoff.parkedShare * 100.0)
                + "% of rounds; native::omp::gemm " + fmt(kernel.nativeNs) + " ns");
        }

        std::uint64_t completed = 0;
        std::uint64_t batches = 0;
        std::uint64_t maxShard = 0;
        for(std::size_t i = 0; i < shardCount; ++i)
        {
            auto const c = after.completed[i] - before.completed[i];
            completed += c;
            batches += after.batches[i] - before.batches[i];
            maxShard = std::max(maxShard, c);
        }
        auto const doorReqs = after.door.requestsSubmitted - before.door.requestsSubmitted;
        auto const memHits = after.mem.cacheHits - before.mem.cacheHits;
        auto const memMisses = after.mem.cacheMisses - before.mem.cacheMisses;
        std::uint64_t stranded = 0;
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
        for(auto const& p : phases)
        {
            stranded += p.strandedAll;
            attempted += p.attempted;
            failed += p.failed();
        }
        auto const n = static_cast<double>(data.n);
        // The rung deltas telescope to the wire rung's p50; the residual is
        // what the ledger misses of the separately measured wire phase.
        double const ledgerSum = rungP50[3];
        if(!stalled)
            notes.push_back(
                "ledger p50 rungs (us): kernel " + fmt(rungP50[0]) + ", service " + fmt(rungP50[1]) + ", router "
                + fmt(rungP50[2]) + ", wire " + fmt(rungP50[3]) + "; end-to-end wire p50 " + fmt(wireP50));

        std::vector<Metric> metrics{
            {"client.submit_ns", share(calls.submitNs, calls.submits), "ns"},
            {"client.poll_ns_per_resp", share(calls.pollNs, calls.responses), "ns"},
            {"door.poll_busy_ns_per_req", share(wire.door.busyNs, doorReqs), "ns"},
            {"door.rx_stalls_per_kreq", 1000.0 * share(after.door.rxStalls - before.door.rxStalls, doorReqs), "1/kreq"},
            {"door.idle_poll_share", share(wire.door.idle, wire.door.idle + wire.door.busy), "share"},
            {"router.shard_share_max", share(maxShard, completed), "share"},
            {"serve.batch_mean", share(completed, batches), "req/batch"},
            {"serve.queue_wait_p50_us", bucketEdgeUs(after.queueWait, before.queueWait, 0.5), "us_log2_edge"},
            {"serve.queue_wait_p90_us", bucketEdgeUs(after.queueWait, before.queueWait, 0.9), "us_log2_edge"},
            {"serve.stranded", static_cast<double>(stranded), "count"},
            {"threadpool.parks_per_kreq", 1000.0 * share(after.pool.parks - before.pool.parks, completed), "1/kreq"},
            {"threadpool.steals_per_kreq", 1000.0 * share(after.pool.steals - before.pool.steals, completed), "1/kreq"},
            {"threadpool.handoff_ns", handoff.ns, "ns"},
            {"graph.replay_ns", replay.ns, "ns"},
            {"graph.replay_overhead_ns", replay.emptyNs, "ns"},
            {"mempool.alloc_free_ns", allocFreeNs, "ns"},
            {"mempool.hit_ratio", share(memHits, memHits + memMisses), "share"},
            {"mempool.high_water_mb", static_cast<double>(after.mem.highWaterBytes) / (1024.0 * 1024.0), "MB"},
            {"kernel.gemm_ns", kernel.gemmNs, "ns"},
            {"kernel.gemm_gflops", kernel.gemmNs > 0.0 ? 2.0 * n * n * n / kernel.gemmNs : 0.0, "GFLOP/s-shape"},
            {"kernel.gemm_bytes", 3.0 * n * n * sizeof(double), "B-shape"},
            {"kernel.alpaka_over_native", kernel.alpakaOverNative, "ratio"},
            {"ledger.kernel_us", rungP50[0], "us"},
            {"ledger.serve_us", rungP50[1] - rungP50[0], "us"},
            {"ledger.router_us", rungP50[2] - rungP50[1], "us"},
            {"ledger.net_us", rungP50[3] - rungP50[2], "us"},
            {"ledger.residual_share", wireP50 > 0.0 ? (wireP50 - ledgerSum) / wireP50 : 0.0, "share"},
            {"tail.p99_us", tailP99, "us"},
            {"tail.p999_us", tailP999, "us"},
            {"tail.samples", tailSamples, "count"},
            {"gen.late_p99_us", lateP99, "us"},
            {"bench_trace.overhead_share", wireP50 > 0.0 && tracedP50 > 0.0 ? (tracedP50 - wireP50) / wireP50 : 0.0, "share"},
            {"failed_share", share(failed, attempted), "share"},
        };
        return finish(metrics, phases, notes);
    }
} // namespace

auto main(int argc, char** argv) -> int
{
    Args args;
    try
    {
        args = parseArgs(argc, argv);
    }
    catch(std::exception const& e)
    {
        std::cerr << "layerbench: " << e.what()
                  << "\nusage: layerbench --workload <wire_small|wire_paced|wire_gemm> --seed <n> --seconds <s> "
                     "--trace <0|1>\n";
        return 2;
    }
    Spec const* spec = nullptr;
    for(auto const& s : specs)
        if(args.workload == s.name)
            spec = &s;
    if(spec == nullptr)
    {
        std::cerr << "layerbench: unknown workload '" << args.workload << "'\n";
        return 2;
    }

    auto const record = hostRecord(args);
    std::cout << "record " << record << '\n';
    if(faultInjectCompiledIn || std::string_view(sanitizerName()) != "none")
    {
        std::cerr << "layerbench: refusing to report numbers from a fault-injection or sanitizer build\n";
        return 3;
    }

    try
    {
        // Inputs and reference results, off every clock.
        GemmData const data(args.seed);

        std::unique_ptr<Fleet> fleet;
        std::vector<double> setupTimes;
        for(int k = 0; k < setupRepeats; ++k)
        {
            fleet.reset();
            auto const t0 = Clock::now();
            fleet = std::make_unique<Fleet>(*spec, data);
            setupTimes.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
        }
        std::cout << "fleet: " << shardCount << " shards x " << workersPerShard << " worker, pool of " << poolWorkers
                  << ", tenants";
        for(auto const& tenant : fleet->tenants)
            std::cout << ' ' << tenant << "->shard" << fleet->router.shardOf(tenant);
        std::cout << "; window " << spec->window << ", maxBatch " << spec->maxBatch;
        if(spec->paced)
            std::cout << ", offered " << spec->rate << " req/s";
        std::cout << '\n';

        return args.trace ? runTraced(*spec, data, args, *fleet) : runEndToEnd(*spec, data, args, *fleet, median(setupTimes));
    }
    catch(std::exception const& e)
    {
        std::cerr << "layerbench: " << e.what() << '\n';
        return 1;
    }
}
