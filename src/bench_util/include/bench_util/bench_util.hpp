/// \file Measurement and reporting harness shared by all benchmarks.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace bench
{
    //! Wall-clock seconds of one invocation of \p fn.
    template<typename TFn>
    [[nodiscard]] auto timeOnce(TFn&& fn) -> double
    {
        auto const start = std::chrono::steady_clock::now();
        std::forward<TFn>(fn)();
        auto const stop = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(stop - start).count();
    }

    //! Best-of-\p reps wall-clock seconds (the conventional noise filter
    //! for throughput measurements; Core Guidelines Per.6: measure).
    template<typename TFn>
    [[nodiscard]] auto timeBestOf(std::size_t reps, TFn&& fn) -> double
    {
        double best = 1e300;
        for(std::size_t r = 0; r < reps; ++r)
            best = std::min(best, timeOnce(fn));
        return best;
    }

    //! Number of repetitions to use (more in full mode).
    [[nodiscard]] auto defaultReps() -> std::size_t;

    //! Simple sample statistics.
    struct Stats
    {
        double min = 0;
        double max = 0;
        double mean = 0;
        double median = 0;
        double stddev = 0;
    };
    [[nodiscard]] auto computeStats(std::vector<double> samples) -> Stats;

    //! Spread of the B/A time ratio over interleaved pairs, plus each
    //! side's median time in seconds.
    struct Paired
    {
        double median = 0;
        double iqr = 0;
        double min = 0;
        double max = 0;
        std::size_t n = 0;
        double aSeconds = 0;
        double bSeconds = 0;
    };
    //! Summarizes per-pair side times (same length, one entry per pair).
    [[nodiscard]] auto summarizePairs(std::vector<double> const& a, std::vector<double> const& b) -> Paired;

    enum class Side
    {
        a,
        b
    };

    //! Interleaved A/B measurement, the Fig. 5 method applied to any
    //! layer: \p pairs rounds of A then B, each side timed best-of-\p reps
    //! with timeBestOf. Box load drifts between runs, so only the ratio of
    //! measurements taken side by side is comparable. \p prepare(side)
    //! runs untimed before each side's timing (reset inputs, toggle the
    //! variable under test, start or stop background load).
    template<typename TA, typename TB, typename TPrepare = void (*)(Side)>
    [[nodiscard]] auto paired(
        std::size_t pairs,
        TA&& a,
        TB&& b,
        std::size_t reps = defaultReps(),
        TPrepare&& prepare = [](Side) {}) -> Paired
    {
        std::vector<double> ta;
        std::vector<double> tb;
        for(std::size_t p = 0; p < pairs; ++p)
        {
            prepare(Side::a);
            ta.push_back(timeBestOf(reps, a));
            prepare(Side::b);
            tb.push_back(timeBestOf(reps, b));
        }
        return summarizePairs(ta, tb);
    }

    //! GFLOPS from a flop count and seconds.
    [[nodiscard]] inline auto gflops(double flops, double seconds) -> double
    {
        return flops / seconds / 1e9;
    }

    //! True when the benchmark should run its full (longer) sweep; default
    //! is a quick sweep suitable for CI. Toggle with ALPAKA_BENCH_FULL=1.
    [[nodiscard]] auto fullSweep() -> bool;

    //! Fixed-width numeric formatting.
    [[nodiscard]] auto fmt(double value, int precision = 3) -> std::string;

    //! Aligned console table with an optional CSV dump, mirroring the way
    //! the paper reports one series per line.
    class Table
    {
    public:
        explicit Table(std::vector<std::string> headers);

        void addRow(std::vector<std::string> cells);
        //! Prints the aligned table to \p os.
        void print(std::ostream& os) const;
        //! Prints "csv: a,b,c" lines for machine consumption.
        void printCsv(std::ostream& os) const;

    private:
        std::vector<std::string> headers_;
        std::vector<std::vector<std::string>> rows_;
    };

    //! Prints a section banner like the paper's figure captions.
    void banner(std::ostream& os, std::string const& title, std::string const& subtitle = {});

    //! Machine-readable benchmark report: a flat JSON document of the form
    //!   {"benchmark": "<name>", "results": [{...}, ...]}
    //! written as BENCH_<name>.json so CI can track the perf trajectory
    //! across PRs. Values are either numbers or strings; no nesting — the
    //! consumers are jq one-liners, not a schema.
    class JsonReport
    {
    public:
        explicit JsonReport(std::string name);

        //! Starts a result record; finish it with num()/str() calls.
        void beginRecord();
        void num(std::string const& key, double value);
        void num(std::string const& key, std::size_t value);
        void str(std::string const& key, std::string const& value);
        //! Writes <key>_median, _iqr, _min, _max and _pairs of \p ratio.
        void ratio(std::string const& key, Paired const& ratio);

        //! Serializes the report to "BENCH_<name>.json" inside \p dir (or
        //! the current directory when empty). Returns the path written.
        [[nodiscard]] auto write(std::string const& dir = {}) const -> std::string;

        //! Serializes to \p os.
        void print(std::ostream& os) const;

    private:
        std::string name_;
        std::vector<std::vector<std::pair<std::string, std::string>>> records_;
    };

    //! Writes \p report into $BENCH_OUT_DIR (or the current directory)
    //! and prints its path. \returns false, with the reason on stderr,
    //! when the directory is not writable.
    [[nodiscard]] auto writeReport(JsonReport const& report) -> bool;

    //! Named acceptance gates: every check prints
    //! "gate <name>: <value> <op> <threshold> PASS|FAIL", and the verdict
    //! names the gates that failed.
    class Gates
    {
    public:
        template<typename T>
        void atLeast(std::string const& name, T value, T threshold)
        {
            record(name, value, ">=", threshold, value >= threshold);
        }
        template<typename T>
        void atMost(std::string const& name, T value, T threshold)
        {
            record(name, value, "<=", threshold, value <= threshold);
        }
        template<typename T>
        void above(std::string const& name, T value, T threshold)
        {
            record(name, value, ">", threshold, value > threshold);
        }
        template<typename T>
        void below(std::string const& name, T value, T threshold)
        {
            record(name, value, "<", threshold, value < threshold);
        }
        template<typename T>
        void equal(std::string const& name, T value, T expected)
        {
            record(name, value, "==", expected, value == expected);
        }

        [[nodiscard]] auto ok() const -> bool
        {
            return failed_.empty();
        }
        //! Comma-separated names of the failed gates.
        [[nodiscard]] auto failedNames() const -> std::string;

    private:
        template<typename T>
        void record(std::string const& name, T value, char const* op, T threshold, bool pass)
        {
            std::ostringstream line;
            line << std::boolalpha << value << ' ' << op << ' ' << threshold;
            print(name, line.str(), pass);
        }
        void print(std::string const& name, std::string const& comparison, bool pass);

        std::vector<std::string> failed_;
    };
} // namespace bench
