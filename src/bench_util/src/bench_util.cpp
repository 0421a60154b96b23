#include "bench_util/bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>

namespace bench
{
    namespace
    {
        //! Quantile \p q of sorted \p s, interpolating between ranks.
        auto quantile(std::vector<double> const& s, double q) -> double
        {
            auto const pos = q * static_cast<double>(s.size() - 1);
            auto const lo = static_cast<std::size_t>(pos);
            auto const hi = std::min(lo + 1, s.size() - 1);
            return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
        }
    } // namespace

    auto computeStats(std::vector<double> samples) -> Stats
    {
        Stats s;
        if(samples.empty())
            return s;
        std::sort(samples.begin(), samples.end());
        s.min = samples.front();
        s.max = samples.back();
        s.median = quantile(samples, 0.5);
        double sum = 0;
        for(double const v : samples)
            sum += v;
        s.mean = sum / static_cast<double>(samples.size());
        double sq = 0;
        for(double const v : samples)
            sq += (v - s.mean) * (v - s.mean);
        s.stddev = std::sqrt(sq / static_cast<double>(samples.size()));
        return s;
    }

    auto summarizePairs(std::vector<double> const& a, std::vector<double> const& b) -> Paired
    {
        std::vector<double> ratios(std::min(a.size(), b.size()));
        if(ratios.empty())
            return {};
        for(std::size_t i = 0; i < ratios.size(); ++i)
            ratios[i] = b[i] / a[i];
        std::sort(ratios.begin(), ratios.end());
        return {
            quantile(ratios, 0.5),
            quantile(ratios, 0.75) - quantile(ratios, 0.25),
            ratios.front(),
            ratios.back(),
            ratios.size(),
            computeStats(a).median,
            computeStats(b).median};
    }

    auto fullSweep() -> bool
    {
        char const* const env = std::getenv("ALPAKA_BENCH_FULL");
        return env != nullptr && env[0] != '\0' && env[0] != '0';
    }

    auto defaultReps() -> std::size_t
    {
        return fullSweep() ? 5 : 3;
    }

    auto fmt(double value, int precision) -> std::string
    {
        std::ostringstream os;
        os << std::fixed << std::setprecision(precision) << value;
        return os.str();
    }

    Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
    {
    }

    void Table::addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void Table::print(std::ostream& os) const
    {
        std::vector<std::size_t> widths(headers_.size(), 0);
        for(std::size_t c = 0; c < headers_.size(); ++c)
            widths[c] = headers_[c].size();
        for(auto const& row : rows_)
            for(std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
                widths[c] = std::max(widths[c], row[c].size());

        auto const printRow = [&](std::vector<std::string> const& row)
        {
            os << "  ";
            for(std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
                os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
            os << '\n';
        };

        printRow(headers_);
        std::size_t total = 2;
        for(auto const w : widths)
            total += w + 2;
        os << "  " << std::string(total - 2, '-') << '\n';
        for(auto const& row : rows_)
            printRow(row);
    }

    void Table::printCsv(std::ostream& os) const
    {
        auto const line = [&](std::vector<std::string> const& row)
        {
            os << "csv:";
            for(std::size_t c = 0; c < row.size(); ++c)
                os << (c == 0 ? " " : ",") << row[c];
            os << '\n';
        };
        line(headers_);
        for(auto const& row : rows_)
            line(row);
    }

    void banner(std::ostream& os, std::string const& title, std::string const& subtitle)
    {
        os << '\n' << std::string(78, '=') << '\n' << title << '\n';
        if(!subtitle.empty())
            os << subtitle << '\n';
        os << std::string(78, '=') << '\n';
    }

    namespace
    {
        auto jsonEscape(std::string const& s) -> std::string
        {
            std::string out;
            out.reserve(s.size());
            for(char const c : s)
            {
                if(c == '"' || c == '\\')
                    out += '\\';
                out += c;
            }
            return out;
        }
    } // namespace

    JsonReport::JsonReport(std::string name) : name_(std::move(name))
    {
    }

    void JsonReport::beginRecord()
    {
        records_.emplace_back();
    }

    void JsonReport::num(std::string const& key, double value)
    {
        std::ostringstream os;
        os << value;
        records_.back().emplace_back(key, os.str());
    }

    void JsonReport::num(std::string const& key, std::size_t value)
    {
        records_.back().emplace_back(key, std::to_string(value));
    }

    void JsonReport::str(std::string const& key, std::string const& value)
    {
        records_.back().emplace_back(key, '"' + jsonEscape(value) + '"');
    }

    void JsonReport::ratio(std::string const& key, Paired const& ratio)
    {
        num(key + "_median", ratio.median);
        num(key + "_iqr", ratio.iqr);
        num(key + "_min", ratio.min);
        num(key + "_max", ratio.max);
        num(key + "_pairs", ratio.n);
    }

    void JsonReport::print(std::ostream& os) const
    {
        os << "{\n  \"benchmark\": \"" << jsonEscape(name_) << "\",\n  \"results\": [";
        for(std::size_t r = 0; r < records_.size(); ++r)
        {
            os << (r == 0 ? "\n" : ",\n") << "    {";
            for(std::size_t f = 0; f < records_[r].size(); ++f)
                os << (f == 0 ? "" : ", ") << '"' << jsonEscape(records_[r][f].first)
                   << "\": " << records_[r][f].second;
            os << '}';
        }
        os << "\n  ]\n}\n";
    }

    auto JsonReport::write(std::string const& dir) const -> std::string
    {
        auto path = dir.empty() ? std::string{} : dir + '/';
        path += "BENCH_" + name_ + ".json";
        std::ofstream file(path);
        print(file);
        if(!file)
            throw std::runtime_error("bench::JsonReport: cannot write " + path);
        return path;
    }

    auto writeReport(JsonReport const& report) -> bool
    {
        try
        {
            char const* const outDir = std::getenv("BENCH_OUT_DIR");
            std::cout << "\nreport: " << report.write(outDir != nullptr ? outDir : "") << '\n';
            return true;
        }
        catch(std::exception const& e)
        {
            std::cerr << "error: " << e.what() << '\n';
            return false;
        }
    }

    auto Gates::failedNames() const -> std::string
    {
        std::string names;
        for(auto const& name : failed_)
            names += (names.empty() ? "" : ", ") + name;
        return names;
    }

    void Gates::print(std::string const& name, std::string const& comparison, bool pass)
    {
        std::cout << "gate " << name << ": " << comparison << (pass ? " PASS" : " FAIL") << '\n';
        if(!pass)
            failed_.push_back(name);
    }
} // namespace bench
