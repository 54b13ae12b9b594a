#include "stats/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "base/logging.hh"

namespace limit::stats {

Table &
Table::header(std::vector<std::string> cells)
{
    panic_if(cells.empty(), "empty table header");
    header_ = std::move(cells);
    return *this;
}

Table &
Table::row(std::vector<std::string> cells)
{
    panic_if(inRow_, "Table::row while a row is under construction");
    panic_if(!header_.empty() && cells.size() != header_.size(),
             "row width ", cells.size(), " != header width ",
             header_.size());
    rows_.push_back(std::move(cells));
    return *this;
}

Table &
Table::beginRow()
{
    if (inRow_) {
        // Close the previous row implicitly.
        row(std::move(pending_));
        pending_.clear();
    }
    inRow_ = true;
    return *this;
}

Table &
Table::cell(const std::string &text)
{
    panic_if(!inRow_, "Table::cell outside beginRow()");
    pending_.push_back(text);
    if (!header_.empty() && pending_.size() == header_.size()) {
        inRow_ = false;
        rows_.push_back(std::move(pending_));
        pending_.clear();
    }
    return *this;
}

Table &
Table::cell(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return cell(os.str());
}

Table &
Table::cell(std::uint64_t value)
{
    return cell(std::to_string(value));
}

Table &
Table::cell(std::int64_t value)
{
    return cell(std::to_string(value));
}

std::string
Table::render() const
{
    panic_if(inRow_, "rendering a table with an unterminated row");

    std::vector<std::size_t> widths;
    auto grow = [&](const std::vector<std::string> &cells) {
        if (widths.size() < cells.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    grow(header_);
    for (const auto &r : rows_)
        grow(r);

    auto emit = [&](std::ostringstream &os,
                    const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(widths[i]))
               << cells[i];
            if (i + 1 < cells.size())
                os << "  ";
        }
        os << '\n';
    };

    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    total = total >= 2 ? total - 2 : total;

    std::ostringstream os;
    os << "== " << title_ << " ==\n";
    if (!header_.empty()) {
        emit(os, header_);
        os << std::string(total, '-') << '\n';
    }
    for (const auto &r : rows_)
        emit(os, r);
    return os.str();
}

std::string
Table::renderMarkdown() const
{
    panic_if(inRow_, "rendering a table with an unterminated row");
    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &cells) {
        os << '|';
        for (const auto &c : cells) {
            os << ' ';
            for (char ch : c) {
                if (ch == '|')
                    os << '\\';
                os << ch;
            }
            os << " |";
        }
        os << '\n';
    };
    if (!header_.empty()) {
        emit(header_);
        os << '|';
        for (std::size_t i = 0; i < header_.size(); ++i)
            os << "---|";
        os << '\n';
    }
    for (const auto &r : rows_)
        emit(r);
    return os.str();
}

} // namespace limit::stats
