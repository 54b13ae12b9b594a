/**
 * @file
 * Paper-style text table rendering shared by every bench binary.
 *
 * Tables are built row by row from heterogeneous cells and rendered
 * either as aligned ASCII (for terminal output) or as the markdown
 * EXPERIMENTS.md quotes.
 */

#ifndef LIMIT_STATS_TABLE_HH
#define LIMIT_STATS_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace limit::stats {

/** Column-aligned text/markdown table builder. */
class Table
{
  public:
    /** @param title Caption printed above the rendered table. */
    explicit Table(std::string title) : title_(std::move(title)) {}

    /** Set the header row; defines the column count. */
    Table &header(std::vector<std::string> cells);

    /** Append a fully formed row (must match the header width). */
    Table &row(std::vector<std::string> cells);

    /** Begin an incremental row. */
    Table &beginRow();
    /** Append one cell to the row under construction. */
    Table &cell(const std::string &text);
    Table &cell(const char *text) { return cell(std::string(text)); }
    Table &cell(double value, int precision = 2);
    Table &cell(std::uint64_t value);
    Table &cell(std::int64_t value);
    Table &cell(int value) { return cell(static_cast<std::int64_t>(value)); }
    Table &cell(unsigned value) { return cell(static_cast<std::uint64_t>(value)); }

    std::size_t numRows() const { return rows_.size(); }

    /** Render aligned ASCII with a title and rule lines. */
    std::string render() const;

    /**
     * Render a markdown table (no title; `|` in a cell is escaped),
     * the form EXPERIMENTS.md quotes.
     */
    std::string renderMarkdown() const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
    std::vector<std::string> pending_;
    bool inRow_ = false;
};

} // namespace limit::stats

#endif // LIMIT_STATS_TABLE_HH
