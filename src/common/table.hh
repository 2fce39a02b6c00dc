/**
 * @file
 * ASCII table formatting used by the sweep table renderer
 * (sim/sweep_table.hh) and the Table 4 harness to print paper-style
 * tables.
 */

#ifndef CLUSTERSIM_COMMON_TABLE_HH
#define CLUSTERSIM_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace clustersim {

/**
 * Column-aligned ASCII table. Columns are sized to the widest cell;
 * numeric convenience overloads format doubles with fixed precision.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Begin a new row. */
    void startRow();

    /** Append a cell to the current row. */
    void cell(const std::string &text);
    void cell(double value, int precision = 2);
    void cell(std::uint64_t value);
    void cell(int value);

    /** Render with a header underline and column gutters. */
    std::string format() const;

    std::size_t rowCount() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace clustersim

#endif // CLUSTERSIM_COMMON_TABLE_HH
