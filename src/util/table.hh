/**
 * @file
 * Fixed-width text table printer used by the campaign printers
 * (exp/figures) and cgpbench to emit paper-style rows.
 */

#ifndef CGP_UTIL_TABLE_HH
#define CGP_UTIL_TABLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace cgp
{

/**
 * Accumulates rows of string/numeric cells and prints them with
 * column-aligned formatting plus an optional title and rule lines.
 */
class TablePrinter
{
  public:
    explicit TablePrinter(std::string title = "");

    /** Set the header row. */
    void setHeader(std::vector<std::string> header);

    /** Append a data row (cells already formatted). */
    void addRow(std::vector<std::string> row);

    /** Append a horizontal rule between rows. */
    void addRule();

    /** Format helpers. */
    static std::string num(std::uint64_t v);
    static std::string fixed(double v, int precision = 2);
    static std::string percent(double fraction, int precision = 1);

    /** Render the table. */
    void print(std::ostream &os) const;

  private:
    static constexpr const char *ruleMarker = "\x01rule";

    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace cgp

#endif // CGP_UTIL_TABLE_HH
