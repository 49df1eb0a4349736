/**
 * @file
 * Fixed-width table and CSV rendering for benchmark harnesses.
 *
 * Every bench binary prints the rows/series of one paper table or
 * figure; this keeps their formatting uniform.
 */

#ifndef JETSIM_PROF_REPORT_HH
#define JETSIM_PROF_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace jetsim::prof {

/** Format a double with @p prec decimals. */
std::string fmt(double v, int prec = 2);

/** Simple column-aligned table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row; must match the header width. */
    void addRow(std::vector<std::string> cells);

    /** Render with padded columns and a header rule. */
    void print(std::ostream &os) const;

    /** Render as CSV (RFC-ish: plain cells, comma separated). */
    std::string csv() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Print a section heading ("== Fig 3: ... ==") uniformly. */
void printHeading(std::ostream &os, const std::string &title);

} // namespace jetsim::prof

#endif // JETSIM_PROF_REPORT_HH
