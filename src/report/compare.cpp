#include "report/compare.hpp"

#include <algorithm>
#include <cmath>

#include "report/table.hpp"

namespace fpq::report {

Verdict verdict(const ComparisonRow& row) noexcept {
  if (row.untestable_n) return Verdict::kUntestable;
  const bool ok = row.holds ? *row.holds
                            : std::fabs(row.paper - row.measured) <=
                                  row.tolerance;
  return ok ? Verdict::kOk : Verdict::kDeviates;
}

ComparisonSummary summarize_comparison(std::span<const ComparisonRow> rows) {
  ComparisonSummary s;
  s.total = rows.size();
  for (const auto& row : rows) {
    switch (verdict(row)) {
      case Verdict::kOk: ++s.within_tolerance; break;
      case Verdict::kUntestable: ++s.untestable; continue;
      case Verdict::kDeviates: break;
    }
    if (!row.holds) {
      s.max_abs_deviation =
          std::max(s.max_abs_deviation, std::fabs(row.paper - row.measured));
    }
  }
  return s;
}

std::string render_comparison(const std::string& title,
                              std::span<const ComparisonRow> rows,
                              int decimals) {
  Table table({"quantity", "paper", "measured", "|dev|", "tol", "verdict"});
  for (const auto& row : rows) {
    const double dev = std::fabs(row.paper - row.measured);
    std::string judged = "OK";
    switch (verdict(row)) {
      case Verdict::kOk: break;
      case Verdict::kDeviates: judged = "DEVIATES"; break;
      case Verdict::kUntestable:
        judged = "untestable (n=" + Table::fmt(*row.untestable_n) + ")";
        break;
    }
    table.add_row({row.quantity, Table::fmt(row.paper, decimals),
                   Table::fmt(row.measured, decimals),
                   Table::fmt(dev, decimals),
                   row.holds ? "shape" : Table::fmt(row.tolerance, decimals),
                   judged});
  }
  const ComparisonSummary s = summarize_comparison(rows);
  std::string body = table.render();
  body += "summary: ";
  body += Table::fmt(s.within_tolerance);
  body += '/';
  body += Table::fmt(s.total - s.untestable);
  body += " within tolerance";
  if (s.untestable != 0) {
    body += ", ";
    body += Table::fmt(s.untestable);
    body += " untestable";
  }
  body += ", max |dev| = ";
  body += Table::fmt(s.max_abs_deviation, decimals);
  body += '\n';
  return section(title, body);
}

}  // namespace fpq::report
