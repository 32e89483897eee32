// The answer key (implicit in §II-B/§II-C and Figures 14-15): derived by
// execution on every backend and checked for agreement with the standard
// key. This is the reproduction's ground-truth audit — if any backend
// disagreed, every other figure would be built on sand.

#include <cstdio>

#include "core/ground_truth.hpp"
#include "report/table.hpp"

namespace quiz = fpq::quiz;
namespace rp = fpq::report;

int main() {
  rp::Table table({"backend", "IEEE?", "matches standard key",
                   "first divergence"});
  bool all_ok = true;
  for (const quiz::Backend& backend : quiz::backend_registry()) {
    const auto key = quiz::derive_answer_key(backend);
    std::string mismatch;
    const bool ok = quiz::key_matches_standard(key, &mismatch);
    all_ok = all_ok && ok;
    table.add_row({backend.name,
                   backend.ieee_compliant() ? "yes" : "no (FTZ/DAZ)",
                   ok ? "yes" : "NO", ok ? "-" : mismatch});
  }
  std::fputs(rp::section("Answer key audit across arithmetic backends",
                         table.render())
                 .c_str(),
             stdout);

  // Show the full key with evidence from the reference backend.
  const quiz::Backend& reference = quiz::find_backend("softfloat-binary64");
  std::fputs(
      quiz::render_answer_key(quiz::derive_answer_key(reference)).c_str(),
      stdout);

  return all_ok ? 0 : 1;
}
