// fpq::survey — the survey instrument's data model.
//
// A SurveyRecord is exactly what one participant produces: the background
// component (§II-A) as indices into the paperdata category tables, the two
// graded quizzes, and the suspicion Likert responses. The student cohort
// (§III) answered only the suspicion quiz.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>

#include "core/scoring.hpp"
#include "core/types.hpp"

namespace fpq::survey {

/// One multi-select answer: the set of selected row indices, each below
/// kCapacity, held as a bit mask so a record owns no heap memory.
/// Iteration yields the indices in ascending order.
class IndexSet {
 public:
  static constexpr std::size_t kCapacity = 32;

  /// Forward iterator over the set bits, lowest first.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::size_t;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::size_t;

    constexpr iterator() noexcept = default;
    constexpr explicit iterator(std::uint32_t rest) noexcept : rest_(rest) {}

    constexpr std::size_t operator*() const noexcept {
      return static_cast<std::size_t>(std::countr_zero(rest_));
    }
    constexpr iterator& operator++() noexcept {
      rest_ &= rest_ - 1;  // clear the lowest set bit
      return *this;
    }
    constexpr iterator operator++(int) noexcept {
      const iterator old = *this;
      ++*this;
      return old;
    }
    friend constexpr bool operator==(iterator, iterator) noexcept = default;

   private:
    std::uint32_t rest_ = 0;
  };
  using const_iterator = iterator;

  constexpr IndexSet() noexcept = default;
  /// Requires every index below kCapacity.
  constexpr IndexSet(std::initializer_list<std::size_t> indices) noexcept {
    for (const std::size_t i : indices) insert(i);
  }
  /// Bit i of `mask` set <=> index i in the set.
  static constexpr IndexSet from_mask(std::uint32_t mask) noexcept {
    IndexSet s;
    s.mask_ = mask;
    return s;
  }

  /// Requires i < kCapacity.
  constexpr void insert(std::size_t i) noexcept {
    mask_ |= std::uint32_t{1} << i;
  }
  constexpr std::size_t size() const noexcept {
    return static_cast<std::size_t>(std::popcount(mask_));
  }
  constexpr bool empty() const noexcept { return mask_ == 0; }

  constexpr iterator begin() const noexcept { return iterator(mask_); }
  constexpr iterator end() const noexcept { return iterator(); }

  friend constexpr bool operator==(IndexSet, IndexSet) noexcept = default;

 private:
  std::uint32_t mask_ = 0;
};

/// Background factors; each single-select field is an index into the
/// corresponding fpq::paperdata table (Figures 1-11), multi-selects are
/// index sets.
struct BackgroundProfile {
  std::size_t position = 0;          ///< into paperdata::positions()
  std::size_t area = 0;              ///< into paperdata::areas()
  std::size_t formal_training = 0;   ///< into paperdata::formal_training()
  IndexSet informal_training;        ///< into Fig 4 rows
  std::size_t dev_role = 0;          ///< into paperdata::dev_roles()
  IndexSet fp_languages;             ///< into Fig 6 rows
  IndexSet arb_prec_languages;       ///< into Fig 7 rows
  std::size_t contributed_size = 0;   ///< into Fig 8 rows
  std::size_t contributed_extent = 0; ///< into Fig 9 rows
  std::size_t involved_size = 0;      ///< into Fig 10 rows
  std::size_t involved_extent = 0;    ///< into Fig 11 rows
};

/// One main-cohort participant.
struct SurveyRecord {
  std::uint64_t respondent_id = 0;
  BackgroundProfile background;
  quiz::CoreSheet core;
  quiz::OptSheet opt;
  /// Likert 1..5 per SuspicionItemId, paper order.
  std::array<int, quiz::kSuspicionItemCount> suspicion{1, 1, 1, 1, 1};
};

/// One student-cohort participant (suspicion quiz only, §III).
struct StudentRecord {
  std::uint64_t respondent_id = 0;
  std::array<int, quiz::kSuspicionItemCount> suspicion{1, 1, 1, 1, 1};
};

// -- Collapsed factor groups used by the factor analysis (Figs 16-21) ----

/// Area groups in the order of paperdata::area_effect().
enum class AreaGroup { kEE = 0, kCE, kCS, kMath, kPhysSci, kEng, kOther };
inline constexpr std::size_t kAreaGroupCount = 7;

/// Maps a Figure 2 row index to its collapsed group (CS&Math -> CS,
/// CS&CE -> CE, Robotics/Biomedical/Mechanical -> Eng, small fields ->
/// Other), mirroring paperdata/factors.cpp.
AreaGroup area_group_of(std::size_t area_index) noexcept;

/// Ordered contributed-size bins of Figure 16 (smallest to largest);
/// returns the bin index, or npos for "<100" / "Not Reported" rows that
/// the paper's chart omits.
inline constexpr std::size_t kSizeBinCount = 5;
inline constexpr std::size_t kNoSizeBin = static_cast<std::size_t>(-1);
std::size_t contributed_size_bin(std::size_t fig8_row) noexcept;

/// Role rows of Figures 18/21 (same order as paperdata::role_effect());
/// returns npos for "Not Reported".
inline constexpr std::size_t kRoleCount = 4;
inline constexpr std::size_t kNoRole = static_cast<std::size_t>(-1);
std::size_t role_index(std::size_t fig5_row) noexcept;

/// Training rows of Figure 19 in increasing-training order (None,
/// Lectures, Weeks, Courses); npos for "Not reported".
inline constexpr std::size_t kTrainingCount = 4;
inline constexpr std::size_t kNoTraining = static_cast<std::size_t>(-1);
std::size_t training_index(std::size_t fig3_row) noexcept;

}  // namespace fpq::survey
