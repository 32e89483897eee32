// Characterization pin for the executed answer key: the truth and the
// witness text of all 15 core demonstrations, per registry row, hashed
// with FNV-1a. Any change to how a backend evaluates the demonstration
// trees (value model, comparison semantics, condition harvesting) shows
// up here as a changed hash.
//
// Only core demonstrations are pinned: the optimization witnesses read
// the host's MXCSR probe and so differ between machines.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "core/ground_truth.hpp"

namespace quiz = fpq::quiz;

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// One "T|<witness>" or "F|<witness>" line per core question, in order.
std::string core_lines(const quiz::AnswerKey& key) {
  std::string out;
  for (const quiz::Demonstration& d : key.core) {
    out += d.truth == quiz::Truth::kTrue ? "T|" : "F|";
    out += d.witness;
    out += '\n';
  }
  return out;
}

TEST(WitnessGolden, CoreWitnessesArePinnedOnEveryRegistryRow) {
  const std::map<std::string, std::uint64_t> pinned = {
      {"native-binary64", 0x114ab38ce6ca8518ULL},
      {"softfloat-binary64", 0x114ab38ce6ca8518ULL},
      {"native-binary32", 0x21c0b53515888796ULL},
      {"softfloat-binary32", 0x21c0b53515888796ULL},
      {"softfloat-binary16", 0x75a450741a2fedf1ULL},
      {"softfloat-bfloat16", 0x3c91db57b7a4079aULL},
      {"softfloat-binary64-ftz-daz", 0xb37383fda2ff97f8ULL},
  };
  std::size_t rows = 0;
  for (const quiz::Backend& backend : quiz::backend_registry()) {
    ++rows;
    const auto it = pinned.find(backend.name);
    ASSERT_NE(it, pinned.end()) << "unpinned registry row " << backend.name;
    const std::string text = core_lines(quiz::derive_answer_key(backend));
    EXPECT_EQ(fnv1a(text), it->second) << backend.name << ":\n" << text;
  }
  EXPECT_EQ(rows, pinned.size());
}

TEST(WitnessGolden, RepeatedDerivationsOfOneRowAreIdentical) {
  for (const quiz::Backend& backend : quiz::backend_registry()) {
    EXPECT_EQ(core_lines(quiz::derive_answer_key(backend)),
              core_lines(quiz::derive_answer_key(backend)))
        << backend.name;
  }
}

}  // namespace
