// The headline invariant of the quiz harness: the answer key is DERIVED BY
// EXECUTION, and every IEEE-compliant backend — native double, native
// float, softfloat at 64/32/16 bits — derives exactly the same key, which
// matches the declared standard truths. Parameterized over backends.

#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <string>

#include "core/ground_truth.hpp"

namespace quiz = fpq::quiz;

namespace {

struct BackendParam {
  const char* backend;  ///< registry row name
  const char* name;
};

// gtest would print the parameter as raw bytes, its two pointers included,
// which change from run to run and so leak into the discovered test names;
// print the name.
void PrintTo(const BackendParam& p, std::ostream* os) { *os << p.name; }

const BackendParam kBackends[] = {
    {"native-binary64", "native_double"},
    {"native-binary32", "native_float"},
    {"softfloat-binary64", "soft64"},
    {"softfloat-binary32", "soft32"},
    {"softfloat-binary16", "soft16"},
    {"softfloat-bfloat16", "bfloat16"},
};

class AnswerKeyOnBackend : public ::testing::TestWithParam<BackendParam> {};

TEST_P(AnswerKeyOnBackend, ExecutedKeyMatchesStandardTruths) {
  const quiz::Backend& backend = quiz::find_backend(GetParam().backend);
  EXPECT_TRUE(backend.ieee_compliant());
  const quiz::AnswerKey key = quiz::derive_answer_key(backend);
  std::string mismatch;
  EXPECT_TRUE(quiz::key_matches_standard(key, &mismatch))
      << "backend " << backend.name << " diverges on: " << mismatch;
}

TEST_P(AnswerKeyOnBackend, EveryDemonstrationHasAWitness) {
  const quiz::AnswerKey key =
      quiz::derive_answer_key(quiz::find_backend(GetParam().backend));
  for (const auto& demo : key.core) {
    EXPECT_FALSE(demo.witness.empty());
    EXPECT_EQ(demo.witness.find("unexpected"), std::string::npos)
        << demo.witness;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIeeeBackends, AnswerKeyOnBackend,
                         ::testing::ValuesIn(kBackends),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(AnswerKeyFtz, FtzBackendStillDerivesStandardKey) {
  // The FTZ/DAZ backend demonstrates different *witnesses* (flush instead
  // of gradual underflow) but the same T/F key — the divergence story
  // lives in the witnesses and the optprobe demos.
  const quiz::Backend& backend =
      quiz::find_backend("softfloat-binary64-ftz-daz");
  EXPECT_FALSE(backend.ieee_compliant());
  const quiz::AnswerKey key = quiz::derive_answer_key(backend);
  std::string mismatch;
  EXPECT_TRUE(quiz::key_matches_standard(key, &mismatch)) << mismatch;
  // ... and its denormal witness must mention the flush.
  const auto& denorm_demo =
      key.core[static_cast<std::size_t>(
          quiz::CoreQuestionId::kDenormalPrecision)];
  EXPECT_NE(denorm_demo.witness.find("flush"), std::string::npos)
      << denorm_demo.witness;
}

TEST(BackendRegistry, FindBackendResolvesEveryRowAndRejectsUnknownNames) {
  for (const quiz::Backend& backend : quiz::backend_registry()) {
    EXPECT_EQ(&quiz::find_backend(backend.name), &backend);
  }
  EXPECT_THROW(quiz::find_backend("softfloat-binary128"), std::out_of_range);
}

TEST(AnswerKey, StandardTruthArraysConsistent) {
  const auto core = quiz::standard_core_truths();
  EXPECT_EQ(core.size(), quiz::kCoreQuestionCount);
  const auto opt = quiz::standard_opt_truths();
  EXPECT_EQ(opt[0], quiz::Truth::kFalse);  // MADD
  EXPECT_EQ(opt[1], quiz::Truth::kFalse);  // Flush to Zero
  EXPECT_EQ(opt[2], quiz::Truth::kTrue);   // Fast-math
}

TEST(AnswerKey, RenderIncludesEvidence) {
  const quiz::AnswerKey key =
      quiz::derive_answer_key(quiz::find_backend("softfloat-binary64"));
  const std::string out = quiz::render_answer_key(key);
  EXPECT_NE(out.find("Associativity"), std::string::npos);
  EXPECT_NE(out.find("counterexample"), std::string::npos);
  EXPECT_NE(out.find("evidence"), std::string::npos);
  EXPECT_NE(out.find("MADD"), std::string::npos);
}

TEST(AnswerKey, KeyMismatchDetected) {
  quiz::AnswerKey key =
      quiz::derive_answer_key(quiz::find_backend("softfloat-binary64"));
  key.core[0].truth = quiz::Truth::kFalse;  // corrupt Commutativity
  std::string mismatch;
  EXPECT_FALSE(quiz::key_matches_standard(key, &mismatch));
  EXPECT_EQ(mismatch, "Commutativity");
}

}  // namespace
