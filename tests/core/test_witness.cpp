// Individual demonstrations: the witnesses must contain the concrete
// values that exhibit each behavior.

#include <gtest/gtest.h>

#include "core/witness.hpp"

namespace quiz = fpq::quiz;

namespace {

TEST(Witness, AssociativityCounterexampleNamesValues) {
  const quiz::Backend& backend = quiz::find_backend("softfloat-binary64");
  const auto demo = quiz::demonstrate_core(
      quiz::CoreQuestionId::kAssociativity, backend);
  EXPECT_EQ(demo.truth, quiz::Truth::kFalse);
  EXPECT_NE(demo.witness.find("counterexample"), std::string::npos);
  EXPECT_NE(demo.witness.find("a="), std::string::npos);
}

TEST(Witness, AssociativityOnBinary16FindsSmallCounterexample) {
  // In binary16 the counterexample appears at a = 2^12 = 4096 already.
  const quiz::Backend& backend = quiz::find_backend("softfloat-binary16");
  const auto demo = quiz::demonstrate_core(
      quiz::CoreQuestionId::kAssociativity, backend);
  EXPECT_EQ(demo.truth, quiz::Truth::kFalse);
  EXPECT_NE(demo.witness.find("4096"), std::string::npos) << demo.witness;
}

TEST(Witness, AssociativityOnBinary64FindsItAt2Pow54) {
  // At a = 2^53, b+c = -(2^53 - 1) is still exact; the first power where
  // the inner sum rounds back (tie to even) is 2^54.
  const quiz::Backend& backend = quiz::find_backend("softfloat-binary64");
  const auto demo = quiz::demonstrate_core(
      quiz::CoreQuestionId::kAssociativity, backend);
  EXPECT_NE(demo.witness.find("18014398509481984"), std::string::npos)
      << demo.witness;
}

TEST(Witness, SaturationWitnessIsInfinity) {
  const quiz::Backend& backend = quiz::find_backend("native-binary64");
  const auto demo = quiz::demonstrate_core(
      quiz::CoreQuestionId::kSaturationPlus, backend);
  EXPECT_EQ(demo.truth, quiz::Truth::kTrue);
  EXPECT_NE(demo.witness.find("infinity"), std::string::npos);
}

TEST(Witness, DivideByZeroWitnessShowsInf) {
  const quiz::Backend& backend = quiz::find_backend("softfloat-binary64");
  const auto demo = quiz::demonstrate_core(
      quiz::CoreQuestionId::kDivideByZero, backend);
  EXPECT_EQ(demo.truth, quiz::Truth::kTrue);
  EXPECT_NE(demo.witness.find("inf"), std::string::npos);
}

TEST(Witness, ExceptionSignalWitnessShowsFlags) {
  const quiz::Backend& backend = quiz::find_backend("softfloat-binary64");
  const auto demo = quiz::demonstrate_core(
      quiz::CoreQuestionId::kExceptionSignal, backend);
  EXPECT_EQ(demo.truth, quiz::Truth::kFalse);
  EXPECT_NE(demo.witness.find("Invalid"), std::string::npos);
  EXPECT_NE(demo.witness.find("no signal"), std::string::npos);
}

TEST(Witness, DenormalPrecisionShowsRatioDrift) {
  const quiz::Backend& backend = quiz::find_backend("softfloat-binary64");
  const auto demo = quiz::demonstrate_core(
      quiz::CoreQuestionId::kDenormalPrecision, backend);
  EXPECT_EQ(demo.truth, quiz::Truth::kTrue);
  EXPECT_NE(demo.witness.find("min_subnormal"), std::string::npos);
}

TEST(Witness, OptDemonstrationsCarryEvidence) {
  for (std::size_t i = 0; i < quiz::kOptQuestionCount; ++i) {
    const auto demo =
        quiz::demonstrate_opt(static_cast<quiz::OptQuestionId>(i));
    EXPECT_FALSE(demo.witness.empty());
    EXPECT_EQ(demo.witness.find("unexpected"), std::string::npos)
        << demo.witness;
  }
}

TEST(Witness, OptMaddDemoMentionsBothStandards) {
  const auto demo = quiz::demonstrate_opt(quiz::OptQuestionId::kMadd);
  EXPECT_EQ(demo.truth, quiz::Truth::kFalse);
  EXPECT_NE(demo.witness.find("754-2008"), std::string::npos);
}

TEST(Witness, OptLevelDemoSaysO2) {
  const auto demo = quiz::demonstrate_opt(
      quiz::OptQuestionId::kStandardCompliantLevel);
  EXPECT_NE(demo.witness.find("-O2"), std::string::npos);
}

}  // namespace
