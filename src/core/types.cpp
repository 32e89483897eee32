// Label helpers for the strongly-typed quiz identifiers.

#include "core/types.hpp"

namespace fpq::quiz {

std::string core_question_label(CoreQuestionId id) {
  switch (id) {
    case CoreQuestionId::kCommutativity:
      return "Commutativity";
    case CoreQuestionId::kAssociativity:
      return "Associativity";
    case CoreQuestionId::kDistributivity:
      return "Distributivity";
    case CoreQuestionId::kOrdering:
      return "Ordering";
    case CoreQuestionId::kIdentity:
      return "Identity";
    case CoreQuestionId::kNegativeZero:
      return "Negative Zero";
    case CoreQuestionId::kSquare:
      return "Square";
    case CoreQuestionId::kOverflow:
      return "Overflow";
    case CoreQuestionId::kDivideByZero:
      return "Divide by Zero";
    case CoreQuestionId::kZeroDivideByZero:
      return "Zero Divide By Zero";
    case CoreQuestionId::kSaturationPlus:
      return "Saturation Plus";
    case CoreQuestionId::kSaturationMinus:
      return "Saturation Minus";
    case CoreQuestionId::kDenormalPrecision:
      return "Denormal Precision";
    case CoreQuestionId::kOperationPrecision:
      return "Operation Precision";
    case CoreQuestionId::kExceptionSignal:
      return "Exception Signal";
  }
  return "Unknown";
}

std::string opt_question_label(OptQuestionId id) {
  switch (id) {
    case OptQuestionId::kMadd:
      return "MADD";
    case OptQuestionId::kFlushToZero:
      return "Flush to Zero";
    case OptQuestionId::kStandardCompliantLevel:
      return "Standard-compliant Level";
    case OptQuestionId::kFastMath:
      return "Fast-math";
  }
  return "Unknown";
}

std::string suspicion_item_label(SuspicionItemId id) {
  switch (id) {
    case SuspicionItemId::kOverflow:
      return "Overflow";
    case SuspicionItemId::kUnderflow:
      return "Underflow";
    case SuspicionItemId::kPrecision:
      return "Precision";
    case SuspicionItemId::kInvalid:
      return "Invalid";
    case SuspicionItemId::kDenorm:
      return "Denorm";
  }
  return "Unknown";
}

std::string answer_label(Answer a) {
  switch (a) {
    case Answer::kTrue:
      return "True";
    case Answer::kFalse:
      return "False";
    case Answer::kDontKnow:
      return "Don't Know";
    case Answer::kUnanswered:
      return "Unanswered";
  }
  return "Unknown";
}

}  // namespace fpq::quiz
