// fpq::quiz — executable demonstrations.
//
// For every core-quiz question, a demonstration runs concrete operations
// on a Backend and derives the answer from what actually happened: a
// universal claim is refuted by a found counterexample or supported by an
// exhaustive directed sweep; an existential claim is proved by a found
// witness. The witness text records the concrete values so a skeptical
// reader can reproduce the behavior by hand.
#pragma once

#include <string>

#include "core/backend.hpp"
#include "core/types.hpp"

namespace fpq::quiz {

/// Outcome of demonstrating one question on one backend.
struct Demonstration {
  Truth truth = Truth::kFalse;  ///< the answer as executed on this backend
  std::string witness;          ///< the concrete evidence
};

/// Runs the demonstration for one core question.
Demonstration demonstrate_core(CoreQuestionId id, const Backend& backend);

/// Runs the demonstration for one T/F optimization question (uses the
/// emulated pipeline, hardware probes and the flag audit as evidence).
Demonstration demonstrate_opt(OptQuestionId id);

}  // namespace fpq::quiz
