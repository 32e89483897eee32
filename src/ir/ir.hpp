// fpq::ir — module umbrella: the unified expression IR.
//
//   expr.hpp       — the hash-consed Expr tree (node kinds, factories)
//   evaluator.hpp  — Evaluator<V> contract, evaluate_tree, TraceSink
//   evaluators.hpp — EvalConfig, softfloat/native evaluators, evaluate()
//   rewrite.hpp    — contraction/reassociation IR→IR passes
//   trace.hpp      — ProvenanceTrace (per-op exception provenance)
//   batch.hpp      — BindingTable: the data a batched tape runs over
//   tape.hpp       — Tape: Expr → flat bytecode (CSE, constant folding,
//                    content fingerprint), the scalar engine
//   tape_batch.hpp — batched SoA tape executor over fpq::parallel
#pragma once

#include "ir/batch.hpp"       // IWYU pragma: export
#include "ir/evaluator.hpp"   // IWYU pragma: export
#include "ir/evaluators.hpp"  // IWYU pragma: export
#include "ir/expr.hpp"        // IWYU pragma: export
#include "ir/rewrite.hpp"     // IWYU pragma: export
#include "ir/tape.hpp"        // IWYU pragma: export
#include "ir/tape_batch.hpp"  // IWYU pragma: export
#include "ir/trace.hpp"       // IWYU pragma: export
