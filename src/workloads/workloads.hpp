// fpq::workloads — simulated scientific workloads for the monitor.
//
// The suspicion quiz (§II-D) poses a hypothetical: "we wrap a scientific
// simulation with code that determines if any of the possible exceptions
// occurred." This module supplies the simulations: small, deterministic
// numerical kernels, each in a healthy variant and a broken variant whose
// failure mode is known in advance. Running them under fpmon turns the
// quiz's hypothetical into a regression suite for the monitor — and into
// teaching material: each workload's doc says which conditions SHOULD
// worry you.
//
// Kernels express every arithmetic step as an fpq::ir call routed through
// an EvalContext, so the SAME kernel can execute on the host FPU (run(),
// observed by fpmon), on the softfloat engine, or under a fault-injecting
// evaluator (probe(), the detector gauntlet's entry point) without any
// per-kernel plumbing.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>

#include "fpmon/flow.hpp"
#include "fpmon/monitor.hpp"
#include "ir/expr.hpp"

namespace fpq::workloads {

/// Where a kernel's arithmetic actually executes. Kernels call back here
/// for every expression evaluation; the context decides the evaluator
/// (host FPU, softfloat, fault-injected, ...) and may record the call
/// stream. Kernels are straight-line in their call sequence — fixed loop
/// counts, no data-dependent branching on results — so two contexts run
/// over the same kernel see call-for-call aligned streams, which is what
/// lets a clean run serve as the baseline for an injected one.
class EvalContext {
 public:
  virtual ~EvalContext() = default;
  virtual double call(const ir::Expr& expr,
                      std::span<const double> bindings) = 0;

  double call(const ir::Expr& expr, std::initializer_list<double> binds) {
    return call(expr,
                std::span<const double>(binds.begin(), binds.size()));
  }
  double call(const ir::Expr& expr) {
    return call(expr, std::span<const double>{});
  }
};

/// Host-FPU context: the real FPU executes every operation, so an
/// enclosing fpmon::ScopedMonitor observes genuine hardware exceptions.
class NativeContext final : public EvalContext {
 public:
  double call(const ir::Expr& expr,
              std::span<const double> bindings) override;
};

/// Host-FPU context with per-operation flow emission: every arithmetic
/// op (and every neg/comparison, under auxiliary tags) reports its
/// operand/result value classes to the thread's FlowMonitor stack,
/// keyed by the same (call << 20) | op tags the fault injector numbers
/// sites with. Walks the tree, so the op stream — and therefore the tag
/// stream — is the injector's site numbering verbatim. With no
/// FlowMonitor live, the per-op cost is one thread-local load.
class FlowContext final : public EvalContext {
 public:
  double call(const ir::Expr& expr,
              std::span<const double> bindings) override;

 private:
  std::uint64_t call_ = 0;  // one-past, like inject::Injector
};

/// One runnable workload variant.
struct Workload {
  std::string name;
  std::string description;
  /// Conditions a correct monitor MUST report for this run.
  mon::ConditionSet expected;
  /// Conditions that must NOT appear (the difference between the healthy
  /// and broken variant).
  mon::ConditionSet forbidden;
  /// Executes the kernel at full scale under a caller-supplied context
  /// (pure compute; observation is the caller's job). Pass NativeContext
  /// to put the real FPU under a monitor, or an injecting context to
  /// attack the full-scale kernel.
  void (*run)(EvalContext& ctx);
  /// The same kernel at reduced scale, same signature, with the SAME
  /// exception contract (expected/forbidden) — sized for fault-injection
  /// campaigns that re-run it hundreds of times.
  void (*probe)(EvalContext& ctx);
};

/// The full catalogue: healthy/broken pairs across domains (ODE
/// integration, statistics, series summation, geometry).
std::span<const Workload> catalogue();

/// Runs one workload at full scale on the host FPU (NativeContext) under
/// a fresh monitor and returns what was observed.
mon::ConditionSet observe(const Workload& w);

/// Same, but through a caller-supplied context — the seam that lets a
/// fault-injecting context attack the full-scale kernel while the monitor
/// watches the real FPU.
mon::ConditionSet observe(const Workload& w, EvalContext& ctx);

/// True when the observation satisfies the workload's contract
/// (all expected conditions present, no forbidden ones).
bool contract_holds(const Workload& w, const mon::ConditionSet& observed);

/// Runs one workload at full scale on the host FPU through a FlowContext
/// under a FlowMonitor: the flow-aware observe(). The report's
/// ConditionSet equals what observe() reports; the ledger adds the
/// born/propagated/killed site breakdown.
mon::FlowReport observe_flow(const Workload& w,
                             const mon::FlowOptions& options = {});

/// Same through a caller-supplied context (pass FlowContext — or any
/// flow-emitting context — for per-site detail; a plain context still
/// yields the region ConditionSet and seam samples).
mon::FlowReport observe_flow(const Workload& w, EvalContext& ctx,
                             const mon::FlowOptions& options = {});

}  // namespace fpq::workloads
