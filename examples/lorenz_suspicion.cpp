// lorenz_suspicion — the paper's motivating scenario, live.
//
// §I of the paper recalls that Lorenz's discovery of chaos was triggered
// by an innocuous rounding difference, and §II-D's suspicion quiz imagines
// wrapping a scientific simulation with code that reports which IEEE
// exceptional conditions occurred. This example does exactly that with
// fpmon's ScopedMonitor around a Lorenz-attractor integrator:
//
//   * a healthy run   — only Precision (rounding) occurs: fine;
//   * a divergent run — a too-large time step blows the integrator up
//     through Overflow into Invalid (inf - inf), demonstrating how the
//     monitor converts silent exceptional values into a loud report;
//   * a rounding-sensitivity run — the same trajectory integrated with
//     contracted vs uncontracted arithmetic (emulated pipeline) drifts
//     apart, Lorenz-style.

#include <cmath>
#include <cstdio>

#include "fpmon/monitor.hpp"
#include "fpmon/report.hpp"
#include "interval/interval.hpp"
#include "optprobe/emulated_pipeline.hpp"

namespace mon = fpq::mon;
namespace opt = fpq::opt;

namespace {

struct State {
  double x = 1.0, y = 1.0, z = 1.0;
};

// Classic Lorenz parameters.
constexpr double kSigma = 10.0;
constexpr double kRho = 28.0;
constexpr double kBeta = 8.0 / 3.0;

State step(State s, double dt) {
  const double dx = kSigma * (s.y - s.x);
  const double dy = s.x * (kRho - s.z) - s.y;
  const double dz = s.x * s.y - kBeta * s.z;
  return {s.x + dt * dx, s.y + dt * dy, s.z + dt * dz};
}

mon::ConditionSet run_simulation(double dt, int steps, State& out) {
  mon::ScopedMonitor monitor;
  State s;
  for (int i = 0; i < steps; ++i) s = step(s, dt);
  out = s;
  return monitor.stop();
}

}  // namespace

int main() {
  std::puts("Lorenz attractor under the floating point exception monitor");
  std::puts("(the suspicion quiz of the paper, §II-D, as a real tool)\n");

  {
    State s;
    const auto seen = run_simulation(0.005, 20000, s);
    std::printf("healthy run (dt = 0.005, 20000 steps):\n");
    std::printf("  final state (%.4f, %.4f, %.4f)\n", s.x, s.y, s.z);
    std::fputs(mon::render_report(seen).c_str(), stdout);
    std::puts("");
  }

  {
    State s;
    const auto seen = run_simulation(1.0, 200, s);
    std::printf("divergent run (dt = 1.0 — far too large):\n");
    std::printf("  final state (%g, %g, %g)\n", s.x, s.y, s.z);
    std::fputs(mon::render_report(seen).c_str(), stdout);
    std::printf(
        "  without the monitor, the NaNs above would be the ONLY clue —\n"
        "  and %d%% of the paper's participants believed a signal would\n"
        "  have fired (Exception Signal question).\n\n",
        30);
  }

  {
    // Rounding sensitivity: one Euler step of dy evaluated with and
    // without fused contraction, then iterated — tiny last-bit
    // differences amplify, the Lorenz story in miniature.
    std::puts("rounding sensitivity (contracted vs strict arithmetic):");
    double strict_y = 1.0, contracted_y = 1.0;
    double x = 1.0, z = 1.0;
    int first_divergence = -1;
    for (int i = 0; i < 60; ++i) {
      // dy = x*(rho - z) - y, then y += dt*dy with dt = 0.9 (chaotic).
      const auto make_expr = [&](double y) {
        using E = opt::Expr;
        return E::add(
            E::constant(y),
            E::mul(E::constant(0.9),
                   E::sub(E::mul(E::constant(x),
                                 E::sub(E::constant(kRho), E::constant(z))),
                          E::constant(y))));
      };
      const auto strict =
          opt::evaluate(make_expr(strict_y), opt::PipelineConfig::ieee_strict());
      const auto contracted =
          opt::evaluate(make_expr(contracted_y), opt::PipelineConfig::o3_like());
      strict_y = fpq::softfloat::to_native(strict.value);
      contracted_y = fpq::softfloat::to_native(contracted.value);
      if (first_divergence < 0 && strict_y != contracted_y) {
        first_divergence = i;
      }
      // Keep the orbit bounded, chaotic-map style.
      x = std::fmod(x * 1.1, 3.0) + 0.1;
      z = std::fmod(z * 1.3, 5.0) + 0.1;
    }
    if (first_divergence >= 0) {
      std::printf(
          "  trajectories first differ at step %d; after 60 steps:\n"
          "    strict      y = %.17g\n"
          "    contracted  y = %.17g\n",
          first_divergence, strict_y, contracted_y);
    } else {
      std::puts("  no divergence in 60 steps (unexpected)");
    }
    std::puts(
        "  -> identical source, different compiler flags, different\n"
        "     trajectory: the MADD question is not academic.");
  }

  {
    // Rigorous version of Lorenz's observation: track a guaranteed
    // interval enclosure of one coordinate of the logistic map (the
    // textbook chaotic system). Each step the enclosure of the EXACT
    // result widens; chaos doubles disagreement per step until the
    // interval covers the whole attractor — the formal reason a single
    // rounding error rewrote Lorenz's weather.
    std::puts("\nchaos vs enclosures (logistic map x <- 3.9 x (1-x)):");
    namespace iv = fpq::interval;
    auto x = iv::Interval::point(0.2);
    const auto r = iv::Interval::point(3.9);
    const auto one = iv::Interval::point(1.0);
    int step = 0;
    int report_at[] = {1, 10, 20, 30, 40, 50, 60};
    std::size_t next = 0;
    for (step = 1; step <= 60; ++step) {
      x = iv::Interval::mul(iv::Interval::mul(r, x),
                            iv::Interval::sub(one, x));
      if (next < std::size(report_at) && step == report_at[next]) {
        std::printf("  step %2d: width %.3g\n", step, x.width());
        ++next;
      }
      if (x.width() > 1.0) break;
    }
    std::printf(
        "  after %d steps the enclosure is wider than the whole unit\n"
        "  interval: NO double-precision trajectory of a chaotic system is\n"
        "  pointwise trustworthy this far out — only statistics are.\n",
        step);
  }
  return 0;
}
