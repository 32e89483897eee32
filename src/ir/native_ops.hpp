// fpq::ir — the opaque host-FPU primitives shared by NativeEvaluator64/32
// and the injecting native context (inject/context.cpp).
//
// Each function routes one operation through a noinline/volatile helper so
// the real FPU executes it at run time — no constant folding, no
// contraction — and any enclosing fpmon::ScopedMonitor observes genuine
// hardware exceptions. Defined in evaluators.cpp.
#pragma once

#include <cstdint>

namespace fpq::ir::native {

double add64(double a, double b) noexcept;
double sub64(double a, double b) noexcept;
double mul64(double a, double b) noexcept;
double div64(double a, double b) noexcept;
double sqrt64(double a) noexcept;
double fma64(double a, double b, double c) noexcept;
bool eq64(double a, double b) noexcept;
bool lt64(double a, double b) noexcept;

float add32(float a, float b) noexcept;
float sub32(float a, float b) noexcept;
float mul32(float a, float b) noexcept;
float div32(float a, float b) noexcept;
float sqrt32(float a) noexcept;
float fma32(float a, float b, float c) noexcept;
/// double → float through the FPU (the narrowing itself is observable).
float narrow32(double x) noexcept;

/// Exact sign-bit flip, including for NaN (bit-level, never raises).
double flip_sign(double x) noexcept;

}  // namespace fpq::ir::native
