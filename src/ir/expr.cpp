#include "ir/expr.hpp"

#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "parallel/hash.hpp"

namespace fpq::ir {

namespace sf = fpq::softfloat;

using Kind = ExprKind;

namespace {

using parallel::hash_combine;
using parallel::mix64;

std::uint64_t structural_hash(const Expr::Node& n) {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(n.kind) + 1);
  switch (n.kind) {
    case Kind::kConst:
      h = hash_combine(h, n.value.bits);
      break;
    case Kind::kVar:
      h = hash_combine(h, n.var_index);
      for (const char c : n.var_name) {
        h = hash_combine(h, static_cast<unsigned char>(c));
      }
      break;
    default:
      for (const Expr& c : n.children) h = hash_combine(h, c.hash());
      break;
  }
  return h;
}

bool structurally_equal(const Expr::Node& a, const Expr::Node& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Kind::kConst:
      return a.value.bits == b.value.bits;
    case Kind::kVar:
      return a.var_index == b.var_index && a.var_name == b.var_name;
    default:
      if (a.children.size() != b.children.size()) return false;
      // Children are interned already, so identity equality suffices.
      for (std::size_t i = 0; i < a.children.size(); ++i) {
        if (!(a.children[i] == b.children[i])) return false;
      }
      return true;
  }
}

// The process-wide intern pool. Nodes are never evicted, so the pool must
// grow with distinct program shapes only: trees hold programs, and the
// data a program runs on travels in its bindings, never in its constants.
class InternPool {
 public:
  Expr intern(Expr::Node&& candidate) {
    candidate.hash = structural_hash(candidate);
    std::lock_guard<std::mutex> lock(mutex_);
    auto [lo, hi] = nodes_.equal_range(candidate.hash);
    for (auto it = lo; it != hi; ++it) {
      if (structurally_equal(*it->second, candidate)) {
        return Expr{it->second};
      }
    }
    auto node =
        std::make_shared<const Expr::Node>(std::move(candidate));
    nodes_.emplace(node->hash, node);
    return Expr{std::move(node)};
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return nodes_.size();
  }

  static InternPool& global() {
    static InternPool pool;
    return pool;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_multimap<std::uint64_t,
                          std::shared_ptr<const Expr::Node>>
      nodes_;
};

Expr make_node(Kind kind, std::vector<Expr> children) {
  Expr::Node n;
  n.kind = kind;
  n.children = std::move(children);
  return InternPool::global().intern(std::move(n));
}

}  // namespace

Expr Expr::constant(double v) { return constant(sf::from_native(v)); }

Expr Expr::constant(sf::Float64 v) {
  Node n;
  n.kind = Kind::kConst;
  n.value = v;
  return InternPool::global().intern(std::move(n));
}

Expr Expr::variable(std::string name, std::uint32_t index) {
  Node n;
  n.kind = Kind::kVar;
  n.var_name = std::move(name);
  n.var_index = index;
  return InternPool::global().intern(std::move(n));
}

Expr Expr::neg(Expr a) { return make_node(Kind::kNeg, {a}); }
Expr Expr::add(Expr a, Expr b) { return make_node(Kind::kAdd, {a, b}); }
Expr Expr::sub(Expr a, Expr b) { return make_node(Kind::kSub, {a, b}); }
Expr Expr::mul(Expr a, Expr b) { return make_node(Kind::kMul, {a, b}); }
Expr Expr::div(Expr a, Expr b) { return make_node(Kind::kDiv, {a, b}); }
Expr Expr::sqrt(Expr a) { return make_node(Kind::kSqrt, {a}); }
Expr Expr::fma(Expr a, Expr b, Expr c) {
  return make_node(Kind::kFma, {a, b, c});
}
Expr Expr::cmp_eq(Expr a, Expr b) {
  return make_node(Kind::kCmpEq, {a, b});
}
Expr Expr::cmp_lt(Expr a, Expr b) {
  return make_node(Kind::kCmpLt, {a, b});
}

Expr Expr::sum(std::initializer_list<double> xs) {
  std::vector<Expr> terms;
  for (const double x : xs) terms.push_back(constant(x));
  return sum(terms);
}

Expr Expr::sum(std::span<const Expr> xs) {
  if (xs.empty()) throw std::invalid_argument("Expr::sum: no terms");
  Expr acc = xs[0];
  for (std::size_t i = 1; i < xs.size(); ++i) acc = add(acc, xs[i]);
  return acc;
}

Expr Expr::dot(std::span<const Expr> xs, std::span<const Expr> ys) {
  if (xs.empty() || xs.size() != ys.size()) {
    throw std::invalid_argument("Expr::dot: spans of length " +
                                std::to_string(xs.size()) + " and " +
                                std::to_string(ys.size()));
  }
  Expr acc = mul(xs[0], ys[0]);
  for (std::size_t i = 1; i < xs.size(); ++i) {
    acc = add(acc, mul(xs[i], ys[i]));
  }
  return acc;
}

Expr Expr::horner(std::span<const double> coeffs, Expr x) {
  if (coeffs.empty()) {
    throw std::invalid_argument("Expr::horner: no coefficients");
  }
  Expr acc = constant(coeffs[0]);
  for (std::size_t i = 1; i < coeffs.size(); ++i) {
    acc = add(mul(acc, x), constant(coeffs[i]));
  }
  return acc;
}

namespace {

/// Appends e's rendering to out: one buffer for the whole tree instead of
/// a temporary string per node.
void render(const Expr& e, std::string& out) {
  const Expr::Node& n = e.node();
  // `open` child `sep` child ... `)`: infix ops, sqrt and fma alike.
  const auto group = [&](const char* open, const char* sep) {
    out += open;
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      if (i != 0) out += sep;
      render(n.children[i], out);
    }
    out += ')';
  };
  switch (n.kind) {
    case Kind::kConst: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", sf::to_native(n.value));
      out += buf;
      return;
    }
    case Kind::kVar:
      out += n.var_name;
      return;
    case Kind::kNeg:
      out += '-';
      render(n.children[0], out);
      return;
    case Kind::kAdd:
      return group("(", " + ");
    case Kind::kSub:
      return group("(", " - ");
    case Kind::kMul:
      return group("(", " * ");
    case Kind::kDiv:
      return group("(", " / ");
    case Kind::kSqrt:
      return group("sqrt(", "");
    case Kind::kFma:
      return group("fma(", ", ");
    case Kind::kCmpEq:
      return group("(", " == ");
    case Kind::kCmpLt:
      return group("(", " < ");
  }
  out += '?';
}

}  // namespace

std::string Expr::to_string() const {
  std::string out;
  render(*this, out);
  return out;
}

std::size_t Expr::intern_pool_size() {
  return InternPool::global().size();
}

}  // namespace fpq::ir
