#include "exec/expr.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <type_traits>
#include <unordered_set>

#include "common/logging.h"
#include "exec/exec_metrics.h"

namespace cackle::exec {
namespace {

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kFloat64;
}

/// Reads a numeric column value as double.
double NumAt(const Column& c, int64_t row) {
  if (c.type() == DataType::kInt64) {
    return static_cast<double>(c.ints()[static_cast<size_t>(row)]);
  }
  return c.doubles()[static_cast<size_t>(row)];
}

/// Borrows the input column when `e` is a plain column reference; otherwise
/// evaluates into `storage` and returns that.
const Column* BorrowOrEval(const Expr& e, const Table& input,
                           Column* storage) {
  if (const Column* c = e.TryBorrow(input)) return c;
  *storage = e.Eval(input);
  return storage;
}

/// One operand of an element-wise kernel. Int, double and string literals
/// stay scalar; anything else is borrowed when it is a column reference and
/// evaluated once otherwise. The Visit calls hand `fn` a typed per-row
/// accessor, so a kernel instantiates one tight loop per operand kind
/// instead of re-checking the kind and type on every row.
class Operand {
 public:
  Operand(const Expr& e, const Table& input)
      : int_lit_(e.TryIntLiteral()),
        double_lit_(e.TryDoubleLiteral()),
        string_lit_(e.TryStringLiteral()) {
    if (int_lit_ == nullptr && double_lit_ == nullptr &&
        string_lit_ == nullptr) {
      col_ = BorrowOrEval(e, input, &storage_);
    }
  }
  Operand(const Operand&) = delete;
  Operand& operator=(const Operand&) = delete;

  DataType type() const {
    if (col_ != nullptr) return col_->type();
    if (int_lit_ != nullptr) return DataType::kInt64;
    return double_lit_ != nullptr ? DataType::kFloat64 : DataType::kString;
  }

  /// `fn(at)` with `at(r)` returning int64_t or double.
  template <typename Fn>
  void VisitNumeric(Fn&& fn) const {
    if (int_lit_ != nullptr) {
      const int64_t v = *int_lit_;
      fn([v](size_t) { return v; });
    } else if (double_lit_ != nullptr) {
      const double v = *double_lit_;
      fn([v](size_t) { return v; });
    } else if (type() == DataType::kInt64) {
      const int64_t* p = col_->ints().data();
      fn([p](size_t r) { return p[r]; });
    } else {
      const double* p = col_->doubles().data();
      fn([p](size_t r) { return p[r]; });
    }
  }

  /// `fn(at)` with `at(r)` returning const std::string&.
  template <typename Fn>
  void VisitString(Fn&& fn) const {
    if (string_lit_ != nullptr) {
      const std::string* v = string_lit_;
      fn([v](size_t) -> const std::string& { return *v; });
    } else {
      const std::string* p = col_->strings().data();
      fn([p](size_t r) -> const std::string& { return p[r]; });
    }
  }

 private:
  const int64_t* int_lit_;
  const double* double_lit_;
  const std::string* string_lit_;
  Column storage_;
  const Column* col_ = nullptr;
};

/// Keeps sel[i] iff test(sel[i]); in-place compaction.
template <typename TestFn>
void CompactSelection(std::vector<int64_t>& sel, TestFn test) {
  size_t w = 0;
  for (size_t i = 0; i < sel.size(); ++i) {
    if (test(sel[i])) sel[w++] = sel[i];
  }
  sel.resize(w);
}

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

// --- typed branchless selection kernels -------------------------------------
//
// The generic paths above branch per row on the predicate outcome, which
// costs a misprediction per selectivity flip and blocks vectorization. The
// kernels below write the candidate row unconditionally and advance the
// write cursor by the comparison result (`sel[w] = r; w += hit`), so the
// loop body is branch-free and the typed compare auto-vectorizes. Scalar
// semantics are preserved exactly: same rows survive, in the same order.

/// Fills `sel` (must be empty) with every row of `xs` matching
/// `cmp(xs[r], lit)` — the fused iota+filter first pass.
template <typename T, typename Cmp>
void SelectAgainstLiteral(std::vector<int64_t>& sel, const std::vector<T>& xs,
                          T lit, Cmp cmp) {
  const size_t n = xs.size();
  sel.resize(n);
  size_t w = 0;
  for (size_t r = 0; r < n; ++r) {
    sel[w] = static_cast<int64_t>(r);
    w += cmp(xs[r], lit) ? 1 : 0;
  }
  sel.resize(w);
}

/// Branch-free in-place refine of `sel` against a literal.
template <typename T, typename Cmp>
void RefineAgainstLiteral(std::vector<int64_t>& sel, const std::vector<T>& xs,
                          T lit, Cmp cmp) {
  size_t w = 0;
  for (size_t i = 0; i < sel.size(); ++i) {
    const int64_t r = sel[i];
    sel[w] = r;
    w += cmp(xs[static_cast<size_t>(r)], lit) ? 1 : 0;
  }
  sel.resize(w);
}

/// Branch-free in-place refine of `sel` comparing two same-typed columns.
template <typename T, typename Cmp>
void RefineAgainstColumn(std::vector<int64_t>& sel, const std::vector<T>& xs,
                         const std::vector<T>& ys, Cmp cmp) {
  size_t w = 0;
  for (size_t i = 0; i < sel.size(); ++i) {
    const int64_t r = sel[i];
    sel[w] = r;
    w += cmp(xs[static_cast<size_t>(r)], ys[static_cast<size_t>(r)]) ? 1 : 0;
  }
  sel.resize(w);
}

/// Invokes `dispatch` with the comparator lambda for `op`, hoisting the
/// operator switch out of the row loops so each kernel instantiation is one
/// tight vectorizable loop.
template <typename Dispatch>
void WithComparator(CmpOp op, Dispatch&& dispatch) {
  switch (op) {
    case CmpOp::kEq: dispatch([](auto x, auto y) { return x == y; }); break;
    case CmpOp::kNe: dispatch([](auto x, auto y) { return x != y; }); break;
    case CmpOp::kLt: dispatch([](auto x, auto y) { return x < y; }); break;
    case CmpOp::kLe: dispatch([](auto x, auto y) { return x <= y; }); break;
    case CmpOp::kGt: dispatch([](auto x, auto y) { return x > y; }); break;
    case CmpOp::kGe: dispatch([](auto x, auto y) { return x >= y; }); break;
  }
}

class ColRef final : public Expr {
 public:
  explicit ColRef(std::string name) : name_(std::move(name)) {}
  DataType OutputType(const Table& input) const override {
    return input.column_def(input.ColumnIndex(name_)).type;
  }
  Column Eval(const Table& input) const override {
    return input.column(name_);  // copy; fine at this scale
  }
  const Column* TryBorrow(const Table& input) const override {
    return &input.column(name_);
  }
  void CollectColumns(std::set<std::string>* out) const override {
    out->insert(name_);
  }

 private:
  std::string name_;
};

class IntLit final : public Expr {
 public:
  void CollectColumns(std::set<std::string>*) const override {}
  explicit IntLit(int64_t v) : v_(v) {}
  const int64_t* TryIntLiteral() const override { return &v_; }
  DataType OutputType(const Table&) const override {
    return DataType::kInt64;
  }
  Column Eval(const Table& input) const override {
    Column c(DataType::kInt64);
    c.ints().assign(static_cast<size_t>(input.num_rows()), v_);
    return c;
  }

 private:
  int64_t v_;
};

class DoubleLit final : public Expr {
 public:
  void CollectColumns(std::set<std::string>*) const override {}
  explicit DoubleLit(double v) : v_(v) {}
  const double* TryDoubleLiteral() const override { return &v_; }
  DataType OutputType(const Table&) const override {
    return DataType::kFloat64;
  }
  Column Eval(const Table& input) const override {
    Column c(DataType::kFloat64);
    c.doubles().assign(static_cast<size_t>(input.num_rows()), v_);
    return c;
  }

 private:
  double v_;
};

class StringLit final : public Expr {
 public:
  void CollectColumns(std::set<std::string>*) const override {}
  explicit StringLit(std::string v) : v_(std::move(v)) {}
  const std::string* TryStringLiteral() const override { return &v_; }
  DataType OutputType(const Table&) const override {
    return DataType::kString;
  }
  Column Eval(const Table& input) const override {
    Column c(DataType::kString);
    c.strings().assign(static_cast<size_t>(input.num_rows()), v_);
    return c;
  }

 private:
  std::string v_;
};

enum class ArithOp { kAdd, kSub, kMul, kDiv };

/// Invokes `dispatch` with the arithmetic lambda for `op` over values of
/// type T, hoisting the operator switch out of the row loop (as
/// WithComparator does for the selection kernels). Division by zero yields
/// zero.
template <typename T, typename Dispatch>
void WithArith(ArithOp op, Dispatch&& dispatch) {
  switch (op) {
    case ArithOp::kAdd: dispatch([](T x, T y) -> T { return x + y; }); break;
    case ArithOp::kSub: dispatch([](T x, T y) -> T { return x - y; }); break;
    case ArithOp::kMul: dispatch([](T x, T y) -> T { return x * y; }); break;
    case ArithOp::kDiv:
      dispatch([](T x, T y) -> T { return y == 0 ? T{0} : x / y; });
      break;
  }
}

class Arith final : public Expr {
 public:
  void CollectColumns(std::set<std::string>* out) const override {
    a_->CollectColumns(out);
    b_->CollectColumns(out);
  }
  Arith(ArithOp op, ExprPtr a, ExprPtr b)
      : op_(op), a_(std::move(a)), b_(std::move(b)) {}
  DataType OutputType(const Table& input) const override {
    const DataType ta = a_->OutputType(input);
    const DataType tb = b_->OutputType(input);
    CACKLE_CHECK(IsNumeric(ta) && IsNumeric(tb));
    if (op_ == ArithOp::kDiv) return DataType::kFloat64;
    return (ta == DataType::kInt64 && tb == DataType::kInt64)
               ? DataType::kInt64
               : DataType::kFloat64;
  }
  Column Eval(const Table& input) const override {
    const Operand a(*a_, input);
    const Operand b(*b_, input);
    CACKLE_CHECK(IsNumeric(a.type()) && IsNumeric(b.type()));
    const size_t n = static_cast<size_t>(input.num_rows());
    // int64 op int64 stays int64 (except division); everything else
    // promotes each operand to double per row.
    const bool int_out = op_ != ArithOp::kDiv &&
                         a.type() == DataType::kInt64 &&
                         b.type() == DataType::kInt64;
    Column out(int_out ? DataType::kInt64 : DataType::kFloat64);
    a.VisitNumeric([&](auto x) {
      b.VisitNumeric([&](auto y) {
        if constexpr (std::is_same_v<decltype(x(0)), int64_t> &&
                      std::is_same_v<decltype(y(0)), int64_t>) {
          if (int_out) {
            std::vector<int64_t>& o = out.ints();
            o.resize(n);
            WithArith<int64_t>(op_, [&](auto f) {
              for (size_t r = 0; r < n; ++r) o[r] = f(x(r), y(r));
            });
            return;
          }
        }
        std::vector<double>& o = out.doubles();
        o.resize(n);
        WithArith<double>(op_, [&](auto f) {
          for (size_t r = 0; r < n; ++r) {
            o[r] = f(static_cast<double>(x(r)), static_cast<double>(y(r)));
          }
        });
      });
    });
    return out;
  }

 private:
  ArithOp op_;
  ExprPtr a_;
  ExprPtr b_;
};

class Compare final : public Expr {
 public:
  void CollectColumns(std::set<std::string>* out) const override {
    a_->CollectColumns(out);
    b_->CollectColumns(out);
  }
  Compare(CmpOp op, ExprPtr a, ExprPtr b)
      : op_(op), a_(std::move(a)), b_(std::move(b)) {}
  DataType OutputType(const Table&) const override {
    return DataType::kInt64;
  }
  Column Eval(const Table& input) const override {
    const Column ca = a_->Eval(input);
    const Column cb = b_->Eval(input);
    const int64_t n = input.num_rows();
    Column out(DataType::kInt64);
    out.ints().resize(static_cast<size_t>(n));
    if (ca.type() == DataType::kString) {
      CACKLE_CHECK(cb.type() == DataType::kString);
      for (int64_t r = 0; r < n; ++r) {
        const int cmp = ca.strings()[static_cast<size_t>(r)].compare(
            cb.strings()[static_cast<size_t>(r)]);
        out.ints()[static_cast<size_t>(r)] = Apply(cmp);
      }
    } else {
      for (int64_t r = 0; r < n; ++r) {
        const double x = NumAt(ca, r);
        const double y = NumAt(cb, r);
        const int cmp = x < y ? -1 : (x > y ? 1 : 0);
        out.ints()[static_cast<size_t>(r)] = Apply(cmp);
      }
    }
    return out;
  }

  void InitSelection(const Table& input,
                     std::vector<int64_t>& sel) const override {
    // Column-vs-literal first pass: fused iota+filter, one branchless sweep
    // over the column instead of materializing the full iota and refining.
    if (const Column* ca = a_->TryBorrow(input)) {
      if (ca->type() == DataType::kInt64) {
        if (const int64_t* lit = b_->TryIntLiteral()) {
          WithComparator(op_, [&](auto cmp) {
            SelectAgainstLiteral(sel, ca->ints(), *lit, cmp);
          });
          return;
        }
      } else if (ca->type() == DataType::kFloat64) {
        if (const double* lit = b_->TryDoubleLiteral()) {
          WithComparator(op_, [&](auto cmp) {
            SelectAgainstLiteral(sel, ca->doubles(), *lit, cmp);
          });
          return;
        }
      }
    }
    sel.reserve(static_cast<size_t>(input.num_rows()));
    for (int64_t r = 0; r < input.num_rows(); ++r) sel.push_back(r);
    Refine(input, sel);
  }

  void Refine(const Table& input, std::vector<int64_t>& sel) const override {
    if (sel.empty()) return;
    Column sa;
    Column sb;
    const Column* ca = BorrowOrEval(*a_, input, &sa);
    // Same-typed numeric comparisons use the branchless typed kernels;
    // int64-vs-int64 compares exactly instead of through doubles (identical
    // for every value below 2^53, which covers all generated data). Mixed
    // int/double operands keep the promoting scalar path below.
    if (ca->type() == DataType::kInt64) {
      if (const int64_t* lit = b_->TryIntLiteral()) {
        WithComparator(op_, [&](auto cmp) {
          RefineAgainstLiteral(sel, ca->ints(), *lit, cmp);
        });
        return;
      }
    } else if (ca->type() == DataType::kFloat64) {
      if (const double* lit = b_->TryDoubleLiteral()) {
        WithComparator(op_, [&](auto cmp) {
          RefineAgainstLiteral(sel, ca->doubles(), *lit, cmp);
        });
        return;
      }
    }
    if (ca->type() == DataType::kString) {
      // Dictionary fast path: a dict-encoded column against a string
      // literal evaluates the comparison once per dictionary entry, then
      // tests fixed-width codes per row.
      const std::string* lit = b_->TryStringLiteral();
      if (lit != nullptr && ca->has_dict()) {
        const StringDictionary& dict = ca->dict();
        std::vector<uint8_t> dmatch(static_cast<size_t>(dict.size()));
        for (size_t d = 0; d < dmatch.size(); ++d) {
          dmatch[d] = Apply(dict.values()[d].compare(*lit)) != 0;
        }
        const std::vector<int32_t>& codes = ca->codes();
        ExecMetrics().dict_predicate_evals.fetch_add(
            1, std::memory_order_relaxed);
        CompactSelection(sel, [&](int64_t r) {
          return dmatch[static_cast<size_t>(codes[static_cast<size_t>(r)])] !=
                 0;
        });
        return;
      }
      const Column* cb = BorrowOrEval(*b_, input, &sb);
      CACKLE_CHECK(cb->type() == DataType::kString);
      const auto& xs = ca->strings();
      const auto& ys = cb->strings();
      CompactSelection(sel, [&](int64_t r) {
        const size_t i = static_cast<size_t>(r);
        return Apply(xs[i].compare(ys[i])) != 0;
      });
      return;
    }
    const Column* cb = BorrowOrEval(*b_, input, &sb);
    if (ca->type() == cb->type()) {
      if (ca->type() == DataType::kInt64) {
        WithComparator(op_, [&](auto cmp) {
          RefineAgainstColumn(sel, ca->ints(), cb->ints(), cmp);
        });
      } else {
        WithComparator(op_, [&](auto cmp) {
          RefineAgainstColumn(sel, ca->doubles(), cb->doubles(), cmp);
        });
      }
      return;
    }
    CompactSelection(sel, [&](int64_t r) {
      const double x = NumAt(*ca, r);
      const double y = NumAt(*cb, r);
      return Apply(x < y ? -1 : (x > y ? 1 : 0)) != 0;
    });
  }

 private:
  int64_t Apply(int cmp) const {
    switch (op_) {
      case CmpOp::kEq: return cmp == 0;
      case CmpOp::kNe: return cmp != 0;
      case CmpOp::kLt: return cmp < 0;
      case CmpOp::kLe: return cmp <= 0;
      case CmpOp::kGt: return cmp > 0;
      case CmpOp::kGe: return cmp >= 0;
    }
    return 0;
  }

  CmpOp op_;
  ExprPtr a_;
  ExprPtr b_;
};

enum class BoolOp { kAnd, kOr, kNot };

class Logical final : public Expr {
 public:
  void CollectColumns(std::set<std::string>* out) const override {
    a_->CollectColumns(out);
    if (b_ != nullptr) b_->CollectColumns(out);
  }
  Logical(BoolOp op, ExprPtr a, ExprPtr b)
      : op_(op), a_(std::move(a)), b_(std::move(b)) {}
  DataType OutputType(const Table&) const override {
    return DataType::kInt64;
  }
  Column Eval(const Table& input) const override {
    const Column ca = a_->Eval(input);
    const int64_t n = input.num_rows();
    Column out(DataType::kInt64);
    out.ints().resize(static_cast<size_t>(n));
    if (op_ == BoolOp::kNot) {
      for (int64_t r = 0; r < n; ++r) {
        out.ints()[static_cast<size_t>(r)] =
            ca.ints()[static_cast<size_t>(r)] == 0;
      }
      return out;
    }
    const Column cb = b_->Eval(input);
    for (int64_t r = 0; r < n; ++r) {
      const bool x = ca.ints()[static_cast<size_t>(r)] != 0;
      const bool y = cb.ints()[static_cast<size_t>(r)] != 0;
      out.ints()[static_cast<size_t>(r)] =
          (op_ == BoolOp::kAnd) ? (x && y) : (x || y);
    }
    return out;
  }

  void InitSelection(const Table& input,
                     std::vector<int64_t>& sel) const override {
    if (op_ == BoolOp::kAnd) {
      // Each AND leg only inspects rows that survived the previous legs.
      a_->InitSelection(input, sel);
      if (!sel.empty()) b_->Refine(input, sel);
      return;
    }
    Expr::InitSelection(input, sel);
  }

  void Refine(const Table& input, std::vector<int64_t>& sel) const override {
    if (sel.empty()) return;
    if (op_ == BoolOp::kAnd) {
      a_->Refine(input, sel);
      if (!sel.empty()) b_->Refine(input, sel);
      return;
    }
    Expr::Refine(input, sel);
  }

 private:
  BoolOp op_;
  ExprPtr a_;
  ExprPtr b_;
};

class InIntExpr final : public Expr {
 public:
  void CollectColumns(std::set<std::string>* out) const override {
    x_->CollectColumns(out);
  }
  InIntExpr(ExprPtr x, std::vector<int64_t> values)
      : x_(std::move(x)), values_(values.begin(), values.end()) {}
  DataType OutputType(const Table&) const override {
    return DataType::kInt64;
  }
  Column Eval(const Table& input) const override {
    const Column cx = x_->Eval(input);
    const int64_t n = input.num_rows();
    Column out(DataType::kInt64);
    out.ints().resize(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) {
      out.ints()[static_cast<size_t>(r)] =
          values_.count(cx.ints()[static_cast<size_t>(r)]) > 0;
    }
    return out;
  }

  void Refine(const Table& input, std::vector<int64_t>& sel) const override {
    if (sel.empty()) return;
    Column storage;
    const Column* cx = BorrowOrEval(*x_, input, &storage);
    const auto& xs = cx->ints();
    CompactSelection(sel, [&](int64_t r) {
      return values_.count(xs[static_cast<size_t>(r)]) > 0;
    });
  }

 private:
  ExprPtr x_;
  std::unordered_set<int64_t> values_;
};

class InStringExpr final : public Expr {
 public:
  void CollectColumns(std::set<std::string>* out) const override {
    x_->CollectColumns(out);
  }
  InStringExpr(ExprPtr x, std::vector<std::string> values)
      : x_(std::move(x)), values_(values.begin(), values.end()) {}
  DataType OutputType(const Table&) const override {
    return DataType::kInt64;
  }
  Column Eval(const Table& input) const override {
    const Column cx = x_->Eval(input);
    const int64_t n = input.num_rows();
    Column out(DataType::kInt64);
    out.ints().resize(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) {
      out.ints()[static_cast<size_t>(r)] =
          values_.count(cx.strings()[static_cast<size_t>(r)]) > 0;
    }
    return out;
  }

  void Refine(const Table& input, std::vector<int64_t>& sel) const override {
    if (sel.empty()) return;
    Column storage;
    const Column* cx = BorrowOrEval(*x_, input, &storage);
    if (cx->has_dict()) {
      const StringDictionary& dict = cx->dict();
      std::vector<uint8_t> dmatch(static_cast<size_t>(dict.size()));
      for (size_t d = 0; d < dmatch.size(); ++d) {
        dmatch[d] = values_.count(dict.values()[d]) > 0;
      }
      const std::vector<int32_t>& codes = cx->codes();
      ExecMetrics().dict_predicate_evals.fetch_add(1,
                                                   std::memory_order_relaxed);
      CompactSelection(sel, [&](int64_t r) {
        return dmatch[static_cast<size_t>(codes[static_cast<size_t>(r)])] != 0;
      });
      return;
    }
    const auto& xs = cx->strings();
    CompactSelection(sel, [&](int64_t r) {
      return values_.count(xs[static_cast<size_t>(r)]) > 0;
    });
  }

 private:
  ExprPtr x_;
  std::unordered_set<std::string> values_;
};

enum class StrMatch { kContains, kPrefix, kSuffix, kContainsSeq };

class StringMatch final : public Expr {
 public:
  void CollectColumns(std::set<std::string>* out) const override {
    x_->CollectColumns(out);
  }
  StringMatch(StrMatch kind, ExprPtr x, std::string a, std::string b = "")
      : kind_(kind), x_(std::move(x)), a_(std::move(a)), b_(std::move(b)) {}
  DataType OutputType(const Table&) const override {
    return DataType::kInt64;
  }
  Column Eval(const Table& input) const override {
    const Column cx = x_->Eval(input);
    const int64_t n = input.num_rows();
    Column out(DataType::kInt64);
    out.ints().resize(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) {
      out.ints()[static_cast<size_t>(r)] =
          MatchOne(cx.strings()[static_cast<size_t>(r)]);
    }
    return out;
  }

  void InitSelection(const Table& input,
                     std::vector<int64_t>& sel) const override {
    sel.reserve(static_cast<size_t>(input.num_rows()));
    for (int64_t r = 0; r < input.num_rows(); ++r) sel.push_back(r);
    Refine(input, sel);
  }

  void Refine(const Table& input, std::vector<int64_t>& sel) const override {
    if (sel.empty()) return;
    Column storage;
    const Column* cx = BorrowOrEval(*x_, input, &storage);
    if (cx->has_dict()) {
      // LIKE over a dictionary column: run the substring scan once per
      // dictionary entry, then test codes per row.
      const StringDictionary& dict = cx->dict();
      std::vector<uint8_t> dmatch(static_cast<size_t>(dict.size()));
      for (size_t d = 0; d < dmatch.size(); ++d) {
        dmatch[d] = MatchOne(dict.values()[d]);
      }
      const std::vector<int32_t>& codes = cx->codes();
      ExecMetrics().dict_predicate_evals.fetch_add(1,
                                                   std::memory_order_relaxed);
      CompactSelection(sel, [&](int64_t r) {
        return dmatch[static_cast<size_t>(codes[static_cast<size_t>(r)])] != 0;
      });
      return;
    }
    const auto& xs = cx->strings();
    CompactSelection(
        sel, [&](int64_t r) { return MatchOne(xs[static_cast<size_t>(r)]); });
  }

 private:
  bool MatchOne(const std::string& s) const {
    switch (kind_) {
      case StrMatch::kContains:
        return s.find(a_) != std::string::npos;
      case StrMatch::kPrefix:
        return s.rfind(a_, 0) == 0;
      case StrMatch::kSuffix:
        return s.size() >= a_.size() &&
               s.compare(s.size() - a_.size(), a_.size(), a_) == 0;
      case StrMatch::kContainsSeq: {
        const size_t p = s.find(a_);
        return p != std::string::npos &&
               s.find(b_, p + a_.size()) != std::string::npos;
      }
    }
    return false;
  }

  StrMatch kind_;
  ExprPtr x_;
  std::string a_;
  std::string b_;
};

class IfExpr final : public Expr {
 public:
  void CollectColumns(std::set<std::string>* out) const override {
    cond_->CollectColumns(out);
    a_->CollectColumns(out);
    b_->CollectColumns(out);
  }
  IfExpr(ExprPtr cond, ExprPtr a, ExprPtr b)
      : cond_(std::move(cond)), a_(std::move(a)), b_(std::move(b)) {}
  DataType OutputType(const Table& input) const override {
    const DataType ta = a_->OutputType(input);
    const DataType tb = b_->OutputType(input);
    if (ta == DataType::kString || tb == DataType::kString) {
      CACKLE_CHECK(ta == tb);
      return DataType::kString;
    }
    return (ta == DataType::kInt64 && tb == DataType::kInt64)
               ? DataType::kInt64
               : DataType::kFloat64;
  }
  Column Eval(const Table& input) const override {
    Column cond_storage;
    const int64_t* take =
        BorrowOrEval(*cond_, input, &cond_storage)->ints().data();
    const size_t n = static_cast<size_t>(input.num_rows());
    const DataType out_type = OutputType(input);
    const Operand a(*a_, input);
    const Operand b(*b_, input);
    Column out(out_type);
    if (out_type == DataType::kString) {
      std::vector<std::string>& o = out.strings();
      o.reserve(n);
      a.VisitString([&](auto x) {
        b.VisitString([&](auto y) {
          for (size_t r = 0; r < n; ++r) {
            o.push_back(take[r] != 0 ? x(r) : y(r));
          }
        });
      });
      return out;
    }
    a.VisitNumeric([&](auto x) {
      b.VisitNumeric([&](auto y) {
        if constexpr (std::is_same_v<decltype(x(0)), int64_t> &&
                      std::is_same_v<decltype(y(0)), int64_t>) {
          if (out_type == DataType::kInt64) {
            std::vector<int64_t>& o = out.ints();
            o.resize(n);
            for (size_t r = 0; r < n; ++r) o[r] = take[r] != 0 ? x(r) : y(r);
            return;
          }
        }
        std::vector<double>& o = out.doubles();
        o.resize(n);
        for (size_t r = 0; r < n; ++r) {
          o[r] = take[r] != 0 ? static_cast<double>(x(r))
                              : static_cast<double>(y(r));
        }
      });
    });
    return out;
  }

 private:
  ExprPtr cond_;
  ExprPtr a_;
  ExprPtr b_;
};

class YearExpr final : public Expr {
 public:
  void CollectColumns(std::set<std::string>* out) const override {
    date_->CollectColumns(out);
  }
  explicit YearExpr(ExprPtr date) : date_(std::move(date)) {}
  DataType OutputType(const Table&) const override {
    return DataType::kInt64;
  }
  Column Eval(const Table& input) const override {
    Column storage;
    const int64_t* dates = BorrowOrEval(*date_, input, &storage)->ints().data();
    const size_t n = static_cast<size_t>(input.num_rows());
    Column out(DataType::kInt64);
    std::vector<int64_t>& o = out.ints();
    o.resize(n);
    for (size_t r = 0; r < n; ++r) o[r] = CivilFromDate(dates[r]).year;
    return out;
  }

 private:
  ExprPtr date_;
};

class SubstrExpr final : public Expr {
 public:
  void CollectColumns(std::set<std::string>* out) const override {
    x_->CollectColumns(out);
  }
  SubstrExpr(ExprPtr x, int n) : x_(std::move(x)), n_(n) {}
  DataType OutputType(const Table&) const override {
    return DataType::kString;
  }
  Column Eval(const Table& input) const override {
    Column storage;
    const Column* cx = BorrowOrEval(*x_, input, &storage);
    Column out(DataType::kString);
    std::vector<std::string>& o = out.strings();
    o.reserve(static_cast<size_t>(input.num_rows()));
    for (const std::string& s : cx->strings()) {
      o.push_back(s.substr(0, static_cast<size_t>(n_)));
    }
    return out;
  }

 private:
  ExprPtr x_;
  int n_;
};

}  // namespace

ExprPtr Col(std::string name) { return std::make_shared<ColRef>(std::move(name)); }
ExprPtr Lit(int64_t v) { return std::make_shared<IntLit>(v); }
ExprPtr Lit(double v) { return std::make_shared<DoubleLit>(v); }
ExprPtr Lit(std::string v) { return std::make_shared<StringLit>(std::move(v)); }

ExprPtr Add(ExprPtr a, ExprPtr b) {
  return std::make_shared<Arith>(ArithOp::kAdd, std::move(a), std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return std::make_shared<Arith>(ArithOp::kSub, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return std::make_shared<Arith>(ArithOp::kMul, std::move(a), std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return std::make_shared<Arith>(ArithOp::kDiv, std::move(a), std::move(b));
}

ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return std::make_shared<Compare>(CmpOp::kEq, std::move(a), std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return std::make_shared<Compare>(CmpOp::kNe, std::move(a), std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return std::make_shared<Compare>(CmpOp::kLt, std::move(a), std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return std::make_shared<Compare>(CmpOp::kLe, std::move(a), std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return std::make_shared<Compare>(CmpOp::kGt, std::move(a), std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return std::make_shared<Compare>(CmpOp::kGe, std::move(a), std::move(b));
}

ExprPtr And(ExprPtr a, ExprPtr b) {
  return std::make_shared<Logical>(BoolOp::kAnd, std::move(a), std::move(b));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return std::make_shared<Logical>(BoolOp::kOr, std::move(a), std::move(b));
}
ExprPtr Not(ExprPtr a) {
  return std::make_shared<Logical>(BoolOp::kNot, std::move(a), nullptr);
}

ExprPtr AllOf(std::vector<ExprPtr> exprs) {
  CACKLE_CHECK(!exprs.empty());
  ExprPtr out = exprs[0];
  for (size_t i = 1; i < exprs.size(); ++i) out = And(out, exprs[i]);
  return out;
}

ExprPtr Between(ExprPtr x, ExprPtr lo, ExprPtr hi) {
  ExprPtr lower = Ge(x, std::move(lo));
  ExprPtr upper = Le(std::move(x), std::move(hi));
  return And(std::move(lower), std::move(upper));
}

ExprPtr InInt(ExprPtr x, std::vector<int64_t> values) {
  return std::make_shared<InIntExpr>(std::move(x), std::move(values));
}
ExprPtr InString(ExprPtr x, std::vector<std::string> values) {
  return std::make_shared<InStringExpr>(std::move(x), std::move(values));
}

ExprPtr StrContains(ExprPtr x, std::string needle) {
  return std::make_shared<StringMatch>(StrMatch::kContains, std::move(x),
                                       std::move(needle));
}
ExprPtr StrPrefix(ExprPtr x, std::string prefix) {
  return std::make_shared<StringMatch>(StrMatch::kPrefix, std::move(x),
                                       std::move(prefix));
}
ExprPtr StrSuffix(ExprPtr x, std::string suffix) {
  return std::make_shared<StringMatch>(StrMatch::kSuffix, std::move(x),
                                       std::move(suffix));
}
ExprPtr StrContainsSeq(ExprPtr x, std::string first, std::string second) {
  return std::make_shared<StringMatch>(StrMatch::kContainsSeq, std::move(x),
                                       std::move(first), std::move(second));
}

ExprPtr If(ExprPtr cond, ExprPtr a, ExprPtr b) {
  return std::make_shared<IfExpr>(std::move(cond), std::move(a), std::move(b));
}

ExprPtr Year(ExprPtr date) { return std::make_shared<YearExpr>(std::move(date)); }

ExprPtr Substr(ExprPtr x, int n) {
  return std::make_shared<SubstrExpr>(std::move(x), n);
}

std::set<std::string> ReferencedColumns(const ExprPtr& expr) {
  std::set<std::string> out;
  if (expr != nullptr) expr->CollectColumns(&out);
  return out;
}

void Expr::InitSelection(const Table& input, std::vector<int64_t>& sel) const {
  const Column mask = Eval(input);
  const std::vector<int64_t>& m = mask.ints();
  size_t hits = 0;
  for (int64_t v : m) hits += (v != 0);
  sel.reserve(hits);
  for (size_t r = 0; r < m.size(); ++r) {
    if (m[r] != 0) sel.push_back(static_cast<int64_t>(r));
  }
}

void Expr::Refine(const Table& input, std::vector<int64_t>& sel) const {
  if (sel.empty()) return;
  const Column mask = Eval(input);
  const std::vector<int64_t>& m = mask.ints();
  CompactSelection(sel,
                   [&](int64_t r) { return m[static_cast<size_t>(r)] != 0; });
}

std::vector<int64_t> EvalPredicateSelection(const ExprPtr& pred,
                                            const Table& input) {
  std::vector<int64_t> sel;
  CACKLE_CHECK(pred != nullptr);
  pred->InitSelection(input, sel);
  ExecMetrics().selection_filters.fetch_add(1, std::memory_order_relaxed);
  return sel;
}

}  // namespace cackle::exec
