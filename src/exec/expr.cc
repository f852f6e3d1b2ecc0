#include "exec/expr.h"

#include <utility>

namespace sdw::exec {

namespace {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

bool ApplyCmp(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::kEq:
      return cmp == 0;
    case CmpOp::kNe:
      return cmp != 0;
    case CmpOp::kLt:
      return cmp < 0;
    case CmpOp::kLe:
      return cmp <= 0;
    case CmpOp::kGt:
      return cmp > 0;
    case CmpOp::kGe:
      return cmp >= 0;
  }
  return false;
}

// Typed kernels for `column <op> integer literal`, one instance per
// operator, so each loop is a single compare the compiler can
// vectorize. CmpExpr picks its pair when it is constructed.
template <CmpOp kOp>
bool Holds(int64_t v, int64_t pivot) {
  if constexpr (kOp == CmpOp::kEq) return v == pivot;
  if constexpr (kOp == CmpOp::kNe) return v != pivot;
  if constexpr (kOp == CmpOp::kLt) return v < pivot;
  if constexpr (kOp == CmpOp::kLe) return v <= pivot;
  if constexpr (kOp == CmpOp::kGt) return v > pivot;
  if constexpr (kOp == CmpOp::kGe) return v >= pivot;
}

// Keeps the selected rows whose value is non-NULL and satisfies the
// comparison, compacting `sel` in place without branches.
template <CmpOp kOp>
void NarrowInts(const ColumnVector& col, int64_t pivot,
                std::vector<uint32_t>* sel) {
  const int64_t* v = col.ints().data();
  uint32_t* rows = sel->data();
  const size_t n = sel->size();
  size_t kept = 0;
  if (col.has_nulls()) {
    const uint8_t* nulls = col.nulls().data();
    for (size_t j = 0; j < n; ++j) {
      const uint32_t i = rows[j];
      rows[kept] = i;
      kept += (nulls[i] == 0) & Holds<kOp>(v[i], pivot);
    }
  } else {
    for (size_t j = 0; j < n; ++j) {
      const uint32_t i = rows[j];
      rows[kept] = i;
      kept += Holds<kOp>(v[i], pivot);
    }
  }
  sel->resize(kept);
}

// The comparison as a BOOLEAN lane over a NULL-free column.
template <CmpOp kOp>
ColumnVector MaskInts(const ColumnVector& col, int64_t pivot) {
  const std::vector<int64_t>& v = col.ints();
  std::vector<int64_t> lane(v.size());
  for (size_t i = 0; i < v.size(); ++i) lane[i] = Holds<kOp>(v[i], pivot);
  return ColumnVector::TakeInts(TypeId::kBool, std::move(lane));
}

struct IntCmpKernel {
  void (*narrow)(const ColumnVector&, int64_t, std::vector<uint32_t>*);
  ColumnVector (*mask)(const ColumnVector&, int64_t);
};

template <CmpOp kOp>
constexpr IntCmpKernel kIntCmpKernel = {&NarrowInts<kOp>, &MaskInts<kOp>};

const IntCmpKernel* IntKernelFor(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return &kIntCmpKernel<CmpOp::kEq>;
    case CmpOp::kNe:
      return &kIntCmpKernel<CmpOp::kNe>;
    case CmpOp::kLt:
      return &kIntCmpKernel<CmpOp::kLt>;
    case CmpOp::kLe:
      return &kIntCmpKernel<CmpOp::kLe>;
    case CmpOp::kGt:
      return &kIntCmpKernel<CmpOp::kGt>;
    case CmpOp::kGe:
      return &kIntCmpKernel<CmpOp::kGe>;
  }
  return nullptr;
}

class ColExpr : public Expr {
 public:
  ColExpr(int index, TypeId type) : index_(index), type_(type) {}

  TypeId type() const override { return type_; }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    if (index_ < 0 ||
        static_cast<size_t>(index_) >= input.columns.size()) {
      return Status::InvalidArgument("column ref out of range");
    }
    const ColumnVector& col = input.columns[index_];
    if (col.type() != type_) {
      return Status::Internal("column ref type mismatch");
    }
    ColumnVector copy(type_);
    copy.Reserve(col.size());
    SDW_RETURN_IF_ERROR(copy.AppendRange(col, 0, col.size()));
    return copy;
  }

  Result<Datum> EvalRow(const Row& row) const override {
    if (index_ < 0 || static_cast<size_t>(index_) >= row.size()) {
      return Status::InvalidArgument("column ref out of range");
    }
    return row[index_];
  }

  std::string ToString() const override {
    return "$" + std::to_string(index_);
  }

  int index() const { return index_; }

 private:
  int index_;
  TypeId type_;
};

class LitExpr : public Expr {
 public:
  explicit LitExpr(Datum value) : value_(std::move(value)) {}

  TypeId type() const override { return value_.type(); }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    ColumnVector out(value_.type());
    const size_t n = input.num_rows();
    out.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      SDW_RETURN_IF_ERROR(out.AppendDatum(value_));
    }
    return out;
  }

  Result<Datum> EvalRow(const Row& row) const override { return value_; }

  std::string ToString() const override { return value_.ToString(); }

  const Datum& value() const { return value_; }

 private:
  Datum value_;
};

class CmpExpr : public Expr {
 public:
  CmpExpr(CmpOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {
    // The dominant predicate shape, column <op> integer literal, gets
    // its typed kernel here, once per plan, not per batch: no column
    // copy and no literal lane — the "compiled" tight loop of §2.1.
    const auto* col = dynamic_cast<const ColExpr*>(left_.get());
    const auto* lit = dynamic_cast<const LitExpr*>(right_.get());
    if (col != nullptr && lit != nullptr && IsIntegerLike(col->type()) &&
        !lit->value().is_null() && IsIntegerLike(lit->value().type())) {
      kernel_ = IntKernelFor(op_);
      column_ = col->index();
      pivot_ = lit->value().int_value();
    }
  }

  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    const ColumnVector* col = KernelInput(input);
    if (col != nullptr && !col->has_nulls()) {
      return kernel_->mask(*col, pivot_);
    }
    SDW_ASSIGN_OR_RETURN(ColumnVector l, left_->EvalBatch(input));
    SDW_ASSIGN_OR_RETURN(ColumnVector r, right_->EvalBatch(input));
    ColumnVector out(TypeId::kBool);
    out.Reserve(l.size());
    // Type-specialized fast paths: the contrast with EvalRow's
    // per-value Datum dispatch is the point of bench A5.
    if (l.type() != TypeId::kString && r.type() != TypeId::kString &&
        l.type() != TypeId::kDouble && r.type() != TypeId::kDouble &&
        !l.has_nulls() && !r.has_nulls()) {
      const auto& lv = l.ints();
      const auto& rv = r.ints();
      for (size_t i = 0; i < lv.size(); ++i) {
        int cmp = lv[i] < rv[i] ? -1 : (lv[i] > rv[i] ? 1 : 0);
        out.AppendInt(ApplyCmp(op_, cmp) ? 1 : 0);
      }
      return out;
    }
    for (size_t i = 0; i < l.size(); ++i) {
      if (l.IsNull(i) || r.IsNull(i)) {
        out.AppendNull();
      } else {
        out.AppendInt(
            ApplyCmp(op_, l.DatumAt(i).Compare(r.DatumAt(i))) ? 1 : 0);
      }
    }
    return out;
  }

  Status Select(const Batch& input, std::vector<uint32_t>* sel) const override {
    if (const ColumnVector* col = KernelInput(input)) {
      kernel_->narrow(*col, pivot_, sel);
      return Status::OK();
    }
    return Expr::Select(input, sel);
  }

  Result<Datum> EvalRow(const Row& row) const override {
    SDW_ASSIGN_OR_RETURN(Datum l, left_->EvalRow(row));
    SDW_ASSIGN_OR_RETURN(Datum r, right_->EvalRow(row));
    if (l.is_null() || r.is_null()) return Datum::Null();
    return Datum::Bool(ApplyCmp(op_, l.Compare(r)));
  }

  std::string ToString() const override {
    return "(" + left_->ToString() + " " + CmpOpName(op_) + " " +
           right_->ToString() + ")";
  }

 private:
  // The integer lane the kernel reads, or null when there is no kernel
  // or the batch has no such lane (the generic path then reports it).
  const ColumnVector* KernelInput(const Batch& input) const {
    if (kernel_ == nullptr || column_ < 0 ||
        static_cast<size_t>(column_) >= input.columns.size()) {
      return nullptr;
    }
    const ColumnVector& col = input.columns[column_];
    return IsIntegerLike(col.type()) ? &col : nullptr;
  }

  CmpOp op_;
  ExprPtr left_;
  ExprPtr right_;
  const IntCmpKernel* kernel_ = nullptr;
  int column_ = -1;
  int64_t pivot_ = 0;
};

enum class BoolOp { kAnd, kOr };

class BoolExpr : public Expr {
 public:
  BoolExpr(BoolOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    SDW_ASSIGN_OR_RETURN(ColumnVector l, left_->EvalBatch(input));
    SDW_ASSIGN_OR_RETURN(ColumnVector r, right_->EvalBatch(input));
    ColumnVector out(TypeId::kBool);
    out.Reserve(l.size());
    for (size_t i = 0; i < l.size(); ++i) {
      const Truth t = Combine(TruthAt(l, i), TruthAt(r, i));
      if (t == Truth::kNull) {
        out.AppendNull();
      } else {
        out.AppendInt(t == Truth::kTrue ? 1 : 0);
      }
    }
    return out;
  }

  // AND keeps the rows both sides keep: two narrowing passes.
  Status Select(const Batch& input, std::vector<uint32_t>* sel) const override {
    if (op_ == BoolOp::kOr) return Expr::Select(input, sel);
    SDW_RETURN_IF_ERROR(left_->Select(input, sel));
    return right_->Select(input, sel);
  }

  Result<Datum> EvalRow(const Row& row) const override {
    SDW_ASSIGN_OR_RETURN(Datum l, left_->EvalRow(row));
    SDW_ASSIGN_OR_RETURN(Datum r, right_->EvalRow(row));
    const Truth t = Combine(TruthOf(l), TruthOf(r));
    return t == Truth::kNull ? Datum::Null() : Datum::Bool(t == Truth::kTrue);
  }

  std::string ToString() const override {
    return "(" + left_->ToString() +
           (op_ == BoolOp::kAnd ? " AND " : " OR ") + right_->ToString() +
           ")";
  }

 private:
  enum class Truth { kFalse, kTrue, kNull };

  // Row i of a boolean operand; a non-integer lane reads as false, as
  // its Datum's int_value() does.
  static Truth TruthAt(const ColumnVector& v, size_t i) {
    if (v.IsNull(i)) return Truth::kNull;
    if (!IsIntegerLike(v.type())) return Truth::kFalse;
    return v.IntAt(i) != 0 ? Truth::kTrue : Truth::kFalse;
  }

  static Truth TruthOf(const Datum& d) {
    if (d.is_null()) return Truth::kNull;
    return d.int_value() != 0 ? Truth::kTrue : Truth::kFalse;
  }

  // SQL three-valued logic.
  Truth Combine(Truth l, Truth r) const {
    if (op_ == BoolOp::kAnd) {
      if (l == Truth::kFalse || r == Truth::kFalse) return Truth::kFalse;
      if (l == Truth::kTrue && r == Truth::kTrue) return Truth::kTrue;
      return Truth::kNull;
    }
    if (l == Truth::kTrue || r == Truth::kTrue) return Truth::kTrue;
    if (l == Truth::kFalse && r == Truth::kFalse) return Truth::kFalse;
    return Truth::kNull;
  }

  BoolOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr input) : input_(std::move(input)) {}

  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    SDW_ASSIGN_OR_RETURN(ColumnVector v, input_->EvalBatch(input));
    ColumnVector out(TypeId::kBool);
    out.Reserve(v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      if (v.IsNull(i)) {
        out.AppendNull();
      } else {
        out.AppendInt(v.IntAt(i) == 0 ? 1 : 0);
      }
    }
    return out;
  }

  Result<Datum> EvalRow(const Row& row) const override {
    SDW_ASSIGN_OR_RETURN(Datum v, input_->EvalRow(row));
    if (v.is_null()) return Datum::Null();
    return Datum::Bool(v.int_value() == 0);
  }

  std::string ToString() const override {
    return "NOT " + input_->ToString();
  }

 private:
  ExprPtr input_;
};

class ArithExpr : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {
    const bool any_double = left_->type() == TypeId::kDouble ||
                            right_->type() == TypeId::kDouble;
    type_ = (any_double || op == ArithOp::kDiv) ? TypeId::kDouble
                                                : TypeId::kInt64;
  }

  TypeId type() const override { return type_; }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    SDW_ASSIGN_OR_RETURN(ColumnVector l, left_->EvalBatch(input));
    SDW_ASSIGN_OR_RETURN(ColumnVector r, right_->EvalBatch(input));
    if (l.type() == TypeId::kString || r.type() == TypeId::kString) {
      return Status::InvalidArgument("arithmetic on strings");
    }
    ColumnVector out(type_);
    out.Reserve(l.size());
    for (size_t i = 0; i < l.size(); ++i) {
      if (l.IsNull(i) || r.IsNull(i)) {
        out.AppendNull();
        continue;
      }
      if (type_ == TypeId::kDouble) {
        double a = l.type() == TypeId::kDouble ? l.DoubleAt(i)
                                               : static_cast<double>(l.IntAt(i));
        double b = r.type() == TypeId::kDouble ? r.DoubleAt(i)
                                               : static_cast<double>(r.IntAt(i));
        out.AppendDouble(ApplyDouble(a, b));
      } else {
        out.AppendInt(ApplyInt(l.IntAt(i), r.IntAt(i)));
      }
    }
    return out;
  }

  Result<Datum> EvalRow(const Row& row) const override {
    SDW_ASSIGN_OR_RETURN(Datum l, left_->EvalRow(row));
    SDW_ASSIGN_OR_RETURN(Datum r, right_->EvalRow(row));
    if (l.is_null() || r.is_null()) return Datum::Null();
    if (l.type() == TypeId::kString || r.type() == TypeId::kString) {
      return Status::InvalidArgument("arithmetic on strings");
    }
    if (type_ == TypeId::kDouble) {
      return Datum::Double(ApplyDouble(l.AsDouble(), r.AsDouble()));
    }
    return Datum::Int64(ApplyInt(l.int_value(), r.int_value()));
  }

  std::string ToString() const override {
    const char* names = "+-*/";
    return "(" + left_->ToString() + " " +
           std::string(1, names[static_cast<int>(op_)]) + " " +
           right_->ToString() + ")";
  }

 private:
  // Integer arithmetic wraps (two's complement) rather than invoking
  // undefined behaviour on overflow.
  int64_t ApplyInt(int64_t a, int64_t b) const {
    const uint64_t ua = static_cast<uint64_t>(a);
    const uint64_t ub = static_cast<uint64_t>(b);
    switch (op_) {
      case ArithOp::kAdd:
        return static_cast<int64_t>(ua + ub);
      case ArithOp::kSub:
        return static_cast<int64_t>(ua - ub);
      case ArithOp::kMul:
        return static_cast<int64_t>(ua * ub);
      case ArithOp::kDiv:
        return b == 0 ? 0 : a / b;  // unreachable: kDiv types as double
    }
    return 0;
  }
  double ApplyDouble(double a, double b) const {
    switch (op_) {
      case ArithOp::kAdd:
        return a + b;
      case ArithOp::kSub:
        return a - b;
      case ArithOp::kMul:
        return a * b;
      case ArithOp::kDiv:
        return b == 0 ? 0.0 : a / b;
    }
    return 0;
  }

  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
  TypeId type_;
};

class IsNullExpr : public Expr {
 public:
  explicit IsNullExpr(ExprPtr input) : input_(std::move(input)) {}

  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    SDW_ASSIGN_OR_RETURN(ColumnVector v, input_->EvalBatch(input));
    ColumnVector out(TypeId::kBool);
    out.Reserve(v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      out.AppendInt(v.IsNull(i) ? 1 : 0);
    }
    return out;
  }

  Result<Datum> EvalRow(const Row& row) const override {
    SDW_ASSIGN_OR_RETURN(Datum v, input_->EvalRow(row));
    return Datum::Bool(v.is_null());
  }

  std::string ToString() const override {
    return input_->ToString() + " IS NULL";
  }

 private:
  ExprPtr input_;
};

class StartsWithExpr : public Expr {
 public:
  StartsWithExpr(ExprPtr input, std::string prefix)
      : input_(std::move(input)), prefix_(std::move(prefix)) {}

  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    SDW_ASSIGN_OR_RETURN(ColumnVector v, input_->EvalBatch(input));
    if (v.type() != TypeId::kString) {
      return Status::InvalidArgument("STARTS WITH on non-string");
    }
    ColumnVector out(TypeId::kBool);
    out.Reserve(v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      if (v.IsNull(i)) {
        out.AppendNull();
      } else {
        out.AppendInt(v.StringAt(i).starts_with(prefix_) ? 1 : 0);
      }
    }
    return out;
  }

  Result<Datum> EvalRow(const Row& row) const override {
    SDW_ASSIGN_OR_RETURN(Datum v, input_->EvalRow(row));
    if (v.is_null()) return Datum::Null();
    if (v.type() != TypeId::kString) {
      return Status::InvalidArgument("STARTS WITH on non-string");
    }
    return Datum::Bool(v.string_value().starts_with(prefix_));
  }

  std::string ToString() const override {
    return input_->ToString() + " LIKE '" + prefix_ + "%'";
  }

 private:
  ExprPtr input_;
  std::string prefix_;
};

}  // namespace

Status Expr::Select(const Batch& input, std::vector<uint32_t>* sel) const {
  if (sel->empty()) return Status::OK();
  SDW_ASSIGN_OR_RETURN(ColumnVector mask, EvalBatch(input));
  if (!IsIntegerLike(mask.type()) || mask.size() != input.num_rows()) {
    return Status::InvalidArgument("predicate is not a boolean expression: " +
                                   ToString());
  }
  const int64_t* bits = mask.ints().data();
  const uint8_t* nulls = mask.nulls().data();
  uint32_t* rows = sel->data();
  size_t kept = 0;
  for (size_t j = 0; j < sel->size(); ++j) {
    const uint32_t i = rows[j];
    rows[kept] = i;
    kept += (nulls[i] == 0) & (bits[i] != 0);
  }
  sel->resize(kept);
  return Status::OK();
}

ExprPtr Col(int index, TypeId type) {
  return std::make_shared<ColExpr>(index, type);
}
ExprPtr Lit(Datum value) { return std::make_shared<LitExpr>(std::move(value)); }
ExprPtr Cmp(CmpOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<CmpExpr>(op, std::move(left), std::move(right));
}
ExprPtr And(ExprPtr left, ExprPtr right) {
  return std::make_shared<BoolExpr>(BoolOp::kAnd, std::move(left),
                                    std::move(right));
}
ExprPtr Or(ExprPtr left, ExprPtr right) {
  return std::make_shared<BoolExpr>(BoolOp::kOr, std::move(left),
                                    std::move(right));
}
ExprPtr Not(ExprPtr input) { return std::make_shared<NotExpr>(std::move(input)); }
ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<ArithExpr>(op, std::move(left), std::move(right));
}
ExprPtr IsNull(ExprPtr input) {
  return std::make_shared<IsNullExpr>(std::move(input));
}
ExprPtr StartsWith(ExprPtr input, std::string prefix) {
  return std::make_shared<StartsWithExpr>(std::move(input),
                                          std::move(prefix));
}

}  // namespace sdw::exec
