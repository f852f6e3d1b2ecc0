#ifndef SDW_EXEC_EXPR_H_
#define SDW_EXEC_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/types.h"
#include "common/result.h"
#include "exec/batch.h"

namespace sdw::exec {

/// Comparison operators.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Arithmetic operators.
enum class ArithOp { kAdd, kSub, kMul, kDiv };

/// A typed scalar expression. Every expression supports both a
/// vectorized batch evaluation (the "compiled" engine's path) and a
/// row-at-a-time evaluation (the interpreted Volcano path used by the
/// compilation-tradeoff experiment, A5).
class Expr {
 public:
  virtual ~Expr() = default;

  /// Result type of this expression.
  virtual TypeId type() const = 0;

  /// Vectorized evaluation over a whole batch.
  virtual Result<ColumnVector> EvalBatch(const Batch& input) const = 0;

  /// Narrows `sel`, ascending row indexes into `input`, to the rows
  /// where this boolean expression is TRUE (NULL is not selected): the
  /// filter's selection-vector path. The default narrows by EvalBatch's
  /// mask; a column compared with an integer literal runs a typed
  /// kernel picked at construction, and AND narrows by each side in
  /// turn.
  virtual Status Select(const Batch& input, std::vector<uint32_t>* sel) const;

  /// Scalar evaluation of one row (virtual-dispatch per value — the
  /// "general-purpose executor functions" the paper contrasts with
  /// compiled execution).
  virtual Result<Datum> EvalRow(const Row& row) const = 0;

  /// SQL-ish rendering.
  virtual std::string ToString() const = 0;
};

using ExprPtr = std::shared_ptr<const Expr>;

/// Reference to input column `index` of the given type.
ExprPtr Col(int index, TypeId type);

/// Constant.
ExprPtr Lit(Datum value);

/// Comparison producing a BOOLEAN (NULL when either side is NULL).
ExprPtr Cmp(CmpOp op, ExprPtr left, ExprPtr right);

/// Boolean conjunction/disjunction/negation (SQL three-valued logic).
ExprPtr And(ExprPtr left, ExprPtr right);
ExprPtr Or(ExprPtr left, ExprPtr right);
ExprPtr Not(ExprPtr input);

/// Arithmetic. Integer op integer -> BIGINT (div -> DOUBLE); any double
/// operand -> DOUBLE.
ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right);

/// True when the argument is NULL.
ExprPtr IsNull(ExprPtr input);

/// String prefix test (the LIKE 'abc%' fast path).
ExprPtr StartsWith(ExprPtr input, std::string prefix);

}  // namespace sdw::exec

#endif  // SDW_EXEC_EXPR_H_
