//===- estimators/LoopBounds.cpp - Constant trip-count detection -----------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "estimators/LoopBounds.h"

#include "lang/ConstFold.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace sest;

namespace {

/// The variable declared/assigned by the for-initializer, with its
/// constant initial value.
struct Induction {
  const VarDecl *Var = nullptr;
  int64_t Start = 0;
};

std::optional<Induction> initInfo(const Stmt *Init) {
  if (!Init)
    return std::nullopt;
  if (const auto *D = stmtDynCast<DeclStmt>(Init)) {
    const VarDecl *V = D->var();
    if (!V->init() || !V->type()->isIntegral())
      return std::nullopt;
    auto C = foldIntConstant(V->init());
    if (!C)
      return std::nullopt;
    return Induction{V, *C};
  }
  if (const auto *E = stmtDynCast<ExprStmt>(Init)) {
    const auto *A = exprDynCast<AssignExpr>(E->expr());
    if (!A || A->compoundOp())
      return std::nullopt;
    const auto *Ref = exprDynCast<DeclRefExpr>(A->lhs());
    if (!Ref)
      return std::nullopt;
    const auto *V = declDynCast<VarDecl>(Ref->decl());
    if (!V || !V->type()->isIntegral())
      return std::nullopt;
    auto C = foldIntConstant(A->rhs());
    if (!C)
      return std::nullopt;
    return Induction{V, *C};
  }
  return std::nullopt;
}

/// Matches "V op Const" or "Const op V"; normalizes so V is on the left.
struct Bound {
  BinaryOp Op;
  int64_t Limit;
};

std::optional<Bound> boundInfo(const Expr *Cond, const VarDecl *V) {
  const auto *B = exprDynCast<BinaryExpr>(Cond);
  if (!B || !isComparisonOp(B->op()))
    return std::nullopt;

  auto IsVar = [V](const Expr *E) {
    const auto *Ref = exprDynCast<DeclRefExpr>(E);
    return Ref && Ref->decl() == static_cast<const Decl *>(V);
  };

  if (IsVar(B->lhs())) {
    auto C = foldIntConstant(B->rhs());
    if (!C)
      return std::nullopt;
    return Bound{B->op(), *C};
  }
  if (IsVar(B->rhs())) {
    auto C = foldIntConstant(B->lhs());
    if (!C)
      return std::nullopt;
    // "C op V"  ≡  "V mirrored-op C".
    BinaryOp Mirrored;
    switch (B->op()) {
    case BinaryOp::Lt:
      Mirrored = BinaryOp::Gt;
      break;
    case BinaryOp::Le:
      Mirrored = BinaryOp::Ge;
      break;
    case BinaryOp::Gt:
      Mirrored = BinaryOp::Lt;
      break;
    case BinaryOp::Ge:
      Mirrored = BinaryOp::Le;
      break;
    default:
      return std::nullopt;
    }
    return Bound{Mirrored, *C};
  }
  return std::nullopt;
}

/// The constant signed step applied to V by the for-step expression.
std::optional<int64_t> stepInfo(const Expr *Step, const VarDecl *V) {
  auto IsVar = [V](const Expr *E) {
    const auto *Ref = exprDynCast<DeclRefExpr>(E);
    return Ref && Ref->decl() == static_cast<const Decl *>(V);
  };
  if (const auto *U = exprDynCast<UnaryExpr>(Step)) {
    if (!IsVar(U->operand()))
      return std::nullopt;
    switch (U->op()) {
    case UnaryOp::PreInc:
    case UnaryOp::PostInc:
      return 1;
    case UnaryOp::PreDec:
    case UnaryOp::PostDec:
      return -1;
    default:
      return std::nullopt;
    }
  }
  if (const auto *A = exprDynCast<AssignExpr>(Step)) {
    if (!IsVar(A->lhs()) || !A->compoundOp())
      return std::nullopt;
    auto C = foldIntConstant(A->rhs());
    if (!C)
      return std::nullopt;
    if (*A->compoundOp() == BinaryOp::Add)
      return *C;
    // "i -= INT64_MIN" has no positive counterpart: not counted.
    if (*A->compoundOp() == BinaryOp::Sub &&
        *C != std::numeric_limits<int64_t>::min())
      return -*C;
  }
  return std::nullopt;
}

/// True when any statement below \p S writes \p V.
bool bodyWritesVar(const Stmt *S, const VarDecl *V) {
  if (!S)
    return false;

  auto ExprWrites = [V](const Expr *E, auto &&Self) -> bool {
    if (!E)
      return false;
    auto IsVar = [V](const Expr *X) {
      const auto *Ref = exprDynCast<DeclRefExpr>(X);
      return Ref && Ref->decl() == static_cast<const Decl *>(V);
    };
    switch (E->kind()) {
    case ExprKind::Assign: {
      const auto *A = exprCast<AssignExpr>(E);
      if (IsVar(A->lhs()))
        return true;
      return Self(A->lhs(), Self) || Self(A->rhs(), Self);
    }
    case ExprKind::Unary: {
      const auto *U = exprCast<UnaryExpr>(E);
      bool Mutating = U->op() == UnaryOp::PreInc ||
                      U->op() == UnaryOp::PreDec ||
                      U->op() == UnaryOp::PostInc ||
                      U->op() == UnaryOp::PostDec;
      // Taking the address of the induction variable may alias it.
      bool Escapes = U->op() == UnaryOp::AddrOf && IsVar(U->operand());
      if ((Mutating && IsVar(U->operand())) || Escapes)
        return true;
      return Self(U->operand(), Self);
    }
    case ExprKind::Binary: {
      const auto *B = exprCast<BinaryExpr>(E);
      return Self(B->lhs(), Self) || Self(B->rhs(), Self);
    }
    case ExprKind::Conditional: {
      const auto *C = exprCast<ConditionalExpr>(E);
      return Self(C->cond(), Self) || Self(C->trueExpr(), Self) ||
             Self(C->falseExpr(), Self);
    }
    case ExprKind::Call: {
      const auto *C = exprCast<CallExpr>(E);
      for (const Expr *A : C->args())
        if (Self(A, Self))
          return true;
      return !C->directCallee() && Self(C->callee(), Self);
    }
    case ExprKind::Index: {
      const auto *I = exprCast<IndexExpr>(E);
      return Self(I->base(), Self) || Self(I->index(), Self);
    }
    case ExprKind::Member:
      return Self(exprCast<MemberExpr>(E)->base(), Self);
    case ExprKind::Cast:
      return Self(exprCast<CastExpr>(E)->operand(), Self);
    default:
      return false;
    }
  };

  switch (S->kind()) {
  case StmtKind::Expr:
    return ExprWrites(stmtCast<ExprStmt>(S)->expr(), ExprWrites);
  case StmtKind::Decl: {
    const VarDecl *D = stmtCast<DeclStmt>(S)->var();
    return D->init() && ExprWrites(D->init(), ExprWrites);
  }
  case StmtKind::Compound:
    for (const Stmt *C : stmtCast<CompoundStmt>(S)->body())
      if (bodyWritesVar(C, V))
        return true;
    return false;
  case StmtKind::If: {
    const auto *I = stmtCast<IfStmt>(S);
    return ExprWrites(I->cond(), ExprWrites) ||
           bodyWritesVar(I->thenStmt(), V) ||
           bodyWritesVar(I->elseStmt(), V);
  }
  case StmtKind::While: {
    const auto *W = stmtCast<WhileStmt>(S);
    return ExprWrites(W->cond(), ExprWrites) || bodyWritesVar(W->body(), V);
  }
  case StmtKind::DoWhile: {
    const auto *D = stmtCast<DoWhileStmt>(S);
    return ExprWrites(D->cond(), ExprWrites) || bodyWritesVar(D->body(), V);
  }
  case StmtKind::For: {
    const auto *F = stmtCast<ForStmt>(S);
    return bodyWritesVar(F->init(), V) ||
           (F->cond() && ExprWrites(F->cond(), ExprWrites)) ||
           (F->step() && ExprWrites(F->step(), ExprWrites)) ||
           bodyWritesVar(F->body(), V);
  }
  case StmtKind::Switch: {
    const auto *Sw = stmtCast<SwitchStmt>(S);
    return ExprWrites(Sw->cond(), ExprWrites) ||
           bodyWritesVar(Sw->body(), V);
  }
  case StmtKind::Return: {
    const auto *R = stmtCast<ReturnStmt>(S);
    return R->value() && ExprWrites(R->value(), ExprWrites);
  }
  default:
    return false;
  }
}

} // namespace

std::optional<double> sest::constantTripCount(const ForStmt *S,
                                              double MaxTrips) {
  if (!S->cond() || !S->step())
    return std::nullopt;
  auto Init = initInfo(S->init());
  if (!Init)
    return std::nullopt;
  auto B = boundInfo(S->cond(), Init->Var);
  if (!B)
    return std::nullopt;
  auto Step = stepInfo(S->step(), Init->Var);
  if (!Step || *Step == 0)
    return std::nullopt;
  if (bodyWritesVar(S->body(), Init->Var))
    return std::nullopt;

  // Normalize everything to an upward count, in 128 bits: negating
  // INT64_MIN, or the span of two 64-bit bounds, need not fit in 64.
  __int128 Start = Init->Start;
  __int128 Limit = B->Limit;
  __int128 Stride = *Step;
  BinaryOp Op = B->Op;
  if (Stride < 0) {
    // "for (i = hi; i > lo; i -= s)"  ≡  count from -hi up to -lo.
    Start = -Start;
    Limit = -Limit;
    Stride = -Stride;
    if (Op == BinaryOp::Gt)
      Op = BinaryOp::Lt;
    else if (Op == BinaryOp::Ge)
      Op = BinaryOp::Le;
    else
      return std::nullopt; // "i < lo" with a negative step: not counted
  } else if (Op != BinaryOp::Lt && Op != BinaryOp::Le) {
    return std::nullopt; // "i > hi" with a positive step: not counted
  }

  __int128 Span = Limit - Start + (Op == BinaryOp::Le ? 1 : 0);
  if (Span <= 0)
    return 0.0;
  double Trips = std::ceil(static_cast<double>(Span) /
                           static_cast<double>(Stride));
  return std::min(Trips, MaxTrips);
}
