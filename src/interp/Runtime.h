//===- interp/Runtime.h - Shared interpreter runtime ------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime semantics both interpreter engines execute: the cell
/// memory model, conversions, binary operators, builtins, sticky failure,
/// step and cost accounting, call-frame entry and exit, and RunResult
/// assembly. The AST walker (interp/Interp.cpp) and the bytecode VM
/// (interp/bytecode/BytecodeVM.cpp) derive from Runtime and keep only
/// their execution cores, so a diagnostic, builtin or operator is defined
/// once for both. The C runtime that backend/CBackend.cpp emits is an
/// independent implementation of the same semantics; NativeDiffTest
/// checks it against this one.
///
/// Everything an engine's hot loop calls is defined in this header, so
/// it stays inlinable into the VM's dispatch() and the walker's
/// evalExpr(); Runtime.cpp holds only once-per-run code.
///
//===----------------------------------------------------------------------===//

#ifndef INTERP_RUNTIME_H
#define INTERP_RUNTIME_H

#include "interp/Interp.h"
#include "support/Prng.h"
#include "support/WrapArith.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace sest::rt {

/// A resolved memory location (one cell).
struct Loc {
  uint32_t Space = 0;
  int64_t Offset = 0;
};

class Runtime {
public:
  /// Executes the program: sizes the profile, lays out the string
  /// segment, lets the engine run the global initializers and main, and
  /// assembles the RunResult.
  RunResult run();

protected:
  Runtime(const TranslationUnit &Unit, const CfgModule &Cfgs,
          const ProgramInput &Input, const InterpOptions &Options)
      : Unit(Unit), Cfgs(Cfgs), Input(Input), Options(Options),
        Rng(Input.RandSeed) {}
  ~Runtime() = default;

  //===--------------------------------------------------------------------===//
  // Engine hooks, each called once per run.
  //===--------------------------------------------------------------------===//

  /// Runs the global initializers in declaration order (the string
  /// segment is already laid out).
  virtual void initGlobals() = 0;
  /// Calls \p Main, which takes no parameters, and returns its value.
  virtual Value callMain(const FunctionDecl *Main) = 0;
  /// Adds the engine's own counters to the run's telemetry flush.
  virtual void flushEngineTelemetry() const {}

  //===--------------------------------------------------------------------===//
  // Failure handling (no exceptions: a sticky flag short-circuits).
  //===--------------------------------------------------------------------===//

  Value fail(const std::string &Message) {
    if (!Failed && !Exited) {
      Failed = true;
      ErrorMsg = Message;
    }
    return Value::makeInt(0);
  }

  /// A resource-limit abort: records which limit was hit and appends the
  /// run's high-water marks to the diagnostic.
  Value failLimit(RunLimit Limit, const std::string &Message) {
    if (!Failed && !Exited) {
      LimitHit = Limit;
      fail(Message + " (" + usageSummary() + ")");
    }
    return Value::makeInt(0);
  }

  std::string usageSummary() const {
    return "steps " + std::to_string(Steps) + ", call-depth high-water " +
           std::to_string(CallDepthHighWater) + ", heap high-water " +
           std::to_string(HeapHighWater) + " cells";
  }

  bool halted() const { return Failed || Exited; }

  //===--------------------------------------------------------------------===//
  // Memory
  //===--------------------------------------------------------------------===//

  struct HeapBlock {
    std::vector<Value> Cells;
    bool Freed = false;
  };

  Value *resolve(Loc L, const char *What) {
    switch (L.Space) {
    case static_cast<uint32_t>(MemSpace::Null):
      fail(std::string("null pointer ") + What);
      return nullptr;
    case static_cast<uint32_t>(MemSpace::Global):
      if (L.Offset < 0 || L.Offset >= static_cast<int64_t>(Globals.size())) {
        fail(std::string("global ") + What + " out of bounds");
        return nullptr;
      }
      return &Globals[L.Offset];
    case static_cast<uint32_t>(MemSpace::Stack):
      if (L.Offset < 0 || L.Offset >= static_cast<int64_t>(Stack.size())) {
        fail(std::string("stack ") + What + " out of bounds");
        return nullptr;
      }
      return &Stack[L.Offset];
    default: {
      size_t Idx = L.Space - static_cast<uint32_t>(MemSpace::HeapBase);
      if (Idx >= Heap.size()) {
        fail(std::string("wild pointer ") + What);
        return nullptr;
      }
      HeapBlock &B = Heap[Idx];
      if (B.Freed) {
        fail(std::string("use-after-free ") + What);
        return nullptr;
      }
      if (L.Offset < 0 || L.Offset >= static_cast<int64_t>(B.Cells.size())) {
        fail(std::string("heap ") + What + " out of bounds");
        return nullptr;
      }
      return &B.Cells[L.Offset];
    }
    }
  }

  Value loadCell(Loc L) {
    Value *P = resolve(L, "read");
    return P ? *P : Value::makeInt(0);
  }
  void storeCell(Loc L, Value V) {
    if (Value *P = resolve(L, "write"))
      *P = V;
  }
  /// Copies \p N cells from \p Src to \p Dst (struct assignment / struct
  /// arguments).
  void copyCells(Loc Dst, Loc Src, int64_t N) {
    for (int64_t I = 0; I < N && !halted(); ++I) {
      Value V = loadCell({Src.Space, Src.Offset + I});
      storeCell({Dst.Space, Dst.Offset + I}, V);
    }
  }
  void zeroCells(Loc Base, int64_t N) {
    for (int64_t I = 0; I < N; ++I)
      storeCell({Base.Space, Base.Offset + I}, Value::makeInt(0));
  }

  static Loc locOf(const Value &V) { return {V.PtrVal.Space, V.PtrVal.Offset}; }

  Loc varLoc(const VarDecl *V) const {
    if (V->storage() == StorageKind::Global)
      return {static_cast<uint32_t>(MemSpace::Global), V->cellOffset()};
    return {static_cast<uint32_t>(MemSpace::Stack),
            FrameBase + V->cellOffset()};
  }

  Loc stringLoc(uint32_t StringId) const {
    return {static_cast<uint32_t>(MemSpace::Global), StringBase[StringId]};
  }

  //===--------------------------------------------------------------------===//
  // Conversions
  //===--------------------------------------------------------------------===//

  /// Converts \p V to the representation of static type \p Ty (assignment,
  /// argument passing, return, cast).
  Value convert(Value V, const Type *Ty) {
    if (!Ty)
      return V;
    switch (Ty->kind()) {
    case TypeKind::Int:
    case TypeKind::Char:
      return Value::makeInt(V.asInt());
    case TypeKind::Double:
      return Value::makeDouble(V.asDouble());
    case TypeKind::Pointer: {
      const Type *Pointee = typeCast<PointerType>(Ty)->pointee();
      if (Pointee->isFunction()) {
        if (V.isFnPtr())
          return V;
        if (V.isInt() && V.IntVal == 0)
          return Value::makeFn(nullptr);
        if (V.isPtr() && V.PtrVal.isNull())
          return Value::makeFn(nullptr);
        return V; // tolerated; call-through will diagnose
      }
      if (V.isPtr())
        return V;
      if (V.isInt())
        return V.IntVal == 0
                   ? Value::makeNull()
                   : Value::makePtr(
                         {static_cast<uint32_t>(MemSpace::Null), V.IntVal});
      return V;
    }
    default:
      return V;
    }
  }

  //===--------------------------------------------------------------------===//
  // Cost / step accounting
  //===--------------------------------------------------------------------===//

  void tick() {
    ++Steps;
    if (CurSelfSteps)
      ++*CurSelfSteps;
    Cycles += CostFactor;
    if (Steps > Options.MaxSteps)
      failStepLimit();
  }

  /// Out of line and cold, so tick() stays a handful of instructions.
  [[gnu::cold, gnu::noinline]] void failStepLimit() {
    failLimit(RunLimit::Steps, "execution step limit exceeded (MaxSteps=" +
                                   std::to_string(Options.MaxSteps) + ")");
  }

  double factorFor(const FunctionDecl *F) const {
    return Options.OptimizedFunctions.count(F) ? Options.OptimizedCostFactor
                                               : 1.0;
  }

  //===--------------------------------------------------------------------===//
  // Binary operators
  //===--------------------------------------------------------------------===//

  /// Applies \p Op (never && or ||, which both engines evaluate as
  /// control flow). \p ResultStride scales the integer operand of pointer
  /// +/-; \p LhsStride divides a pointer difference. Forced inline: gcc
  /// does not inline a member this large on its own, and a call per BinOp
  /// costs the VM's dispatch loop about a tenth of its speed.
  [[gnu::always_inline]] Value applyBinary(BinaryOp Op, Value L, Value R, int64_t ResultStride,
                    int64_t LhsStride) {
    switch (Op) {
    case BinaryOp::Add: {
      if (L.isPtr() || R.isPtr()) {
        Value P = L.isPtr() ? L : R;
        Value N = L.isPtr() ? R : L;
        RuntimePtr Out = P.PtrVal;
        Out.Offset = wrapAdd(Out.Offset, wrapMul(N.asInt(), ResultStride));
        return Value::makePtr(Out);
      }
      if (L.isDouble() || R.isDouble())
        return Value::makeDouble(L.asDouble() + R.asDouble());
      return Value::makeInt(wrapAdd(L.asInt(), R.asInt()));
    }
    case BinaryOp::Sub: {
      if (L.isPtr() && R.isPtr()) {
        if (L.PtrVal.Space != R.PtrVal.Space)
          return fail("subtracting pointers into different objects");
        return Value::makeInt((L.PtrVal.Offset - R.PtrVal.Offset) /
                              LhsStride);
      }
      if (L.isPtr()) {
        RuntimePtr Out = L.PtrVal;
        Out.Offset = wrapSub(Out.Offset, wrapMul(R.asInt(), ResultStride));
        return Value::makePtr(Out);
      }
      if (L.isDouble() || R.isDouble())
        return Value::makeDouble(L.asDouble() - R.asDouble());
      return Value::makeInt(wrapSub(L.asInt(), R.asInt()));
    }
    case BinaryOp::Mul:
      if (L.isDouble() || R.isDouble())
        return Value::makeDouble(L.asDouble() * R.asDouble());
      return Value::makeInt(wrapMul(L.asInt(), R.asInt()));
    case BinaryOp::Div:
      if (L.isDouble() || R.isDouble()) {
        double D = R.asDouble();
        if (D == 0.0)
          return fail("floating division by zero");
        return Value::makeDouble(L.asDouble() / D);
      }
      if (R.asInt() == 0)
        return fail("integer division by zero");
      if (isQuotientOverflow(L.asInt(), R.asInt()))
        return fail("integer division overflow");
      return Value::makeInt(L.asInt() / R.asInt());
    case BinaryOp::Rem:
      if (R.asInt() == 0)
        return fail("integer remainder by zero");
      if (isQuotientOverflow(L.asInt(), R.asInt()))
        return fail("integer remainder overflow");
      return Value::makeInt(L.asInt() % R.asInt());
    case BinaryOp::Shl: {
      int64_t Sh = R.asInt();
      if (Sh < 0 || Sh > 63)
        return fail("shift amount out of range");
      return Value::makeInt(static_cast<int64_t>(
          static_cast<uint64_t>(L.asInt()) << Sh));
    }
    case BinaryOp::Shr: {
      int64_t Sh = R.asInt();
      if (Sh < 0 || Sh > 63)
        return fail("shift amount out of range");
      return Value::makeInt(L.asInt() >> Sh);
    }
    case BinaryOp::BitAnd:
      return Value::makeInt(L.asInt() & R.asInt());
    case BinaryOp::BitOr:
      return Value::makeInt(L.asInt() | R.asInt());
    case BinaryOp::BitXor:
      return Value::makeInt(L.asInt() ^ R.asInt());
    case BinaryOp::Lt:
    case BinaryOp::Gt:
    case BinaryOp::Le:
    case BinaryOp::Ge: {
      double Cmp;
      if (L.isPtr() && R.isPtr()) {
        if (L.PtrVal.Space != R.PtrVal.Space)
          Cmp = L.PtrVal.Space < R.PtrVal.Space ? -1 : 1;
        else
          Cmp = L.PtrVal.Offset < R.PtrVal.Offset
                    ? -1
                    : (L.PtrVal.Offset > R.PtrVal.Offset ? 1 : 0);
      } else if (L.isDouble() || R.isDouble()) {
        double A = L.asDouble(), B = R.asDouble();
        Cmp = A < B ? -1 : (A > B ? 1 : 0);
      } else {
        int64_t A = L.asInt(), B = R.asInt();
        Cmp = A < B ? -1 : (A > B ? 1 : 0);
      }
      bool Result = false;
      switch (Op) {
      case BinaryOp::Lt:
        Result = Cmp < 0;
        break;
      case BinaryOp::Gt:
        Result = Cmp > 0;
        break;
      case BinaryOp::Le:
        Result = Cmp <= 0;
        break;
      case BinaryOp::Ge:
        Result = Cmp >= 0;
        break;
      default:
        break;
      }
      return Value::makeInt(Result ? 1 : 0);
    }
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      bool Equal;
      if (L.isPtr() && R.isPtr())
        Equal = L.PtrVal == R.PtrVal;
      else if (L.isFnPtr() || R.isFnPtr())
        Equal = L.isFnPtr() && R.isFnPtr() ? L.FnVal == R.FnVal
                : (L.isFnPtr() ? L.FnVal == nullptr && !R.isTruthy()
                               : R.FnVal == nullptr && !L.isTruthy());
      else if (L.isPtr() || R.isPtr()) {
        // Pointer vs integer: equal iff both are "null-ish zero".
        const Value &P = L.isPtr() ? L : R;
        const Value &N = L.isPtr() ? R : L;
        Equal = P.PtrVal.isNull() && N.asInt() == 0;
      } else if (L.isDouble() || R.isDouble())
        Equal = L.asDouble() == R.asDouble();
      else
        Equal = L.asInt() == R.asInt();
      return Value::makeInt((Op == BinaryOp::Eq) == Equal ? 1 : 0);
    }
    case BinaryOp::LogicalAnd:
    case BinaryOp::LogicalOr:
      break;
    }
    return Value::makeInt(0);
  }

  //===--------------------------------------------------------------------===//
  // Builtins
  //===--------------------------------------------------------------------===//

  /// Executes builtin \p F on \p NArgs argument values. Arity is checked
  /// by sema; the guard keeps a malformed unit from reading past \p Args.
  Value callBuiltin(const FunctionDecl *F, const Value *Args, size_t NArgs) {
    auto Arg = [&](size_t I) {
      return I < NArgs ? Args[I] : Value::makeInt(0);
    };
    switch (F->builtin()) {
    case BuiltinKind::PrintInt:
      Output += std::to_string(Arg(0).asInt());
      return Value::makeInt(0);
    case BuiltinKind::PrintChar:
      Output += static_cast<char>(Arg(0).asInt());
      return Value::makeInt(0);
    case BuiltinKind::PrintStr: {
      Value A0 = Arg(0);
      if (!A0.isPtr())
        return fail("print_str expects a string pointer");
      RuntimePtr P = A0.PtrVal;
      for (int64_t I = 0; I < (1 << 20); ++I) {
        Value C = loadCell({P.Space, P.Offset + I});
        if (halted())
          return Value::makeInt(0);
        int64_t Ch = C.asInt();
        if (Ch == 0)
          return Value::makeInt(0);
        Output += static_cast<char>(Ch);
      }
      return fail("unterminated string passed to print_str");
    }
    case BuiltinKind::PrintDouble: {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.6g", Arg(0).asDouble());
      Output += Buf;
      return Value::makeInt(0);
    }
    case BuiltinKind::ReadInt:
      return Value::makeInt(readIntFromInput());
    case BuiltinKind::ReadChar:
      return Value::makeInt(readCharFromInput());
    case BuiltinKind::Malloc: {
      int64_t N = Arg(0).asInt();
      if (N <= 0)
        return Value::makeNull();
      if (HeapCellsUsed + N > Options.MaxHeapCells)
        return failLimit(RunLimit::HeapCells,
                         "heap limit exceeded (MaxHeapCells=" +
                             std::to_string(Options.MaxHeapCells) + ")");
      HeapCellsUsed += N;
      HeapHighWater = std::max(HeapHighWater, HeapCellsUsed);
      Heap.push_back(HeapBlock{std::vector<Value>(N, Value::makeInt(0)),
                               false});
      return Value::makePtr(
          {static_cast<uint32_t>(MemSpace::HeapBase) +
               static_cast<uint32_t>(Heap.size() - 1),
           0});
    }
    case BuiltinKind::Free: {
      Value A0 = Arg(0);
      if (!A0.isPtr())
        return fail("free of a non-pointer value");
      RuntimePtr P = A0.PtrVal;
      if (P.isNull())
        return Value::makeInt(0);
      size_t Idx = P.Space - static_cast<uint32_t>(MemSpace::HeapBase);
      if (P.Space < static_cast<uint32_t>(MemSpace::HeapBase) ||
          Idx >= Heap.size() || P.Offset != 0)
        return fail("free of a non-heap pointer");
      if (Heap[Idx].Freed)
        return fail("double free");
      HeapCellsUsed -= static_cast<int64_t>(Heap[Idx].Cells.size());
      Heap[Idx].Freed = true;
      Heap[Idx].Cells.clear();
      Heap[Idx].Cells.shrink_to_fit();
      return Value::makeInt(0);
    }
    case BuiltinKind::Abort:
      return fail("abort() called");
    case BuiltinKind::Exit:
      Exited = true;
      ExitVal = Arg(0).asInt();
      return Value::makeInt(0);
    case BuiltinKind::Rand:
      return Value::makeInt(static_cast<int64_t>(Rng.next() >> 33));
    case BuiltinKind::Srand:
      Rng = Prng(static_cast<uint64_t>(Arg(0).asInt()));
      return Value::makeInt(0);
    case BuiltinKind::Sqrt: {
      double D = Arg(0).asDouble();
      if (D < 0)
        return fail("sqrt of a negative number");
      return Value::makeDouble(std::sqrt(D));
    }
    case BuiltinKind::Fabs:
      return Value::makeDouble(std::fabs(Arg(0).asDouble()));
    case BuiltinKind::Floor:
      return Value::makeDouble(std::floor(Arg(0).asDouble()));
    case BuiltinKind::None:
      break;
    }
    return fail("unknown builtin '" + F->name() + "'");
  }

  int readCharFromInput() {
    if (InPos >= Input.Text.size())
      return -1;
    return static_cast<unsigned char>(Input.Text[InPos++]);
  }

  /// Reads an optionally negative decimal integer after leading white
  /// space; -1 at end of input or when no digit follows. Accumulates
  /// unsigned, so an out-of-range literal wraps modulo 2^64 instead of
  /// overflowing a signed value.
  int64_t readIntFromInput() {
    while (InPos < Input.Text.size() &&
           std::isspace(static_cast<unsigned char>(Input.Text[InPos])))
      ++InPos;
    if (InPos >= Input.Text.size())
      return -1;
    bool Neg = false;
    if (Input.Text[InPos] == '-') {
      Neg = true;
      ++InPos;
    }
    bool Any = false;
    uint64_t V = 0;
    while (InPos < Input.Text.size() &&
           std::isdigit(static_cast<unsigned char>(Input.Text[InPos]))) {
      V = V * 10 + static_cast<uint64_t>(Input.Text[InPos] - '0');
      ++InPos;
      Any = true;
    }
    if (!Any)
      return -1;
    return static_cast<int64_t>(Neg ? 0 - V : V);
  }

  //===--------------------------------------------------------------------===//
  // Call frames
  //===--------------------------------------------------------------------===//

  /// The caller state enterFrame replaces and leaveFrame restores.
  struct SavedFrame {
    int64_t FrameBase = 0;
    double CostFactor = 1.0;
    uint64_t *SelfSteps = nullptr;
  };

  /// Call entry shared by both engines: checks the call-depth and
  /// host-stack budgets and that \p F is \p Defined, counts the entry,
  /// checks the frame limit, then pushes a zeroed frame for \p F and
  /// switches cost factor and self-step row to it. Returns false, with
  /// the run failed, when the call cannot proceed; otherwise the caller
  /// binds parameters, runs the body and calls leaveFrame(\p Saved).
  bool enterFrame(const FunctionDecl *F, bool Defined, SavedFrame &Saved) {
    if (CallDepth >= Options.MaxCallDepth)
      return refuseCall(RunLimit::CallDepth, F);
    // Both engines recurse on the host stack (the walker per expression
    // level, the VM per mini-C call); on large-frame builds the host
    // stack can overflow long before MaxCallDepth, so budget it directly.
    char HostStackProbe;
    uintptr_t Here = reinterpret_cast<uintptr_t>(&HostStackProbe);
    size_t Used = HostStackBase > Here ? HostStackBase - Here
                                       : Here - HostStackBase;
    if (Used > Options.MaxHostStackBytes)
      return refuseCall(RunLimit::HostStack, F);
    if (!Defined)
      return refuseCall(RunLimit::None, F);

    Prof.Functions[F->functionId()].EntryCount += 1;
    ++LayoutCost.Calls;
    if (Stack.size() + F->frameSizeCells() > (1u << 24))
      return refuseCall(RunLimit::HostFrame, F);

    Saved = {FrameBase, CostFactor, CurSelfSteps};
    FrameBase = static_cast<int64_t>(Stack.size());
    Stack.resize(Stack.size() + F->frameSizeCells(), Value::makeInt(0));
    CostFactor = factorFor(F);
    if (F->functionId() < SelfSteps.size())
      CurSelfSteps = &SelfSteps[F->functionId()];
    ++CallDepth;
    CallDepthHighWater = std::max(CallDepthHighWater, CallDepth);
    return true;
  }

  /// Fails the run for a call to \p F that enterFrame refuses: \p Limit
  /// is the limit it hit, or RunLimit::None when \p F is undefined.
  /// Returns false. Out of line and cold, like failStepLimit, so the
  /// diagnostics stay off the call path.
  [[gnu::cold, gnu::noinline]] bool refuseCall(RunLimit Limit, const FunctionDecl *F) {
    switch (Limit) {
    case RunLimit::CallDepth:
      failLimit(Limit, "call depth limit exceeded in '" + F->name() +
                           "' (MaxCallDepth=" +
                           std::to_string(Options.MaxCallDepth) + ")");
      break;
    case RunLimit::HostStack:
      failLimit(Limit, "call depth limit exceeded in '" + F->name() +
                           "' (host stack budget, MaxHostStackBytes=" +
                           std::to_string(Options.MaxHostStackBytes) + ")");
      break;
    case RunLimit::HostFrame:
      failLimit(Limit, "stack overflow in '" + F->name() + "'");
      break;
    default:
      fail("call to undefined function '" + F->name() + "'");
      break;
    }
    return false;
  }

  void leaveFrame(const SavedFrame &Saved) {
    --CallDepth;
    CostFactor = Saved.CostFactor;
    CurSelfSteps = Saved.SelfSteps;
    Stack.resize(FrameBase);
    FrameBase = Saved.FrameBase;
  }

  //===--------------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------------===//

  const TranslationUnit &Unit;
  const CfgModule &Cfgs;
  const ProgramInput &Input;
  const InterpOptions &Options;

  std::vector<Value> Globals;
  std::vector<Value> Stack;
  std::vector<HeapBlock> Heap;
  int64_t HeapCellsUsed = 0;
  int64_t HeapHighWater = 0;
  std::vector<int64_t> StringBase;
  int64_t FrameBase = 0;
  unsigned CallDepth = 0;
  unsigned CallDepthHighWater = 0;
  RunLimit LimitHit = RunLimit::None;
  /// Per-function self step counts (steps taken while the function's own
  /// frame is active, excluding callees), indexed by function id.
  std::vector<uint64_t> SelfSteps;
  uint64_t *CurSelfSteps = nullptr;

  LayoutCostCounters LayoutCost;

  Profile Prof;
  std::string Output;

  bool Failed = false;
  bool Exited = false;
  std::string ErrorMsg;
  int64_t ExitVal = 0;

  uint64_t Steps = 0;
  double Cycles = 0;
  double CostFactor = 1.0;

  size_t InPos = 0;
  Prng Rng;
  /// Host-stack anchor captured at run() entry; see
  /// InterpOptions::MaxHostStackBytes.
  uintptr_t HostStackBase = 0;

private:
  void setupGlobals();
  void flushTelemetry() const;
};

} // namespace sest::rt

#endif // INTERP_RUNTIME_H
