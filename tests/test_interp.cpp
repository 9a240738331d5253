//===- tests/test_interp.cpp - Interpreter unit tests ----------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "backend/Native.h"

#include <gtest/gtest.h>

using namespace sest;
using namespace sest::test;

namespace {

/// The engines the runtime tests cover: the walker, the bytecode VM, and
/// the native tier where this host can build it (NativeDiffTest skips the
/// same way).
std::vector<InterpEngine> testEngines() {
  std::vector<InterpEngine> Engines = {InterpEngine::Ast,
                                       InterpEngine::Bytecode};
  if (backend::nativeEngineAvailable())
    Engines.push_back(InterpEngine::Native);
  return Engines;
}

/// Runs \p Source on \p InputText under every engine and requires each
/// run's Ok, Error, ExitCode, StepsExecuted and Output to equal the
/// walker's byte for byte. Returns the walker's result.
RunResult runOnEveryEngine(const std::string &Source,
                           const std::string &InputText = "") {
  auto C = compile(Source);
  if (!C)
    return {};
  ProgramInput In;
  In.Text = InputText;
  RunResult Walker;
  for (InterpEngine Engine : testEngines()) {
    InterpOptions Opts;
    Opts.Engine = Engine;
    RunResult R = runProgram(C->unit(), *C->Cfgs, In, Opts);
    if (Engine == InterpEngine::Ast) {
      Walker = R;
      continue;
    }
    const char *Name = interpEngineName(Engine);
    EXPECT_EQ(R.Ok, Walker.Ok) << Name;
    EXPECT_EQ(R.Error, Walker.Error) << Name;
    EXPECT_EQ(R.ExitCode, Walker.ExitCode) << Name;
    EXPECT_EQ(R.StepsExecuted, Walker.StepsExecuted) << Name;
    EXPECT_EQ(R.Output, Walker.Output) << Name;
  }
  return Walker;
}

TEST(Interp, ReturnsMainExitCode) {
  EXPECT_EQ(compileAndRun("int main() { return 42; }").ExitCode, 42);
}

TEST(Interp, ArithmeticAndLogic) {
  EXPECT_EQ(compileAndRun("int main() { return 7 % 3; }").ExitCode, 1);
  EXPECT_EQ(compileAndRun("int main() { return 5 & 3; }").ExitCode, 1);
  EXPECT_EQ(compileAndRun("int main() { return 5 | 3; }").ExitCode, 7);
  EXPECT_EQ(compileAndRun("int main() { return 5 ^ 3; }").ExitCode, 6);
  EXPECT_EQ(compileAndRun("int main() { return ~0 + 2; }").ExitCode, 1);
  EXPECT_EQ(compileAndRun("int main() { return !5; }").ExitCode, 0);
  EXPECT_EQ(compileAndRun("int main() { return 3 < 4 && 4 < 3; }").ExitCode,
            0);
  EXPECT_EQ(compileAndRun("int main() { return 3 < 4 || 4 < 3; }").ExitCode,
            1);
}

TEST(Interp, ShortCircuitSkipsSideEffects) {
  RunResult R = compileAndRun(
      "int g = 0;\n"
      "int bump() { g++; return 1; }\n"
      "int main() { 0 && bump(); 1 || bump(); return g; }");
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(Interp, DoubleArithmetic) {
  EXPECT_EQ(
      compileAndRun("int main() { double d = 1.5; d = d * 4.0;\n"
                    "  return (int)d; }")
          .ExitCode,
      6);
  EXPECT_EQ(compileAndRun("int main() { return (int)(7 / 2.0 * 2.0); }")
                .ExitCode,
            7);
}

TEST(Interp, IncrementDecrementSemantics) {
  EXPECT_EQ(
      compileAndRun("int main() { int x = 5; return x++ * 10 + x; }")
          .ExitCode,
      56);
  EXPECT_EQ(
      compileAndRun("int main() { int x = 5; return ++x * 10 + x; }")
          .ExitCode,
      66);
  EXPECT_EQ(compileAndRun("int main() { int x = 5; x--; --x; return x; }")
                .ExitCode,
            3);
}

TEST(Interp, CompoundAssignment) {
  EXPECT_EQ(compileAndRun("int main() { int x = 10; x += 5; x -= 3;\n"
                          "  x *= 2; x /= 4; x %= 4; return x; }")
                .ExitCode,
            2);
  EXPECT_EQ(compileAndRun("int main() { int x = 1; x <<= 4; x >>= 1;\n"
                          "  x |= 3; x &= 14; x ^= 1; return x; }")
                .ExitCode,
            11);
}

TEST(Interp, RecursionFactorial) {
  RunResult R = compileAndRun(
      "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }\n"
      "int main() { return fact(6); }");
  EXPECT_EQ(R.ExitCode, 720);
}

TEST(Interp, MutualRecursion) {
  RunResult R = compileAndRun(
      "int isOdd(int n);\n"
      "int isEven(int n) { if (n == 0) return 1; return isOdd(n - 1); }\n"
      "int isOdd(int n) { if (n == 0) return 0; return isEven(n - 1); }\n"
      "int main() { return isEven(10) * 10 + isOdd(7); }");
  EXPECT_EQ(R.ExitCode, 11);
}

TEST(Interp, PointersAndAddressOf) {
  EXPECT_EQ(compileAndRun("int main() { int x = 3; int *p = &x;\n"
                          "  *p = 7; return x; }")
                .ExitCode,
            7);
  EXPECT_EQ(compileAndRun(
                "void set(int *p, int v) { *p = v; }\n"
                "int main() { int x = 0; set(&x, 9); return x; }")
                .ExitCode,
            9);
}

TEST(Interp, PointerArithmeticWalksCells) {
  RunResult R = compileAndRun(
      "int main() { int a[5] = {10, 20, 30, 40, 50};\n"
      "  int *p = a; p++; p += 2;\n"
      "  return *p + *(p - 1); }");
  EXPECT_EQ(R.ExitCode, 70);
}

TEST(Interp, PointerDifference) {
  RunResult R = compileAndRun(
      "int main() { int a[8]; int *p = &a[6]; int *q = &a[2];\n"
      "  return p - q; }");
  EXPECT_EQ(R.ExitCode, 4);
}

TEST(Interp, ArraysAndStrings) {
  RunResult R = compileAndRun(
      "int len(char *s) { int n = 0; while (s[n]) n++; return n; }\n"
      "int main() { char buf[16] = \"hello\"; return len(buf); }");
  EXPECT_EQ(R.ExitCode, 5);
}

TEST(Interp, TwoDimensionalArrayIndexing) {
  RunResult R = compileAndRun(
      "int m[3][4];\n"
      "int main() { int i; int j;\n"
      "  for (i = 0; i < 3; i++)\n"
      "    for (j = 0; j < 4; j++)\n"
      "      m[i][j] = i * 10 + j;\n"
      "  return m[2][3]; }");
  EXPECT_EQ(R.ExitCode, 23);
}

TEST(Interp, StructsAndLinkedList) {
  RunResult R = compileAndRun(
      "struct node { int value; struct node *next; };\n"
      "int main() {\n"
      "  struct node *head = NULL; int i;\n"
      "  for (i = 1; i <= 4; i++) {\n"
      "    struct node *n = (struct node *)malloc(sizeof(struct node));\n"
      "    n->value = i; n->next = head; head = n;\n"
      "  }\n"
      "  int sum = 0;\n"
      "  while (head != NULL) { sum += head->value;\n"
      "    struct node *dead = head; head = head->next; free(dead); }\n"
      "  return sum; }");
  EXPECT_EQ(R.ExitCode, 10);
}

TEST(Interp, StructAssignmentCopies) {
  RunResult R = compileAndRun(
      "struct pair { int a; int b; };\n"
      "int main() { struct pair x; struct pair y;\n"
      "  x.a = 1; x.b = 2; y = x; x.a = 99;\n"
      "  return y.a * 10 + y.b; }");
  EXPECT_EQ(R.ExitCode, 12);
}

TEST(Interp, StructByValueParameter) {
  RunResult R = compileAndRun(
      "struct pair { int a; int b; };\n"
      "int sum(struct pair p) { p.a += 100; return p.a + p.b; }\n"
      "int main() { struct pair x; x.a = 3; x.b = 4;\n"
      "  int s = sum(x); return s * 100 + x.a; }");
  EXPECT_EQ(R.ExitCode, 10703);
}

TEST(Interp, FunctionPointerDispatch) {
  RunResult R = compileAndRun(
      "int add(int a, int b) { return a + b; }\n"
      "int mul(int a, int b) { return a * b; }\n"
      "int (*ops[2])(int, int) = { add, mul };\n"
      "int main() { return ops[0](3, 4) + ops[1](3, 4); }");
  EXPECT_EQ(R.ExitCode, 19);
}

TEST(Interp, GlobalInitializersRunInOrder) {
  RunResult R = compileAndRun(
      "int a = 5; int b = a * 2; int c[3] = {1, b, a + b};\n"
      "int main() { return c[0] + c[1] + c[2]; }");
  EXPECT_EQ(R.ExitCode, 1 + 10 + 15);
}

TEST(Interp, OutputBuiltins) {
  RunResult R = compileAndRun(
      "int main() { print_str(\"n=\"); print_int(42);\n"
      "  print_char('\\n'); print_double(1.5); return 0; }");
  EXPECT_EQ(R.Output, "n=42\n1.5");
}

TEST(Interp, InputBuiltins) {
  RunResult R = compileAndRun(
      "int main() { int a = read_int(); int b = read_int();\n"
      "  int c = read_char();\n"
      "  return a * 100 + b * 10 + (c == -1); }",
      "7 3");
  EXPECT_EQ(R.ExitCode, 731);
}

// read_int accumulates out-of-range input modulo 2^64 (defined
// behaviour, not signed overflow), identically on every engine.
TEST(Interp, ReadIntWrapsOutOfRangeInput) {
  RunResult R = runOnEveryEngine(
      "int main() { print_int(read_int()); print_char(' ');\n"
      "  print_int(read_int()); return 0; }",
      "99999999999999999999999 -99999999999999999999999");
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "200376420520689663 -200376420520689663");
}

// Unary minus, ++, -- and pointer offsets wrap modulo 2^64 like +, - and
// *, identically on every engine (the native tier builds with -fwrapv).
TEST(Interp, ArithmeticWrapsAtInt64Limits) {
  RunResult R = runOnEveryEngine(
      "int main() { int m = 1 << 63; print_int(-m); print_char(' ');\n"
      "  int x = m - 1; x++; print_int(x); print_char(' ');\n"
      "  m--; print_int(m); return 0; }");
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "-9223372036854775808 -9223372036854775808 "
                      "9223372036854775807");
  // 2 + (2^63 - 1) + 1 + (2^63 - 1) wraps to offset 1.
  R = runOnEveryEngine(
      "int main() { int a[3]; a[1] = 7; int *p = &a[2];\n"
      "  p = p + 9223372036854775807; p++;\n"
      "  return p[9223372036854775807]; }");
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(Interp, RandIsDeterministicPerSeed) {
  const char *Src = "int main() { srand(7); return rand() % 1000; }";
  RunResult A = compileAndRun(Src);
  RunResult B = compileAndRun(Src);
  EXPECT_EQ(A.ExitCode, B.ExitCode);
}

TEST(Interp, MathBuiltins) {
  RunResult R = compileAndRun(
      "int main() { double s = sqrt(16.0) + fabs(-2.5) + floor(3.9);\n"
      "  return (int)s; }");
  EXPECT_EQ(R.ExitCode, 9);
}

TEST(Interp, ExitStopsExecution) {
  RunResult R = compileAndRun(
      "int main() { print_int(1); exit(3); print_int(2); return 0; }");
  EXPECT_EQ(R.ExitCode, 3);
  EXPECT_EQ(R.Output, "1");
}

TEST(Interp, SwitchFallthroughSemantics) {
  const char *Src =
      "int f(int x) { int r = 0;\n"
      "  switch (x) {\n"
      "  case 1: r += 1;\n"
      "  case 2: r += 2; break;\n"
      "  case 3: r += 3; break;\n"
      "  default: r = 100;\n"
      "  }\n"
      "  return r; }\n";
  EXPECT_EQ(compileAndRun(std::string(Src) +
                          "int main() { return f(1); }")
                .ExitCode,
            3);
  EXPECT_EQ(compileAndRun(std::string(Src) +
                          "int main() { return f(2); }")
                .ExitCode,
            2);
  EXPECT_EQ(compileAndRun(std::string(Src) +
                          "int main() { return f(3); }")
                .ExitCode,
            3);
  EXPECT_EQ(compileAndRun(std::string(Src) +
                          "int main() { return f(9); }")
                .ExitCode,
            100);
}

TEST(Interp, GotoLoop) {
  RunResult R = compileAndRun("int main() { int n = 0;\n"
                              "top: n++; if (n < 5) goto top;\n"
                              "  return n; }");
  EXPECT_EQ(R.ExitCode, 5);
}

TEST(Interp, LocalDeclReinitializedEachIteration) {
  RunResult R = compileAndRun(
      "int main() { int s = 0; int i;\n"
      "  for (i = 0; i < 3; i++) { int acc = 1; acc += i; s += acc; }\n"
      "  return s; }");
  EXPECT_EQ(R.ExitCode, 1 + 2 + 3);
}

//===----------------------------------------------------------------------===//
// Runtime error detection, on every engine
//===----------------------------------------------------------------------===//

/// Every engine must fail \p Source with the same diagnostic, which
/// contains \p Needle.
RunResult runExpectError(const std::string &Source,
                         const std::string &Needle) {
  RunResult R = runOnEveryEngine(Source);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find(Needle), std::string::npos) << R.Error;
  return R;
}

TEST(InterpErrors, NullDereference) {
  runExpectError("int main() { int *p = NULL; return *p; }", "null");
}

TEST(InterpErrors, OutOfBoundsArrayAccess) {
  runExpectError("int main() { int a[3]; return a[100]; }",
                 "out of bounds");
}

TEST(InterpErrors, UseAfterFree) {
  runExpectError("int main() { int *p = (int *)malloc(4); free(p);\n"
                 "  return *p; }",
                 "use-after-free");
}

TEST(InterpErrors, DoubleFree) {
  runExpectError("int main() { int *p = (int *)malloc(4); free(p);\n"
                 "  free(p); return 0; }",
                 "double free");
}

TEST(InterpErrors, DivisionByZero) {
  runExpectError("int main() { int z = 0; return 4 / z; }",
                 "division by zero");
}

TEST(InterpErrors, AbortReportsError) {
  runExpectError("int main() { abort(); return 0; }", "abort");
}

TEST(InterpErrors, FloatingDivisionByZero) {
  RunResult R = runExpectError(
      "int main() { double z = 0.0; print_int(1); return (int)(1.0 / z); }",
      "floating division by zero");
  EXPECT_EQ(R.Output, "1");
}

TEST(InterpErrors, RemainderByZero) {
  runExpectError("int main() { int z = 0; print_int(2); return 7 % z; }",
                 "integer remainder by zero");
}

// INT64_MIN / -1 traps in host division; the runtime must catch it.
TEST(InterpErrors, DivisionOverflow) {
  runExpectError("int main() { int a = -9223372036854775807 - 1;\n"
                 "  int b = -1; print_int(a / b); return 0; }",
                 "integer division overflow");
}

TEST(InterpErrors, RemainderOverflow) {
  runExpectError("int main() { int a = -9223372036854775807 - 1;\n"
                 "  int b = -1; print_int(a % b); return 0; }",
                 "integer remainder overflow");
}

TEST(InterpErrors, ShiftAmountOutOfRange) {
  runExpectError("int main() { int s = 64; return 1 << s; }",
                 "shift amount out of range");
  runExpectError("int main() { int s = -1; return 8 >> s; }",
                 "shift amount out of range");
}

TEST(InterpErrors, SqrtOfNegative) {
  runExpectError("int main() { double d = -2.0; return (int)sqrt(d); }",
                 "sqrt of a negative number");
}

TEST(InterpErrors, FreeOfNonHeapPointer) {
  runExpectError("int main() { int a[4]; a[0] = 1; free(a); return 0; }",
                 "free of a non-heap pointer");
  runExpectError("int main() { int *p = (int *)malloc(4); free(p + 1);\n"
                 "  return 0; }",
                 "free of a non-heap pointer");
}

TEST(InterpErrors, FreeOfNonPointer) {
  runExpectError("int main() { free((void *)main); return 0; }",
                 "free of a non-pointer value");
}

TEST(InterpErrors, PrintStrOfNonPointer) {
  runExpectError("int main() { print_str((char *)main); return 0; }",
                 "print_str expects a string pointer");
}

TEST(InterpErrors, PointerSubtractionAcrossObjects) {
  runExpectError("int main() { int *p = (int *)malloc(4);\n"
                 "  int *q = (int *)malloc(4); return p - q; }",
                 "subtracting pointers into different objects");
}

TEST(InterpErrors, HeapReadOutOfBounds) {
  runExpectError("int main() { int *p = (int *)malloc(2); return p[5]; }",
                 "heap read out of bounds");
}

TEST(InterpErrors, StackReadOutOfBounds) {
  runExpectError("int main() { int a[3]; int i = -1000; return a[i]; }",
                 "stack read out of bounds");
}

TEST(InterpErrors, IndirectCallThroughNull) {
  RunResult R = runExpectError(
      "int (*f)(int) = NULL;\n"
      "int main() { print_int(3); return f(1); }",
      "indirect call through a non-function value");
  EXPECT_EQ(R.Output, "3");
}

TEST(InterpErrors, NullReadThroughIntToPointerCast) {
  runExpectError("int main() { int x = 8; int *p = (int *)x; return *p; }",
                 "null pointer read");
}

TEST(InterpErrors, InfiniteLoopHitsStepLimit) {
  auto C = compile("int main() { for (;;) {} return 0; }");
  ASSERT_TRUE(C);
  ProgramInput In;
  InterpOptions Opts;
  Opts.MaxSteps = 10000;
  RunResult R = runProgram(C->unit(), *C->Cfgs, In, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

TEST(InterpErrors, RunawayRecursionHitsDepthLimit) {
  auto C = compile("int f(int n) { return f(n + 1); }\n"
                   "int main() { return f(0); }");
  ASSERT_TRUE(C);
  ProgramInput In;
  RunResult R = runProgram(C->unit(), *C->Cfgs, In);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("depth"), std::string::npos) << R.Error;
}

//===----------------------------------------------------------------------===//
// Profile collection
//===----------------------------------------------------------------------===//

TEST(InterpProfile, BlockCountsForCountedLoop) {
  auto C = compile("int main() { int s = 0; int i;\n"
                   "  for (i = 0; i < 10; i++) s += i;\n"
                   "  return s; }");
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  EXPECT_EQ(R.ExitCode, 45);
  const FunctionDecl *Main = C->fn("main");
  const FunctionProfile &FP =
      R.TheProfile.Functions[Main->functionId()];
  EXPECT_EQ(FP.EntryCount, 1.0);
  // The loop body runs 10 times; the test 11 times.
  const Cfg *G = C->cfg("main");
  bool SawBody = false, SawCond = false;
  for (const auto &B : G->blocks()) {
    if (B->label().find("for.body") == 0) {
      EXPECT_EQ(FP.BlockCounts[B->id()], 10.0);
      SawBody = true;
    }
    if (B->label().find("for.cond") == 0) {
      EXPECT_EQ(FP.BlockCounts[B->id()], 11.0);
      SawCond = true;
    }
  }
  EXPECT_TRUE(SawBody);
  EXPECT_TRUE(SawCond) << printCfg(*G);
}

TEST(InterpProfile, ArcCountsSumToBlockCounts) {
  auto C = compile("int main() { int s = 0; int i;\n"
                   "  for (i = 0; i < 7; i++)\n"
                   "    if (i % 2 == 0) s += i; else s -= i;\n"
                   "  return s; }");
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  const FunctionDecl *Main = C->fn("main");
  const FunctionProfile &FP = R.TheProfile.Functions[Main->functionId()];
  const Cfg *G = C->cfg("main");
  // Flow conservation: block count == sum of outgoing arc counts for every
  // block with successors.
  for (const auto &B : G->blocks()) {
    if (B->successors().empty())
      continue;
    double Out = 0;
    for (double A : FP.ArcCounts[B->id()])
      Out += A;
    EXPECT_EQ(Out, FP.BlockCounts[B->id()]) << B->label();
  }
}

TEST(InterpProfile, CallSiteCountsRecorded) {
  auto C = compile("int f(int x) { return x; }\n"
                   "int main() { int s = 0; int i;\n"
                   "  for (i = 0; i < 5; i++) s += f(i);\n"
                   "  s += f(100);\n"
                   "  return s; }");
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  ASSERT_EQ(R.TheProfile.CallSiteCounts.size(), 2u);
  // Sites are numbered in sema (checking) order: loop site first.
  EXPECT_EQ(R.TheProfile.CallSiteCounts[0], 5.0);
  EXPECT_EQ(R.TheProfile.CallSiteCounts[1], 1.0);
  EXPECT_EQ(R.TheProfile.Functions[C->fn("f")->functionId()].EntryCount,
            6.0);
}

TEST(InterpProfile, IndirectCallsCounted) {
  auto C = compile("int f() { return 1; }\n"
                   "int main() { int (*p)() = f; return p() + p(); }");
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  EXPECT_EQ(R.TheProfile.Functions[C->fn("f")->functionId()].EntryCount,
            2.0);
}

TEST(InterpProfile, CyclesAccumulate) {
  auto C = compile("int main() { int s = 0; int i;\n"
                   "  for (i = 0; i < 100; i++) s += i;\n"
                   "  return s; }");
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  EXPECT_GT(R.TheProfile.TotalCycles, 100.0);
}

TEST(InterpProfile, OptimizedFunctionsCostLess) {
  auto C = compile("int work() { int s = 0; int i;\n"
                   "  for (i = 0; i < 1000; i++) s += i;\n"
                   "  return s; }\n"
                   "int main() { return work() != 0; }");
  ASSERT_TRUE(C);
  ProgramInput In;
  InterpOptions Plain;
  RunResult A = runProgram(C->unit(), *C->Cfgs, In, Plain);
  InterpOptions Opt;
  Opt.OptimizedFunctions.insert(C->fn("work"));
  RunResult B = runProgram(C->unit(), *C->Cfgs, In, Opt);
  ASSERT_TRUE(A.Ok);
  ASSERT_TRUE(B.Ok);
  EXPECT_LT(B.TheProfile.TotalCycles, A.TheProfile.TotalCycles * 0.7);
  EXPECT_EQ(A.ExitCode, B.ExitCode);
}

//===----------------------------------------------------------------------===//
// The paper's strchr example (Figure 1 / Table 2 actual counts)
//===----------------------------------------------------------------------===//

TEST(InterpProfile, StrchrPaperCounts) {
  auto C = compile(R"(
char *strchr(char *str, int c) {
  while (*str) {
    if (*str == c)
      return str;
    str++;
  }
  return NULL;
}
int main() {
  char s[4] = "abc";
  strchr(s, 'a');
  strchr(s, 'b');
  return 0;
}
)");
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  const FunctionDecl *F = C->fn("strchr");
  const Cfg *G = C->cfg("strchr");
  const FunctionProfile &FP = R.TheProfile.Functions[F->functionId()];

  // Paper Table 2 actual counts: while=3, if=3, return1=2, incr=1,
  // return2=0 — generated by searching "abc" for 'a' and for 'b'.
  std::map<std::string, double> Expected = {
      {"while.cond", 3}, {"while.body", 3}, {"if.then", 2},
      {"if.end", 1},     {"while.end", 0}};
  ASSERT_EQ(G->size(), 5u) << printCfg(*G);
  for (const auto &B : G->blocks()) {
    auto It = Expected.find(B->label());
    ASSERT_NE(It, Expected.end()) << "unexpected block " << B->label();
    EXPECT_EQ(FP.BlockCounts[B->id()], It->second) << B->label();
  }
  EXPECT_EQ(FP.EntryCount, 2.0);
}

} // namespace
