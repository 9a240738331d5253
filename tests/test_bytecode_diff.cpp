//===- tests/test_bytecode_diff.cpp - Bytecode vs tree-walker diff ---------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests pinning the bytecode VM to the tree-walker oracle:
/// every suite program × input must produce bit-identical profiles
/// (block, arc, entry, call-site counts and cycles), output, exit codes,
/// and limit-abort behavior under both engines, and the parallel suite
/// runner must match a serial run. When a host C compiler exists, the
/// same contract extends three ways to the native tier: a limit matrix
/// (step / heap / call-depth sweeps) must trip the identical LimitHit
/// with identical high-water marks across all three engines, every
/// binary operator must agree on every operand kind and failing case,
/// and a step limit at any step must stop every engine identically.
///
//===----------------------------------------------------------------------===//

#include "backend/Native.h"
#include "obs/Telemetry.h"
#include "suite/Suite.h"
#include "suite/SuiteRunner.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

using namespace sest;

namespace {

InterpOptions engineOptions(InterpEngine Engine) {
  InterpOptions O;
  O.Engine = Engine;
  return O;
}

/// Asserts exact (bitwise for doubles) equality of two profiles.
void expectProfilesIdentical(const Profile &A, const Profile &B,
                             const std::string &What) {
  ASSERT_TRUE(A.shapeMatches(B)) << What;
  EXPECT_EQ(A.TotalCycles, B.TotalCycles) << What;
  for (size_t F = 0; F < A.Functions.size(); ++F) {
    const FunctionProfile &FA = A.Functions[F];
    const FunctionProfile &FB = B.Functions[F];
    EXPECT_EQ(FA.EntryCount, FB.EntryCount) << What << " fn " << F;
    EXPECT_EQ(FA.BlockCounts, FB.BlockCounts) << What << " fn " << F;
    EXPECT_EQ(FA.ArcCounts, FB.ArcCounts) << What << " fn " << F;
  }
  EXPECT_EQ(A.CallSiteCounts, B.CallSiteCounts) << What;
}

/// One instance per suite program: run every input under both engines
/// and require bit-identical results.
class BytecodeDiffTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BytecodeDiffTest, MatchesWalkerOnAllInputs) {
  const SuiteProgram *P = findSuiteProgram(GetParam());
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram Ast =
      compileAndProfileProgram(*P, engineOptions(InterpEngine::Ast));
  CompiledSuiteProgram Bc =
      compileAndProfileProgram(*P, engineOptions(InterpEngine::Bytecode));
  ASSERT_TRUE(Ast.Ok) << Ast.Error;
  ASSERT_TRUE(Bc.Ok) << Bc.Error;

  ASSERT_EQ(Ast.Profiles.size(), Bc.Profiles.size());
  ASSERT_EQ(Ast.RunStats.size(), Bc.RunStats.size());
  for (size_t I = 0; I < Ast.Profiles.size(); ++I)
    expectProfilesIdentical(Ast.Profiles[I], Bc.Profiles[I],
                            P->Name + "/" + P->Inputs[I].Name);
  for (size_t I = 0; I < Ast.RunStats.size(); ++I) {
    const SuiteRunStats &A = Ast.RunStats[I];
    const SuiteRunStats &B = Bc.RunStats[I];
    EXPECT_EQ(A.Steps, B.Steps) << P->Name << "/" << A.InputName;
    EXPECT_EQ(A.Cycles, B.Cycles) << P->Name << "/" << A.InputName;
    EXPECT_EQ(A.HeapCellsHighWater, B.HeapCellsHighWater)
        << P->Name << "/" << A.InputName;
    EXPECT_EQ(A.CallDepthHighWater, B.CallDepthHighWater)
        << P->Name << "/" << A.InputName;
    EXPECT_EQ(A.ExitCode, B.ExitCode) << P->Name << "/" << A.InputName;
  }
}

/// Step-limit aborts must be identical: same limit kind, same error
/// text, same step count, same (partial) profile.
TEST_P(BytecodeDiffTest, StepLimitAbortsMatchWalker) {
  const SuiteProgram *P = findSuiteProgram(GetParam());
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;

  // Sweep a few limits so the abort lands in different program phases.
  for (uint64_t MaxSteps : {1u, 100u, 10000u}) {
    InterpOptions AstOpts = engineOptions(InterpEngine::Ast);
    InterpOptions BcOpts = engineOptions(InterpEngine::Bytecode);
    AstOpts.MaxSteps = BcOpts.MaxSteps = MaxSteps;
    const ProgramInput &Input = P->Inputs.front();
    RunResult A = runProgram(C.unit(), *C.Cfgs, Input, AstOpts);
    RunResult B = runProgram(C.unit(), *C.Cfgs, Input, BcOpts);
    std::string What =
        P->Name + " MaxSteps=" + std::to_string(MaxSteps);
    EXPECT_EQ(A.Ok, B.Ok) << What;
    EXPECT_EQ(A.LimitHit, B.LimitHit) << What;
    EXPECT_EQ(A.Error, B.Error) << What;
    EXPECT_EQ(A.StepsExecuted, B.StepsExecuted) << What;
    EXPECT_EQ(A.Output, B.Output) << What;
    expectProfilesIdentical(A.TheProfile, B.TheProfile, What);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, BytecodeDiffTest,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> Names;
                           for (const SuiteProgram &P : benchmarkSuite())
                             Names.push_back(P.Name);
                           return Names;
                         }()),
                         [](const auto &Info) { return Info.param; });

/// Call-depth and heap limits through both engines on a program rigged
/// to hit each.
TEST(BytecodeDiff, CallDepthLimitMatches) {
  const SuiteProgram *P = findSuiteProgram("xlisp");
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  for (unsigned Depth : {1u, 2u, 8u}) {
    InterpOptions AstOpts = engineOptions(InterpEngine::Ast);
    InterpOptions BcOpts = engineOptions(InterpEngine::Bytecode);
    AstOpts.MaxCallDepth = BcOpts.MaxCallDepth = Depth;
    RunResult A = runProgram(C.unit(), *C.Cfgs, P->Inputs.front(), AstOpts);
    RunResult B = runProgram(C.unit(), *C.Cfgs, P->Inputs.front(), BcOpts);
    std::string What = "xlisp MaxCallDepth=" + std::to_string(Depth);
    EXPECT_EQ(A.Ok, B.Ok) << What;
    EXPECT_EQ(A.LimitHit, B.LimitHit) << What;
    EXPECT_EQ(A.Error, B.Error) << What;
    EXPECT_EQ(A.StepsExecuted, B.StepsExecuted) << What;
    expectProfilesIdentical(A.TheProfile, B.TheProfile, What);
  }
}

TEST(BytecodeDiff, HeapLimitMatches) {
  const SuiteProgram *P = findSuiteProgram("xlisp");
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  for (int64_t Cells : {1, 16, 256}) {
    InterpOptions AstOpts = engineOptions(InterpEngine::Ast);
    InterpOptions BcOpts = engineOptions(InterpEngine::Bytecode);
    AstOpts.MaxHeapCells = BcOpts.MaxHeapCells = Cells;
    RunResult A = runProgram(C.unit(), *C.Cfgs, P->Inputs.front(), AstOpts);
    RunResult B = runProgram(C.unit(), *C.Cfgs, P->Inputs.front(), BcOpts);
    std::string What = "xlisp MaxHeapCells=" + std::to_string(Cells);
    EXPECT_EQ(A.Ok, B.Ok) << What;
    EXPECT_EQ(A.LimitHit, B.LimitHit) << What;
    EXPECT_EQ(A.Error, B.Error) << What;
    EXPECT_EQ(A.StepsExecuted, B.StepsExecuted) << What;
    expectProfilesIdentical(A.TheProfile, B.TheProfile, What);
  }
}

/// The Fig. 10 cost model (per-function cost factors) must accumulate
/// cycles identically — the sum order is part of the contract.
TEST(BytecodeDiff, SelectiveOptimizationCyclesMatch) {
  const SuiteProgram *P = findSuiteProgram("compress");
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  InterpOptions AstOpts = engineOptions(InterpEngine::Ast);
  InterpOptions BcOpts = engineOptions(InterpEngine::Bytecode);
  for (const FunctionDecl *F : C.unit().Functions)
    if (F->isDefined() && F->name() != "main") {
      AstOpts.OptimizedFunctions.insert(F);
      BcOpts.OptimizedFunctions.insert(F);
    }
  AstOpts.OptimizedCostFactor = BcOpts.OptimizedCostFactor = 0.25;
  for (const ProgramInput &Input : P->Inputs) {
    RunResult A = runProgram(C.unit(), *C.Cfgs, Input, AstOpts);
    RunResult B = runProgram(C.unit(), *C.Cfgs, Input, BcOpts);
    ASSERT_TRUE(A.Ok) << A.Error;
    ASSERT_TRUE(B.Ok) << B.Error;
    EXPECT_EQ(A.TheProfile.TotalCycles, B.TheProfile.TotalCycles)
        << "compress/" << Input.Name;
  }
}

//===----------------------------------------------------------------------===//
// Three-way differentials: the native tier against both interpreters.
// Skipped cleanly (not failed) on hosts without a C compiler.
//===----------------------------------------------------------------------===//

/// Asserts one RunResult triple (ast / bytecode / native) is identical
/// in every observable: status, limit kind, diagnostics, output, exit
/// code, step count, high-water marks, and the full profile.
void expectThreeWayIdentical(const RunResult &A, const RunResult &B,
                             const RunResult &N, const std::string &What) {
  for (const auto &[R, Tier] :
       {std::pair<const RunResult &, const char *>{B, "bytecode"},
        std::pair<const RunResult &, const char *>{N, "native"}}) {
    std::string W = What + " [" + Tier + "]";
    EXPECT_EQ(A.Ok, R.Ok) << W;
    EXPECT_EQ(A.LimitHit, R.LimitHit) << W;
    EXPECT_EQ(A.Error, R.Error) << W;
    EXPECT_EQ(A.ExitCode, R.ExitCode) << W;
    EXPECT_EQ(A.Output, R.Output) << W;
    EXPECT_EQ(A.StepsExecuted, R.StepsExecuted) << W;
    EXPECT_EQ(A.HeapCellsHighWater, R.HeapCellsHighWater) << W;
    EXPECT_EQ(A.CallDepthHighWater, R.CallDepthHighWater) << W;
    expectProfilesIdentical(A.TheProfile, R.TheProfile, W);
  }
}

/// Runs one input under all three engines with the same limits and
/// requires identical observables.
void runThreeWay(const CompiledSuiteProgram &C, const ProgramInput &Input,
                 const InterpOptions &Limits, const std::string &What) {
  InterpOptions AstOpts = Limits, BcOpts = Limits, NativeOpts = Limits;
  AstOpts.Engine = InterpEngine::Ast;
  BcOpts.Engine = InterpEngine::Bytecode;
  NativeOpts.Engine = InterpEngine::Native;
  RunResult A = runProgram(C.unit(), *C.Cfgs, Input, AstOpts);
  RunResult B = runProgram(C.unit(), *C.Cfgs, Input, BcOpts);
  RunResult N = runProgram(C.unit(), *C.Cfgs, Input, NativeOpts);
  expectThreeWayIdentical(A, B, N, What);
}

/// One instance per suite program; skips on hosts without a C compiler.
class NativeDiffTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    std::string Why;
    if (!backend::nativeEngineAvailable(&Why))
      GTEST_SKIP() << "native tier unavailable: " << Why;
  }
};

TEST_P(NativeDiffTest, MatchesBothEnginesOnAllInputs) {
  const SuiteProgram *P = findSuiteProgram(GetParam());
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  for (const ProgramInput &Input : P->Inputs)
    runThreeWay(C, Input, InterpOptions{}, P->Name + "/" + Input.Name);
}

/// The limit matrix: step, heap, and call-depth sweeps must trip the
/// identical LimitHit with identical high-water marks on all three
/// engines — limits are part of the execution contract, so the compiled
/// tier must abort at the exact step the interpreters do.
TEST_P(NativeDiffTest, LimitMatrixMatchesBothEngines) {
  const SuiteProgram *P = findSuiteProgram(GetParam());
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  const ProgramInput &Input = P->Inputs.front();

  for (uint64_t MaxSteps : {1u, 100u, 10000u}) {
    InterpOptions Limits;
    Limits.MaxSteps = MaxSteps;
    runThreeWay(C, Input, Limits,
                P->Name + " MaxSteps=" + std::to_string(MaxSteps));
  }
  for (unsigned Depth : {1u, 2u, 8u}) {
    InterpOptions Limits;
    Limits.MaxCallDepth = Depth;
    runThreeWay(C, Input, Limits,
                P->Name + " MaxCallDepth=" + std::to_string(Depth));
  }
  for (int64_t Cells : {1, 16, 256}) {
    InterpOptions Limits;
    Limits.MaxHeapCells = Cells;
    runThreeWay(C, Input, Limits,
                P->Name + " MaxHeapCells=" + std::to_string(Cells));
  }
}

/// A seeded sample of step limits across the whole first-input run, so
/// limits land inside every kind of op, not just the first few steps.
TEST_P(NativeDiffTest, SampledStepLimitsMatchBothEngines) {
  const SuiteProgram *P = findSuiteProgram(GetParam());
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  const ProgramInput &Input = P->Inputs.front();
  RunResult Full = runProgram(C.unit(), *C.Cfgs, Input,
                              engineOptions(InterpEngine::Bytecode));
  ASSERT_GT(Full.StepsExecuted, 0u);
  Prng Rng(0x5eed5eedULL);
  for (int K = 0; K < 20; ++K) {
    InterpOptions Limits;
    Limits.MaxSteps = 1 + Rng.nextBelow(Full.StepsExecuted);
    runThreeWay(C, Input, Limits,
                P->Name + " MaxSteps=" + std::to_string(Limits.MaxSteps));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, NativeDiffTest,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> Names;
                           for (const SuiteProgram &P : benchmarkSuite())
                             Names.push_back(P.Name);
                           return Names;
                         }()),
                         [](const auto &Info) { return Info.param; });

/// Compiles a test program that is not part of the suite (the program
/// record must outlive the compiled result, which points into it).
CompiledSuiteProgram compileSource(const std::string &Name,
                                   const std::string &Source) {
  static std::vector<std::unique_ptr<SuiteProgram>> Keep;
  Keep.push_back(std::make_unique<SuiteProgram>());
  Keep.back()->Name = Name;
  Keep.back()->Source = Source;
  return compileProgramOnly(*Keep.back());
}

/// Every BinaryOp over int, double, data-pointer, null-pointer and
/// function-pointer operands. Input 0 runs the non-failing matrix; each
/// other input selects one failing case (a run fails once, so one case
/// per run). The native tier inlines only the int-int fast path of each
/// operator; this pins the split between that path and the generic one.
const char *const kOperatorMatrix = R"(
struct S { int x; int y; };
int garr[4];
struct S gs[3];
int f1(int x) { return x + 1; }
int f2(int x) { return x * 2; }
void pi(int v) { print_int(v); print_char(' '); }
void pd(double v) { print_double(v); print_char(' '); }

void ints(int a, int b) {
  int c;
  pi(a + b); pi(a - b); pi(a * b);
  if (b != 0 && !(b == -1 && a == (1 << 63))) { pi(a / b); pi(a % b); }
  if (b >= 0 && b <= 63) { pi(a << b); pi(a >> b); }
  pi(a & b); pi(a | b); pi(a ^ b);
  pi(a < b); pi(a > b); pi(a <= b); pi(a >= b); pi(a == b); pi(a != b);
  c = a; c += b; c -= 3; c *= b; c ^= a; pi(c);
  print_char('\n');
}

void dbls(double x, double y) {
  pd(x + y); pd(x - y); pd(x * y);
  if (y != 0.0) pd(x / y);
  pi(x < y); pi(x > y); pi(x <= y); pi(x >= y); pi(x == y); pi(x != y);
  print_char('\n');
}

void mixed(int a, double y) {
  pd(a + y); pd(y + a); pd(a - y); pd(y - a); pd(a * y); pd(y * a);
  if (y != 0.0) pd(a / y);
  if (a != 0) pd(y / a);
  pi(a < y); pi(y < a); pi(a >= y); pi(a == y); pi(y != a);
  print_char('\n');
}

void ptrs(int *p, int *q, int n) {
  int *r;
  r = p + n; pi(*r);
  r = n + p; pi(*r);
  r = r - 1; pi(*r);
  r += 1; r -= 2; pi(r - p);
  pi(q - p); pi(p - q);
  pi(p < q); pi(p > q); pi(p <= q); pi(p >= q); pi(p == q); pi(p != q);
  pi(p == 0); pi(p != 0); pi(0 == p); pi(p == NULL);
  print_char('\n');
}

void other(int *p, int *q) {
  pi(p < q); pi(p > q); pi(p <= q); pi(p >= q); pi(p == q); pi(p != q);
  print_char('\n');
}

int main() {
  int sel = read_int();
  int loc[4];
  int i;
  int *z = NULL;
  int *h = malloc(4);
  int (*fa)(int) = f1;
  int (*fb)(int) = f2;
  int (*fz)(int) = 0;
  struct S *s;
  int m = 1 << 63;
  int zero = sel - sel;
  int neg = zero - 1;
  for (i = 0; i < 4; i++) { loc[i] = i * 10; garr[i] = i + 100; h[i] = i + 7; }
  if (sel == 0) {
    ints(7, 3); ints(-7, 3); ints(7, -1); ints(m, 1); ints(m, -2);
    ints(0, 5); ints(5, 0); ints(-1, 63); ints(1, 64); ints(m, m);
    dbls(1.5, 0.25); dbls(-2.0, 3.0); dbls(0.5, 0.5); dbls(1.0, 0.0);
    mixed(3, 0.5); mixed(0, -2.5); mixed(-4, 0.0); mixed(2, 2.0);
    ptrs(loc, loc + 3, 2); ptrs(garr, garr + 1, 1); ptrs(h, h + 2, 3);
    other(loc, garr); other(garr, loc); other(h, loc); other(z, loc);
    other(z, z); other(h, h + 1);
    pi(z == 0); pi(z != 0); pi(z == NULL); pi(z + 1 == z); pi(z - z);
    s = gs + 2; pi(s - gs); s = s - 1; pi(s - gs); pi(s > gs);
    pi(fa == fb); pi(fa == fa); pi(fa != fb); pi(fz == 0); pi(fa == 0);
    pi(0 != fa); pi(fz == NULL); pi(fz != fa); pi(fa < fb); pi(fz < fa);
    pi(fa(3) + fb(4));
    print_char('\n');
    return 0;
  }
  print_str("case ");
  print_int(sel);
  print_char('\n');
  if (sel == 1) pi(7 / zero);
  if (sel == 2) pi(7 % zero);
  if (sel == 3) pi(m / neg);
  if (sel == 4) pi(m % neg);
  if (sel == 5) pi(1 << neg);
  if (sel == 6) pi(1 >> neg);
  if (sel == 7) pi(1 << (zero + 64));
  if (sel == 8) pi(1 >> (zero + 64));
  if (sel == 9) pd(1.5 / (zero * 1.0));
  if (sel == 10) pd(sel / (zero * 1.0));
  if (sel == 11) pi(loc - garr);
  if (sel == 12) pi(h - loc);
  if (sel == 13) { i = 5; i /= zero; }
  if (sel == 14) { i = 5; i %= zero; }
  if (sel == 15) { i = m; i /= neg; }
  if (sel == 16) { i = 1; i <<= 99; }
  print_str("unreachable\n");
  return 0;
}
)";

/// The diagnostic each input of kOperatorMatrix ends with.
const char *const kOperatorErrors[] = {
    "",
    "integer division by zero",
    "integer remainder by zero",
    "integer division overflow",
    "integer remainder overflow",
    "shift amount out of range",
    "shift amount out of range",
    "shift amount out of range",
    "shift amount out of range",
    "floating division by zero",
    "floating division by zero",
    "subtracting pointers into different objects",
    "subtracting pointers into different objects",
    "integer division by zero",
    "integer remainder by zero",
    "integer division overflow",
    "shift amount out of range",
};

TEST(NativeDiff, OperatorMatrixMatchesBothEngines) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  CompiledSuiteProgram C = compileSource("opmatrix", kOperatorMatrix);
  ASSERT_TRUE(C.Ok) << C.Error;
  for (int Sel = 0; Sel < static_cast<int>(std::size(kOperatorErrors));
       ++Sel) {
    ProgramInput In;
    In.Name = "sel" + std::to_string(Sel);
    In.Text = std::to_string(Sel);
    RunResult B = runProgram(C.unit(), *C.Cfgs, In,
                             engineOptions(InterpEngine::Bytecode));
    // Input 0 completes; every other input ends in its failing case.
    EXPECT_EQ(B.Ok, Sel == 0) << In.Name << ": " << B.Error;
    EXPECT_EQ(B.Error, kOperatorErrors[Sel]) << In.Name;
    EXPECT_EQ(B.Output.find("unreachable"), std::string::npos) << In.Name;
    runThreeWay(C, In, InterpOptions{}, "opmatrix/" + In.Name);
  }
}

/// A small program with loads, stores, binops, a switch, calls and
/// builtins, stopped by a step limit at every one of its steps: all
/// three engines must stop at the same op with the same steps, error
/// text, output and partial profile.
TEST(NativeDiff, EveryStepLimitMatchesBothEngines) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  CompiledSuiteProgram C = compileSource("stepsweep", R"(
int g[8];
int sq(int x) { return x * x; }
int main() {
  int i;
  int acc = read_int();
  int *p = malloc(3);
  for (i = 0; i < 6; i++) {
    switch (i % 3) {
    case 0: g[i] = sq(i) + acc; break;
    case 1: g[i] = g[i - 1] << 2; p[1] = g[i]; break;
    default: acc += g[i - 1] / 3; acc++;
    }
    print_int(g[i]);
    print_char(' ');
  }
  free(p);
  print_double(acc * 0.5);
  return acc % 7;
}
)");
  ASSERT_TRUE(C.Ok) << C.Error;
  ProgramInput In;
  In.Text = "5";
  RunResult Full = runProgram(C.unit(), *C.Cfgs, In,
                              engineOptions(InterpEngine::Bytecode));
  ASSERT_TRUE(Full.Ok) << Full.Error;
  ASSERT_GT(Full.StepsExecuted, 50u);
  for (uint64_t MaxSteps = 1; MaxSteps <= Full.StepsExecuted; ++MaxSteps) {
    InterpOptions Limits;
    Limits.MaxSteps = MaxSteps;
    runThreeWay(C, In, Limits,
                "stepsweep MaxSteps=" + std::to_string(MaxSteps));
  }
}

/// Runs the suite at jobs 1 and 4 under \p Options and requires the
/// parallel run to be observationally identical to the serial one: same
/// status, errors, run stats, profiles, and merged non-timing telemetry
/// counters. Returns the serial run.
std::vector<CompiledSuiteProgram>
expectParallelSuiteMatchesSerial(const InterpOptions &Options) {
  obs::Telemetry SerialTele, ParallelTele;

  SerialTele.install();
  std::vector<CompiledSuiteProgram> Serial =
      compileAndProfileSuite(Options, 1);
  SerialTele.uninstall();

  ParallelTele.install();
  std::vector<CompiledSuiteProgram> Parallel =
      compileAndProfileSuite(Options, 4);
  ParallelTele.uninstall();

  EXPECT_EQ(Serial.size(), Parallel.size());
  for (size_t I = 0; I < std::min(Serial.size(), Parallel.size()); ++I) {
    const CompiledSuiteProgram &S = Serial[I];
    const CompiledSuiteProgram &Q = Parallel[I];
    EXPECT_EQ(S.Ok, Q.Ok) << S.Spec->Name;
    EXPECT_EQ(S.Error, Q.Error) << S.Spec->Name;
    EXPECT_EQ(S.Profiles.size(), Q.Profiles.size()) << S.Spec->Name;
    for (size_t J = 0; J < std::min(S.Profiles.size(), Q.Profiles.size());
         ++J)
      expectProfilesIdentical(S.Profiles[J], Q.Profiles[J],
                              S.Spec->Name + "/" +
                                  S.Spec->Inputs[J].Name);
    EXPECT_EQ(S.RunStats.size(), Q.RunStats.size()) << S.Spec->Name;
    for (size_t J = 0; J < std::min(S.RunStats.size(), Q.RunStats.size());
         ++J) {
      EXPECT_EQ(S.RunStats[J].InputName, Q.RunStats[J].InputName);
      EXPECT_EQ(S.RunStats[J].Steps, Q.RunStats[J].Steps);
      EXPECT_EQ(S.RunStats[J].Cycles, Q.RunStats[J].Cycles);
      EXPECT_EQ(S.RunStats[J].ExitCode, Q.RunStats[J].ExitCode);
    }
  }

  // Merged telemetry counters (steps, instrs, runs, ...) must agree
  // exactly; only timing-valued entries may differ.
  EXPECT_EQ(SerialTele.counters().size(), ParallelTele.counters().size());
  for (const auto &[Name, Value] : SerialTele.counters()) {
    auto It = ParallelTele.counters().find(Name);
    if (It == ParallelTele.counters().end()) {
      ADD_FAILURE() << "missing counter " << Name;
      continue;
    }
    if (Name.find("_ms") == std::string::npos &&
        Name.find("_us") == std::string::npos) {
      EXPECT_EQ(Value, It->second) << Name;
    }
  }
  return Serial;
}

/// The parallel suite runner must be observationally identical to a
/// serial run: same profiles, stats, and merged telemetry counters.
TEST(BytecodeDiff, ParallelSuiteMatchesSerial) {
  expectParallelSuiteMatchesSerial(InterpOptions{});
}

/// A failing input ends its program: the runs of its later inputs (and
/// their telemetry) must be dropped identically at every job count, even
/// though the pool has already executed them.
TEST(BytecodeDiff, FailedInputDropsSameRunsAtEveryJobCount) {
  InterpOptions Options;
  // Between the per-input step counts of several programs, so some
  // fail on their first input and some (espresso, awk, water) only on
  // a later one.
  Options.MaxSteps = 1'000'000;
  std::vector<CompiledSuiteProgram> Serial =
      expectParallelSuiteMatchesSerial(Options);

  size_t FailedLater = 0, Passed = 0;
  for (const CompiledSuiteProgram &P : Serial) {
    if (P.Ok)
      ++Passed;
    else if (P.RunStats.size() >= 2 &&
             P.RunStats.size() < P.Spec->Inputs.size())
      ++FailedLater;
  }
  EXPECT_GE(FailedLater, 1u) << "limit no longer exercises the drop path";
  EXPECT_GE(Passed, 1u);
}

} // namespace
