//===- tests/test_backend.cpp - Native backend unit tests ------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the compile-to-C backend: capability probing, byte-
/// deterministic emission, artifact memoization, compile-phase
/// telemetry, warning-free builds at the product cc flags, and
/// layout-true code emission (an artifact compiled for the optimizer's
/// layout must be a different translation unit with identical
/// observable semantics).
/// Emission tests run everywhere; compile/run tests skip cleanly on
/// hosts without a C compiler.
///
//===----------------------------------------------------------------------===//

#include "backend/Backend.h"
#include "backend/Native.h"
#include "estimators/Pipeline.h"
#include "interp/bytecode/BytecodeCompiler.h"
#include "obs/Telemetry.h"
#include "opt/Layout.h"
#include "opt/WeightSource.h"
#include "suite/Suite.h"
#include "suite/SuiteRunner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace sest;

namespace {

/// Compiled program + bytecode for one suite program.
struct Lowered {
  CompiledSuiteProgram C;
  bc::BcModule Bc;
  explicit Lowered(const std::string &Name)
      : C(compileProgramOnly(*findSuiteProgram(Name))),
        Bc(bc::compileBytecode(C.unit(), *C.Cfgs)) {}
};

/// Converts the optimizer's layout into the backend's plan shape (the
/// same conversion tools/sestc.cpp does).
backend::NativeLayoutPlan planFromLayout(const opt::ProgramLayout &PL) {
  backend::NativeLayoutPlan Plan;
  Plan.Order = PL.blockOrder();
  for (const opt::FunctionLayout &F : PL.Functions)
    Plan.FirstColdPos.push_back(F.FirstColdPos);
  return Plan;
}

TEST(Backend, CapabilityProbeIsConsistent) {
  std::string Why;
  bool Available = backend::nativeEngineAvailable(&Why);
  if (Available) {
    EXPECT_FALSE(backend::hostCompilerPath().empty());
    EXPECT_TRUE(Why.empty()) << Why;
  } else {
    EXPECT_TRUE(backend::hostCompilerPath().empty());
    EXPECT_FALSE(Why.empty());
  }
  EXPECT_EQ(backend::cBackend().available(nullptr), Available);
  EXPECT_EQ(backend::cBackend().name(), "c");
}

/// Emission is pure (no host compiler involved): it must be available
/// everywhere and byte-deterministic, and explicitly spelling out the
/// identity layout must emit the same translation unit as the implicit
/// (empty-plan) identity.
TEST(Backend, EmissionIsDeterministic) {
  Lowered L("compress");
  ASSERT_TRUE(L.C.Ok) << L.C.Error;
  std::string Err;
  std::string First = backend::cBackend().emitSource(L.C.unit(), *L.C.Cfgs,
                                                     L.Bc, {}, &Err);
  ASSERT_FALSE(First.empty()) << Err;
  std::string Second = backend::cBackend().emitSource(L.C.unit(), *L.C.Cfgs,
                                                      L.Bc, {}, &Err);
  EXPECT_EQ(First, Second);
  // The artifact entry points the host loader resolves must be present.
  EXPECT_NE(First.find("sest_native_run"), std::string::npos);
  EXPECT_NE(First.find("sest_native_free"), std::string::npos);

  backend::NativeLayoutPlan Identity =
      planFromLayout(opt::identityLayout(L.C.unit(), *L.C.Cfgs));
  std::string Explicit = backend::cBackend().emitSource(
      L.C.unit(), *L.C.Cfgs, L.Bc, Identity, &Err);
  EXPECT_EQ(First, Explicit);
}

TEST(Backend, ArtifactsAreMemoizedBySourceHash) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  Lowered L("gs");
  ASSERT_TRUE(L.C.Ok) << L.C.Error;
  std::string Err;
  auto A = backend::cBackend().compile(L.C.unit(), *L.C.Cfgs, L.Bc, {}, &Err);
  ASSERT_NE(A, nullptr) << Err;
  auto B = backend::cBackend().compile(L.C.unit(), *L.C.Cfgs, L.Bc, {}, &Err);
  ASSERT_NE(B, nullptr) << Err;
  // Same generated source -> the same loaded artifact, not a recompile.
  EXPECT_EQ(A.get(), B.get());
  EXPECT_FALSE(A->sourceHash().empty());
  EXPECT_GT(A->sourceBytes(), 0u);
  EXPECT_GT(A->compileMs(), 0.0);
}

/// The compile's scratch directory lives under $TMPDIR: an unusable
/// TMPDIR fails with an error naming it, a usable one compiles.
TEST(Backend, CompileScratchFollowsTmpdir) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  SuiteProgram SP;
  SP.Name = "tmpdir";
  // A source no other test compiles, so the artifact cache is cold.
  SP.Source = "int main() { print_int(40213); return 0; }";
  CompiledSuiteProgram C = compileProgramOnly(SP);
  ASSERT_TRUE(C.Ok) << C.Error;
  bc::BcModule Bc = bc::compileBytecode(C.unit(), *C.Cfgs);

  const char *Saved = std::getenv("TMPDIR");
  const std::string SavedValue = Saved ? Saved : "";
  const std::string Missing =
      ::testing::TempDir() + "/sest-no-such-tmpdir/nested";
  ::setenv("TMPDIR", Missing.c_str(), 1);
  std::string Err;
  auto Failed = backend::cBackend().compile(C.unit(), *C.Cfgs, Bc, {}, &Err);
  ::setenv("TMPDIR", ::testing::TempDir().c_str(), 1);
  std::string OkErr;
  auto Built = backend::cBackend().compile(C.unit(), *C.Cfgs, Bc, {}, &OkErr);
  if (Saved)
    ::setenv("TMPDIR", SavedValue.c_str(), 1);
  else
    ::unsetenv("TMPDIR");

  EXPECT_EQ(Failed, nullptr);
  EXPECT_NE(Err.find("under " + Missing + ":"), std::string::npos) << Err;
  EXPECT_NE(Built, nullptr) << OkErr;
}

TEST(Backend, ArtifactRunMatchesAstOracle) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  Lowered L("gs");
  ASSERT_TRUE(L.C.Ok) << L.C.Error;
  std::string Err;
  auto Artifact =
      backend::cBackend().compile(L.C.unit(), *L.C.Cfgs, L.Bc, {}, &Err);
  ASSERT_NE(Artifact, nullptr) << Err;
  for (const ProgramInput &Input : L.C.Spec->Inputs) {
    InterpOptions AstOpts;
    AstOpts.Engine = InterpEngine::Ast;
    RunResult A = runProgram(L.C.unit(), *L.C.Cfgs, Input, AstOpts);
    RunResult N = Artifact->run(L.C.unit(), *L.C.Cfgs, Input, {});
    std::string What = "gs/" + Input.Name;
    EXPECT_EQ(A.Ok, N.Ok) << What;
    EXPECT_EQ(A.ExitCode, N.ExitCode) << What;
    EXPECT_EQ(A.Output, N.Output) << What;
    EXPECT_EQ(A.StepsExecuted, N.StepsExecuted) << What;
    EXPECT_EQ(A.TheProfile.TotalCycles, N.TheProfile.TotalCycles) << What;
    ASSERT_TRUE(A.TheProfile.shapeMatches(N.TheProfile)) << What;
    for (size_t F = 0; F < A.TheProfile.Functions.size(); ++F) {
      EXPECT_EQ(A.TheProfile.Functions[F].BlockCounts,
                N.TheProfile.Functions[F].BlockCounts)
          << What << " fn " << F;
      EXPECT_EQ(A.TheProfile.Functions[F].ArcCounts,
                N.TheProfile.Functions[F].ArcCounts)
          << What << " fn " << F;
    }
    EXPECT_EQ(A.TheProfile.CallSiteCounts, N.TheProfile.CallSiteCounts)
        << What;
  }
}

/// Layout-true emission: compiling for a profile-driven layout must
/// produce a *different* translation unit (the layout is real
/// instruction-stream structure, not metadata) whose observable
/// behavior — profile, output, steps — is bit-identical to the identity
/// artifact, and whose reported layout cost matches the layout the plan
/// was built from.
TEST(Backend, LayoutTrueEmissionPreservesSemantics) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  const SuiteProgram *P = findSuiteProgram("compress");
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileAndProfileProgram(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  bc::BcModule Bc = bc::compileBytecode(C.unit(), *C.Cfgs);

  opt::ProgramLayout PL = opt::computeBlockLayout(
      C.unit(), *C.Cfgs,
      opt::weightsFromProfile(C.unit(), C.Profiles[0], "profile"));
  bool AnyReordered = false;
  for (const opt::FunctionLayout &F : PL.Functions)
    AnyReordered = AnyReordered || !F.isIdentity();
  ASSERT_TRUE(AnyReordered)
      << "compress layout unexpectedly identity; pick another program";

  std::string Err;
  std::string IdentitySrc = backend::cBackend().emitSource(
      C.unit(), *C.Cfgs, Bc, {}, &Err);
  ASSERT_FALSE(IdentitySrc.empty()) << Err;
  std::string LayoutSrc = backend::cBackend().emitSource(
      C.unit(), *C.Cfgs, Bc, planFromLayout(PL), &Err);
  ASSERT_FALSE(LayoutSrc.empty()) << Err;
  EXPECT_NE(IdentitySrc, LayoutSrc);

  auto Identity =
      backend::cBackend().compile(C.unit(), *C.Cfgs, Bc, {}, &Err);
  ASSERT_NE(Identity, nullptr) << Err;
  auto Layout = backend::cBackend().compile(C.unit(), *C.Cfgs, Bc,
                                            planFromLayout(PL), &Err);
  ASSERT_NE(Layout, nullptr) << Err;
  EXPECT_NE(Identity->sourceHash(), Layout->sourceHash());

  // An artifact scores LayoutCost against the layout *baked into it*
  // (layout is instruction-stream structure there, not an option), so
  // each artifact must reproduce the interpreter's score for that same
  // layout: the identity artifact matches a plain walker run, the
  // layout artifact matches a walker run scored under the plan's order.
  RunResult RId = Identity->run(C.unit(), *C.Cfgs, P->Inputs.front(), {});
  RunResult RLay = Layout->run(C.unit(), *C.Cfgs, P->Inputs.front(), {});
  EXPECT_EQ(RId.Ok, RLay.Ok);
  EXPECT_EQ(RId.Output, RLay.Output);
  EXPECT_EQ(RId.ExitCode, RLay.ExitCode);
  EXPECT_EQ(RId.StepsExecuted, RLay.StepsExecuted);
  EXPECT_EQ(RId.TheProfile.TotalCycles, RLay.TheProfile.TotalCycles);

  ProgramBlockOrder Order = PL.blockOrder();
  InterpOptions AstIdentity, AstLayout;
  AstIdentity.Engine = AstLayout.Engine = InterpEngine::Ast;
  AstLayout.Layout = &Order;
  RunResult WalkId =
      runProgram(C.unit(), *C.Cfgs, P->Inputs.front(), AstIdentity);
  RunResult WalkLay =
      runProgram(C.unit(), *C.Cfgs, P->Inputs.front(), AstLayout);
  EXPECT_EQ(RId.LayoutCost.cost(), WalkId.LayoutCost.cost());
  EXPECT_EQ(RLay.LayoutCost.cost(), WalkLay.LayoutCost.cost());
}

/// A cold compile records native.compile with one native.emit, one
/// native.cc and one native.dlopen child; a memo hit records nothing.
TEST(Backend, ColdCompileRecordsEachPhaseOnce) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  SuiteProgram SP;
  SP.Name = "phases";
  // A source no other test compiles, so the artifact cache is cold.
  SP.Source = "int main() { print_int(51977); return 0; }";
  CompiledSuiteProgram C = compileProgramOnly(SP);
  ASSERT_TRUE(C.Ok) << C.Error;
  bc::BcModule Bc = bc::compileBytecode(C.unit(), *C.Cfgs);

  auto Child = [](const obs::PhaseNode &N,
                  const std::string &Name) -> const obs::PhaseNode * {
    for (const auto &Ch : N.Children)
      if (Ch->Name == Name)
        return Ch.get();
    return nullptr;
  };
  obs::Telemetry Cold;
  Cold.install();
  std::string Err;
  auto A = backend::cBackend().compile(C.unit(), *C.Cfgs, Bc, {}, &Err);
  Cold.uninstall();
  ASSERT_NE(A, nullptr) << Err;
  const obs::PhaseNode *Compile = Child(Cold.phaseTree(), "native.compile");
  ASSERT_NE(Compile, nullptr);
  EXPECT_EQ(Compile->Count, 1u);
  ASSERT_EQ(Compile->Children.size(), 3u);
  uint64_t ChildUs = 0;
  for (const char *Name : {"native.emit", "native.cc", "native.dlopen"}) {
    const obs::PhaseNode *N = Child(*Compile, Name);
    ASSERT_NE(N, nullptr) << Name;
    EXPECT_EQ(N->Count, 1u) << Name;
    ChildUs += N->TotalUs;
  }
  EXPECT_LE(ChildUs, Compile->TotalUs);
  EXPECT_GT(Child(*Compile, "native.cc")->TotalUs, 0u);

  obs::Telemetry Hit;
  Hit.install();
  auto B = backend::cBackend().compile(C.unit(), *C.Cfgs, Bc, {}, &Err);
  Hit.uninstall();
  EXPECT_EQ(A.get(), B.get());
  EXPECT_TRUE(Hit.phaseTree().Children.empty());
}

/// Runs \p Argv with its output discarded; true on exit status 0.
bool runQuietly(const std::vector<std::string> &Argv) {
  std::string Cmd;
  for (const std::string &A : Argv)
    Cmd += "'" + A + "' ";
  Cmd += ">/dev/null 2>&1";
  return std::system(Cmd.c_str()) == 0;
}

/// The emitted C builds warning-free at exactly the product's cc flags:
/// identity and static-estimate layout-true translation units of three
/// suite programs, under hostCompileArgv plus -Wall -Werror.
TEST(Backend, EmittedCBuildsWarningFreeAtProductFlags) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  const std::string Dir = ::testing::TempDir();
  for (const char *Name : {"compress", "espresso", "xlisp"}) {
    Lowered L(Name);
    ASSERT_TRUE(L.C.Ok) << L.C.Error;
    EstimatorOptions Est;
    ProgramEstimate E = estimateProgram(L.C.unit(), *L.C.Cfgs, *L.C.CG, Est);
    backend::NativeLayoutPlan Layout = planFromLayout(opt::computeBlockLayout(
        L.C.unit(), *L.C.Cfgs,
        opt::weightsFromEstimate(L.C.unit(), *L.C.Cfgs, E, Est)));
    for (const auto &[Suffix, Plan] :
         {std::pair<const char *, backend::NativeLayoutPlan>{"", {}},
          {".layout", Layout}}) {
      std::string Err;
      std::string Src = backend::cBackend().emitSource(L.C.unit(), *L.C.Cfgs,
                                                       L.Bc, Plan, &Err);
      ASSERT_FALSE(Src.empty()) << Err;
      std::string Base = Dir + "/werror_" + Name + Suffix;
      {
        std::ofstream Out(Base + ".c", std::ios::binary);
        Out << Src;
      }
      std::vector<std::string> Argv =
          backend::hostCompileArgv(Base + ".c", Base + ".so");
      Argv.push_back("-Wall");
      Argv.push_back("-Werror");
      EXPECT_TRUE(runQuietly(Argv)) << Name << Suffix;
      std::remove((Base + ".c").c_str());
      std::remove((Base + ".so").c_str());
    }
  }
}

} // namespace
