//===- tests/test_suite.cpp - Benchmark-suite integration tests ------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "suite/Suite.h"
#include "suite/SuiteRunner.h"

#include <gtest/gtest.h>

#include <set>

using namespace sest;

namespace {

TEST(Suite, HasFourteenPrograms) {
  EXPECT_EQ(benchmarkSuite().size(), 14u);
  std::set<std::string> Names;
  for (const SuiteProgram &P : benchmarkSuite())
    Names.insert(P.Name);
  EXPECT_EQ(Names.size(), 14u) << "duplicate program names";
}

TEST(Suite, EveryProgramHasAtLeastFourInputs) {
  for (const SuiteProgram &P : benchmarkSuite())
    EXPECT_GE(P.Inputs.size(), 4u) << P.Name;
}

TEST(Suite, FindByName) {
  EXPECT_NE(findSuiteProgram("compress"), nullptr);
  EXPECT_NE(findSuiteProgram("xlisp"), nullptr);
  EXPECT_EQ(findSuiteProgram("no-such-program"), nullptr);
}

TEST(Suite, SourceLineCountsAreSane) {
  for (const SuiteProgram &P : benchmarkSuite()) {
    EXPECT_GT(P.sourceLines(), 60u) << P.Name;
    EXPECT_LT(P.sourceLines(), 2000u) << P.Name;
  }
}

/// One parameterized test instance per program: compile, run all inputs,
/// check profiles.
class SuiteProgramTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteProgramTest, CompilesAndRunsAllInputs) {
  const SuiteProgram *P = findSuiteProgram(GetParam());
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileAndProfileProgram(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  ASSERT_EQ(C.Profiles.size(), P->Inputs.size());

  // Every input must exercise main at least once, and profiles of
  // different inputs must not be all identical (inputs are distinct).
  const FunctionDecl *Main = C.unit().findFunction("main");
  ASSERT_NE(Main, nullptr);
  for (const Profile &Prof : C.Profiles) {
    EXPECT_EQ(Prof.Functions[Main->functionId()].EntryCount, 1.0);
    EXPECT_GT(Prof.totalBlockCount(), 0.0);
  }
}

TEST_P(SuiteProgramTest, ProfilesAreDeterministic) {
  const SuiteProgram *P = findSuiteProgram(GetParam());
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram A = compileAndProfileProgram(*P);
  CompiledSuiteProgram B = compileAndProfileProgram(*P);
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(B.Ok) << B.Error;
  for (size_t I = 0; I < A.Profiles.size(); ++I) {
    EXPECT_EQ(A.Profiles[I].totalBlockCount(),
              B.Profiles[I].totalBlockCount());
    EXPECT_EQ(A.Profiles[I].TotalCycles, B.Profiles[I].TotalCycles);
  }
}

TEST_P(SuiteProgramTest, FlowConservationHolds) {
  const SuiteProgram *P = findSuiteProgram(GetParam());
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileAndProfileProgram(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  // Sum of outgoing arcs equals the block count for every block with
  // successors, in every profile.
  for (const Profile &Prof : C.Profiles) {
    for (const auto &[F, G] : C.Cfgs->all()) {
      const FunctionProfile &FP = Prof.Functions[F->functionId()];
      for (const auto &B : G->blocks()) {
        if (B->successors().empty())
          continue;
        double Out = 0;
        for (double A : FP.ArcCounts[B->id()])
          Out += A;
        EXPECT_DOUBLE_EQ(Out, FP.BlockCounts[B->id()])
            << P->Name << "/" << F->name() << "/" << B->label();
      }
    }
  }
}

std::vector<std::string> allProgramNames() {
  std::vector<std::string> Names;
  for (const SuiteProgram &P : benchmarkSuite())
    Names.push_back(P.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, SuiteProgramTest, ::testing::ValuesIn(allProgramNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

/// The xlisp and gs stand-ins must exhibit the paper's function-pointer
/// structure.
TEST(Suite, XlispDispatchesBuiltinsThroughPointers) {
  const SuiteProgram *P = findSuiteProgram("xlisp");
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  EXPECT_FALSE(C.CG->indirectSites().empty());
  EXPECT_GE(C.CG->addressTakenFunctions().size(), 10u);
}

TEST(Suite, GsHasManyIndirectlyReferencedFunctions) {
  const SuiteProgram *P = findSuiteProgram("gs");
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  // "about half the functions in the program" are referenced indirectly.
  size_t Defined = 0;
  for (const FunctionDecl *F : C.unit().Functions)
    if (F->isDefined())
      ++Defined;
  EXPECT_GE(C.CG->addressTakenFunctions().size(), Defined * 2 / 5);
}

TEST(Suite, CompressHasSixteenFunctions) {
  const SuiteProgram *P = findSuiteProgram("compress");
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  size_t Defined = 0;
  for (const FunctionDecl *F : C.unit().Functions)
    if (F->isDefined())
      ++Defined;
  EXPECT_EQ(Defined, 16u);
}

/// The suite pass's recorded identity runs are what the tuner and the
/// opt report compare against instead of re-running, so every recorded
/// output, exit code and layout-cost counter must equal a fresh run, on
/// either interpreter engine and at any job count.
TEST(SuiteRunner, RecordedBaselinesMatchFreshIdentityRuns) {
  for (InterpEngine Engine : {InterpEngine::Ast, InterpEngine::Bytecode}) {
    InterpOptions Options;
    Options.Engine = Engine;
    const std::vector<CompiledSuiteProgram> Serial =
        compileAndProfileSuite(Options, 1);
    const std::vector<CompiledSuiteProgram> Parallel =
        compileAndProfileSuite(Options, 4);
    ASSERT_EQ(Serial.size(), Parallel.size());
    for (size_t P = 0; P < Serial.size(); ++P) {
      const CompiledSuiteProgram &C = Serial[P];
      ASSERT_TRUE(C.Ok) << C.Error;
      ASSERT_TRUE(Parallel[P].Ok) << Parallel[P].Error;
      const std::vector<ProgramInput> &Inputs = C.Spec->Inputs;
      ASSERT_EQ(C.RunStats.size(), Inputs.size()) << C.Spec->Name;
      ASSERT_EQ(Parallel[P].RunStats.size(), Inputs.size()) << C.Spec->Name;
      for (size_t I = 0; I < Inputs.size(); ++I) {
        const RunResult Fresh =
            runProgram(C.unit(), *C.Cfgs, Inputs[I], Options);
        ASSERT_TRUE(Fresh.Ok) << Fresh.Error;
        for (const CompiledSuiteProgram *Rec : {&C, &Parallel[P]}) {
          const SuiteRunStats &S = Rec->RunStats[I];
          const std::string Where = std::string(interpEngineName(Engine)) +
                                    " " + C.Spec->Name + "/" +
                                    Inputs[I].Name;
          EXPECT_EQ(S.Output, Fresh.Output) << Where;
          EXPECT_EQ(S.ExitCode, Fresh.ExitCode) << Where;
          EXPECT_EQ(S.LayoutCost, Fresh.LayoutCost) << Where;
        }
      }
    }
  }
}

} // namespace
