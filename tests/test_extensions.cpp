//===- tests/test_extensions.cpp - Extension feature tests -----------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the two optional refinements beyond the paper's baseline:
/// constant loop-bound detection (§4.1's "numerical category"
/// observation) and probability-generating branch prediction (§5.1's
/// open question).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "estimators/AstEstimator.h"
#include "estimators/BranchPrediction.h"
#include "estimators/LoopBounds.h"
#include "estimators/MarkovIntra.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

using namespace sest;
using namespace sest::test;

namespace {

/// Extracts the first ForStmt of function f in \p Source.
const ForStmt *firstFor(Compiled &C) {
  const Cfg *G = C.cfg("f");
  if (!G)
    return nullptr;
  for (const auto &B : G->blocks())
    if (const auto *F = stmtDynCast<ForStmt>(B->terminatorOrigin()))
      return F;
  return nullptr;
}

std::optional<double> tripsOf(const std::string &Body) {
  auto C = compile("int f() { int s = 0;\n" + Body +
                   "\n  return s; }\nint main() { return f(); }");
  if (!C)
    return std::nullopt;
  const ForStmt *F = firstFor(*C);
  if (!F) {
    ADD_FAILURE() << "no for loop found";
    return std::nullopt;
  }
  return constantTripCount(F);
}

//===----------------------------------------------------------------------===//
// Constant trip counts
//===----------------------------------------------------------------------===//

TEST(LoopBounds, SimpleUpwardLoop) {
  auto T = tripsOf("int i; for (i = 0; i < 10; i++) s += i;");
  ASSERT_TRUE(T.has_value());
  EXPECT_DOUBLE_EQ(*T, 10.0);
}

TEST(LoopBounds, DeclInitAndInclusiveBound) {
  auto T = tripsOf("for (int i = 0; i <= 10; i++) s += i;");
  ASSERT_TRUE(T.has_value());
  EXPECT_DOUBLE_EQ(*T, 11.0);
}

TEST(LoopBounds, StridedLoopRoundsUp) {
  auto T = tripsOf("for (int i = 2; i < 10; i += 3) s += i;");
  ASSERT_TRUE(T.has_value());
  EXPECT_DOUBLE_EQ(*T, 3.0); // i = 2, 5, 8
}

TEST(LoopBounds, DownwardLoop) {
  auto T = tripsOf("for (int i = 9; i > 0; i--) s += i;");
  ASSERT_TRUE(T.has_value());
  EXPECT_DOUBLE_EQ(*T, 9.0);
}

TEST(LoopBounds, DownwardStrided) {
  auto T = tripsOf("for (int i = 10; i >= 0; i -= 2) s += i;");
  ASSERT_TRUE(T.has_value());
  EXPECT_DOUBLE_EQ(*T, 6.0); // 10 8 6 4 2 0
}

TEST(LoopBounds, MirroredComparison) {
  auto T = tripsOf("for (int i = 0; 8 > i; i++) s += i;");
  ASSERT_TRUE(T.has_value());
  EXPECT_DOUBLE_EQ(*T, 8.0);
}

TEST(LoopBounds, EmptyRangeIsZero) {
  auto T = tripsOf("for (int i = 5; i < 5; i++) s += i;");
  ASSERT_TRUE(T.has_value());
  EXPECT_DOUBLE_EQ(*T, 0.0);
}

TEST(LoopBounds, RejectsNonConstantBound) {
  auto T = tripsOf("int n = s + 3; for (int i = 0; i < n; i++) s += i;");
  EXPECT_FALSE(T.has_value());
}

TEST(LoopBounds, RejectsBodyWritingInduction) {
  auto T = tripsOf("for (int i = 0; i < 10; i++) { s += i; i += 1; }");
  EXPECT_FALSE(T.has_value());
}

TEST(LoopBounds, RejectsEscapingInduction) {
  auto T = tripsOf("int *p; for (int i = 0; i < 10; i++) { p = &i;\n"
                   "  s += *p; }");
  EXPECT_FALSE(T.has_value());
}

TEST(LoopBounds, RejectsWrongDirection) {
  auto T = tripsOf("for (int i = 0; i > 10; i++) s += i;");
  EXPECT_FALSE(T.has_value());
}

TEST(LoopBounds, CapApplies) {
  auto C = compile("int f() { int s = 0;\n"
                   "  for (int i = 0; i < 1000000; i++) s += i;\n"
                   "  return s; }\nint main() { return f(); }");
  ASSERT_TRUE(C);
  const ForStmt *F = firstFor(*C);
  ASSERT_TRUE(F);
  auto T = constantTripCount(F, /*MaxTrips=*/100.0);
  ASSERT_TRUE(T.has_value());
  EXPECT_DOUBLE_EQ(*T, 100.0);
}

TEST(LoopBounds, AstEstimatorUsesExactCounts) {
  auto C = compile("int f() { int s = 0;\n"
                   "  for (int i = 0; i < 100; i++) s += i;\n"
                   "  return s; }\nint main() { return f(); }");
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("f");
  AstEstimatorConfig Config;
  Config.Branch.UseConstantLoopBounds = true;
  std::vector<double> Est = estimateBlockFrequencies(*G, Config);
  double MaxEst = 0;
  for (double V : Est)
    MaxEst = std::max(MaxEst, V);
  EXPECT_DOUBLE_EQ(MaxEst, 101.0); // the test block
}

TEST(LoopBounds, PredictorUsesExactProbability) {
  auto C = compile("int f() { int s = 0;\n"
                   "  for (int i = 0; i < 99; i++) s += i;\n"
                   "  return s; }\nint main() { return f(); }");
  ASSERT_TRUE(C);
  BranchPredictorConfig Config;
  Config.UseConstantLoopBounds = true;
  BranchPredictor BP(Config);
  FunctionBranchPredictions P = BP.predictFunction(*C->cfg("f"));
  bool Found = false;
  for (const auto &[Id, Pred] : P.ByBlock)
    if (std::string(Pred.Heuristic) == "counted-loop") {
      EXPECT_NEAR(Pred.ProbTrue, 99.0 / 100.0, 1e-9);
      Found = true;
    }
  EXPECT_TRUE(Found);
}

TEST(LoopBounds, ExactCountsImproveMarkovAccuracy) {
  // A counted loop of 100: baseline assumes 5, refined knows 100.
  auto C = compile("int f() { int s = 0;\n"
                   "  for (int i = 0; i < 100; i++) s += i;\n"
                   "  return s; }\nint main() { return f() != 4950; }");
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("f");
  MarkovIntraConfig Base;
  MarkovIntraConfig Refined;
  Refined.Branch.UseConstantLoopBounds = true;
  double BodyBase = 0, BodyRefined = 0;
  MarkovIntraResult RBase = markovBlockFrequencies(*G, Base);
  MarkovIntraResult RRef = markovBlockFrequencies(*G, Refined);
  for (const auto &B : G->blocks()) {
    if (B->label().find("for.body") == 0) {
      BodyBase = RBase.BlockFrequencies[B->id()];
      BodyRefined = RRef.BlockFrequencies[B->id()];
    }
  }
  EXPECT_NEAR(BodyBase, 4.0, 1e-6);
  EXPECT_NEAR(BodyRefined, 100.0, 1e-6);
}

//===----------------------------------------------------------------------===//
// Adversarial constants: the counted-loop estimate folds and counts them
// in wrapping 64-bit arithmetic, never overflowing a signed host value.
//===----------------------------------------------------------------------===//

/// The predictions for function f in \p Source under the counted-loop
/// estimator (sestc --counted-loops), keyed by heuristic name.
std::map<std::string, BranchPrediction>
countedLoopPredictions(const std::string &Source) {
  auto C = compile(Source);
  if (!C) {
    ADD_FAILURE();
    return {};
  }
  BranchPredictorConfig Config;
  Config.UseConstantLoopBounds = true;
  std::map<std::string, BranchPrediction> ByHeuristic;
  for (const auto &[Id, Pred] :
       BranchPredictor(Config).predictFunction(*C->cfg("f")).ByBlock)
    ByHeuristic[Pred.Heuristic] = Pred;
  return ByHeuristic;
}

TEST(AdversarialConstants, FoldedIntArithmeticWraps) {
  // Each condition holds only under wrapping: INT64_MAX + 1, INT64_MIN -
  // 1, INT64_MAX * 2 and -INT64_MIN all overflow 64 bits.
  for (const char *Cond : {"9223372036854775807 + 1 < 0",
                           "0 - 9223372036854775807 - 2 > 0",
                           "9223372036854775807 * 2 == -2",
                           "-(0 - 9223372036854775807 - 1) < 0"}) {
    auto P = countedLoopPredictions(
        std::string("int f() { int s = 0;\n  if (") + Cond +
        ") s = 1;\n  for (int i = 0; i < 10; i++) s += i;\n"
        "  return s; }\nint main() { return f(); }");
    ASSERT_TRUE(P.count("constant")) << Cond;
    EXPECT_TRUE(P["constant"].PredictTrue) << Cond;
    EXPECT_TRUE(P.count("counted-loop")) << Cond;
  }
}

TEST(AdversarialConstants, LoopSpanWiderThanInt64IsCounted) {
  BranchPredictorConfig Defaults;
  const double Cap = Defaults.MaxConstantTrips;
  for (const char *Loop :
       {"for (int i = 0 - 9223372036854775807; i < 9223372036854775807;"
        " i++) s += i;",
        "for (int i = 9223372036854775807; i > 0 - 9223372036854775807 - 1;"
        " i--) s += i;"}) {
    auto P = countedLoopPredictions(
        std::string("int f() { int s = 0;\n  ") + Loop +
        "\n  return s; }\nint main() { return f(); }");
    ASSERT_TRUE(P.count("counted-loop")) << Loop;
    EXPECT_NEAR(P["counted-loop"].ProbTrue, Cap / (Cap + 1.0), 1e-12)
        << Loop;
  }
  // A step of -INT64_MIN has no positive counterpart: not counted.
  EXPECT_FALSE(tripsOf("for (int i = 0; i > -10;"
                       " i -= 0 - 9223372036854775807 - 1) s += i;")
                   .has_value());
}

//===----------------------------------------------------------------------===//
// Probability modes
//===----------------------------------------------------------------------===//

/// Prediction of the single if in function f.
BranchPrediction predictWithMode(const std::string &Source,
                                 ProbabilityMode Mode) {
  auto C = compile(Source);
  if (!C) {
    ADD_FAILURE();
    return {};
  }
  BranchPredictorConfig Config;
  Config.ProbMode = Mode;
  BranchPredictor BP(Config);
  FunctionBranchPredictions P = BP.predictFunction(*C->cfg("f"));
  for (const auto &[Id, Pred] : P.ByBlock)
    return Pred;
  ADD_FAILURE() << "no branch found";
  return {};
}

TEST(ProbabilityModes, PerHeuristicUsesConfidence) {
  const char *Src = "int f(int *p) { if (p == NULL) return 1;\n"
                    "  return 2; }\n"
                    "int main() { int x; return f(&x); }";
  BranchPrediction Fixed = predictWithMode(Src, ProbabilityMode::Fixed);
  BranchPrediction Per =
      predictWithMode(Src, ProbabilityMode::PerHeuristic);
  EXPECT_NEAR(Fixed.ProbTrue, 0.2, 1e-9);  // 1 - 0.8
  EXPECT_NEAR(Per.ProbTrue, 0.1, 1e-9);    // 1 - 0.90
  EXPECT_FALSE(Per.PredictTrue);
}

TEST(ProbabilityModes, DempsterShaferCombinesAgreeingEvidence) {
  // "x == limit" (opcode: unlikely) whose then-arm stores a read
  // variable (store: likely). Opposed evidence combines to something in
  // between, dominated by the stronger opcode confidence.
  const char *Src = "int f(int x, int limit) { int count = 0;\n"
                    "  if (x == limit) count = count + 1;\n"
                    "  return count; }\n"
                    "int main() { return f(1, 2); }";
  BranchPrediction DS =
      predictWithMode(Src, ProbabilityMode::DempsterShafer);
  // p(opcode says true) = 1-0.84 = 0.16; p(store says true) = 0.55.
  double True = 0.16 * 0.55;
  double False = 0.84 * 0.45;
  EXPECT_NEAR(DS.ProbTrue, True / (True + False), 1e-9);
  EXPECT_FALSE(DS.PredictTrue);
}

TEST(ProbabilityModes, DempsterShaferSingleEvidenceIsPerHeuristic) {
  const char *Src = "int f(int *p) { if (p != NULL) return 1;\n"
                    "  return 2; }\n"
                    "int main() { int x; return f(&x); }";
  BranchPrediction DS =
      predictWithMode(Src, ProbabilityMode::DempsterShafer);
  BranchPrediction Per =
      predictWithMode(Src, ProbabilityMode::PerHeuristic);
  EXPECT_NEAR(DS.ProbTrue, Per.ProbTrue, 1e-9);
}

TEST(ProbabilityModes, MarkovIntraAcceptsAllModes) {
  auto C = compile("int f(int *p, int n) { int s = 0;\n"
                   "  while (n > 0) {\n"
                   "    if (p != NULL && n % 2 == 0) s++;\n"
                   "    n--;\n"
                   "  }\n"
                   "  return s; }\n"
                   "int main() { int x; return f(&x, 10); }");
  ASSERT_TRUE(C);
  for (ProbabilityMode Mode :
       {ProbabilityMode::Fixed, ProbabilityMode::PerHeuristic,
        ProbabilityMode::DempsterShafer}) {
    MarkovIntraConfig Config;
    Config.Branch.ProbMode = Mode;
    MarkovIntraResult R =
        markovBlockFrequencies(*C->cfg("f"), Config);
    for (double V : R.BlockFrequencies) {
      EXPECT_GE(V, 0.0);
      EXPECT_LT(V, 1e6);
    }
  }
}

} // namespace
