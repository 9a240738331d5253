//===- tests/test_estimators.cpp - Estimator unit tests --------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "callgraph/CallGraph.h"
#include "estimators/AstEstimator.h"
#include "estimators/BranchPrediction.h"
#include "estimators/InterEstimators.h"
#include "estimators/MarkovIntra.h"
#include "estimators/Pipeline.h"

#include <gtest/gtest.h>

using namespace sest;
using namespace sest::test;

namespace {

const char *StrchrSource = R"(
char *strchr(char *str, int c) {
  while (*str) {
    if (*str == c)
      return str;
    str++;
  }
  return NULL;
}
int main() { return 0; }
)";

/// Block estimates keyed by label for readable assertions.
std::map<std::string, double> estimatesByLabel(const Cfg &G,
                                               std::vector<double> Est) {
  std::map<std::string, double> Out;
  for (const auto &B : G.blocks())
    Out[B->label()] = Est[B->id()];
  return Out;
}

//===----------------------------------------------------------------------===//
// Branch prediction heuristics
//===----------------------------------------------------------------------===//

/// The prediction of the single if-branch in \p Body.
BranchPrediction predictSingleIf(const std::string &Body) {
  auto C = compile(Body);
  if (!C) {
    ADD_FAILURE();
    return {};
  }
  const Cfg *G = C->cfg("f");
  BranchPredictor BP;
  FunctionBranchPredictions P = BP.predictFunction(*G);
  for (const auto &B : G->blocks()) {
    if (B->terminator() == TerminatorKind::CondBranch &&
        B->terminatorOrigin() &&
        B->terminatorOrigin()->kind() == StmtKind::If) {
      auto It = P.ByBlock.find(B->id());
      if (It != P.ByBlock.end())
        return It->second;
    }
  }
  ADD_FAILURE() << "no if-branch found";
  return {};
}

TEST(BranchPredictor, PointerNullTestPredictedFalse) {
  BranchPrediction P = predictSingleIf(
      "int f(int *p) { if (p == NULL) return 1; return 2; }\n"
      "int main() { int x; return f(&x); }");
  EXPECT_FALSE(P.PredictTrue);
  EXPECT_STREQ(P.Heuristic, "pointer");
  EXPECT_NEAR(P.ProbTrue, 0.2, 1e-9);
}

TEST(BranchPredictor, PointerNotNullPredictedTrue) {
  BranchPrediction P = predictSingleIf(
      "int f(int *p) { if (p != NULL) return 1; return 2; }\n"
      "int main() { int x; return f(&x); }");
  EXPECT_TRUE(P.PredictTrue);
  EXPECT_STREQ(P.Heuristic, "pointer");
}

TEST(BranchPredictor, BarePointerConditionPredictedTrue) {
  BranchPrediction P = predictSingleIf(
      "int f(int *p) { if (p) return 1; return 2; }\n"
      "int main() { int x; return f(&x); }");
  EXPECT_TRUE(P.PredictTrue);
  EXPECT_STREQ(P.Heuristic, "pointer");
}

TEST(BranchPredictor, NegatedConditionInverts) {
  BranchPrediction P = predictSingleIf(
      "int f(int *p) { if (!p) return 1; return 2; }\n"
      "int main() { int x; return f(&x); }");
  EXPECT_FALSE(P.PredictTrue);
  EXPECT_NEAR(P.ProbTrue, 0.2, 1e-9);
}

TEST(BranchPredictor, ErrorPathPredictedUnlikely) {
  BranchPrediction P = predictSingleIf(
      "int f(int x) { if (x > 10) { print_int(x); abort(); } return 2; }\n"
      "int main() { return f(1); }");
  EXPECT_FALSE(P.PredictTrue);
  EXPECT_STREQ(P.Heuristic, "error");
}

TEST(BranchPredictor, ErrorInElsePredictsThen) {
  BranchPrediction P = predictSingleIf(
      "int f(int x) { if (x > 10) return 1; else exit(1); return 2; }\n"
      "int main() { return f(1); }");
  EXPECT_TRUE(P.PredictTrue);
  EXPECT_STREQ(P.Heuristic, "error");
}

TEST(BranchPredictor, EqualityPredictedFalse) {
  BranchPrediction P = predictSingleIf(
      "int f(int x, int y) { if (x == y) return 1; return 2; }\n"
      "int main() { return f(1, 2); }");
  EXPECT_FALSE(P.PredictTrue);
  EXPECT_STREQ(P.Heuristic, "opcode");
}

TEST(BranchPredictor, NegativeComparisonPredictedFalse) {
  BranchPrediction P = predictSingleIf(
      "int f(int x) { if (x < 0) return 1; return 2; }\n"
      "int main() { return f(1); }");
  EXPECT_FALSE(P.PredictTrue);
  EXPECT_STREQ(P.Heuristic, "opcode");
}

TEST(BranchPredictor, MultipleAndsPredictedFalse) {
  BranchPrediction P = predictSingleIf(
      "int f(int x, int y, int z) { if (x < y && y < z && z < 10)\n"
      "    return 1; return 2; }\n"
      "int main() { return f(1, 2, 3); }");
  EXPECT_FALSE(P.PredictTrue);
  EXPECT_STREQ(P.Heuristic, "and");
}

TEST(BranchPredictor, StoreHeuristicFavorsWritingArm) {
  BranchPrediction P = predictSingleIf(
      "int f(int x, int best) {\n"
      "  if (x > best) best = x;\n"
      "  return best; }\n"
      "int main() { return f(3, 1); }");
  EXPECT_TRUE(P.PredictTrue);
  EXPECT_STREQ(P.Heuristic, "store");
}

TEST(BranchPredictor, ConstantConditionFlagged) {
  BranchPrediction P = predictSingleIf(
      "int f(int x) { if (3 > 2) return 1; return x; }\n"
      "int main() { return f(1); }");
  EXPECT_TRUE(P.PredictTrue);
  EXPECT_TRUE(P.ConstantCondition);
  EXPECT_EQ(P.ProbTrue, 1.0);
}

// INT64_MIN / -1 would trap if folded; the predictor must treat the
// condition as non-constant rather than crash.
TEST(BranchPredictor, OverflowingDivisionIsNotConstant) {
  for (const char *Op : {"/", "%"}) {
    BranchPrediction P = predictSingleIf(
        std::string("int f(int x) { if ((-9223372036854775807 - 1) ") + Op +
        " -1) return 1; return x; }\nint main() { return f(1); }");
    EXPECT_FALSE(P.ConstantCondition) << Op;
  }
}

TEST(BranchPredictor, LoopConditionGetsLoopModelProbability) {
  auto C = compile("int f(int n) { int s = 0;\n"
                   "  while (n > 0) { s += n; n--; }\n"
                   "  return s; }\n"
                   "int main() { return f(3); }");
  ASSERT_TRUE(C);
  BranchPredictor BP;
  FunctionBranchPredictions P = BP.predictFunction(*C->cfg("f"));
  bool Found = false;
  for (const auto &[Id, Pred] : P.ByBlock) {
    if (std::string(Pred.Heuristic) == "loop") {
      EXPECT_TRUE(Pred.PredictTrue);
      EXPECT_NEAR(Pred.ProbTrue, 0.8, 1e-9); // (5-1)/5
      Found = true;
    }
  }
  EXPECT_TRUE(Found);
}

TEST(BranchPredictor, HeuristicsCanBeDisabled) {
  BranchPredictorConfig Config;
  Config.UsePointerHeuristic = false;
  Config.UseOpcodeHeuristic = false;
  Config.UseAndHeuristic = false;
  Config.UseErrorHeuristic = false;
  Config.UseStoreHeuristic = false;
  auto C = compile("int f(int *p) { if (p == NULL) return 1; return 2; }\n"
                   "int main() { int x; return f(&x); }");
  ASSERT_TRUE(C);
  BranchPredictor BP(Config);
  FunctionBranchPredictions P = BP.predictFunction(*C->cfg("f"));
  for (const auto &[Id, Pred] : P.ByBlock)
    EXPECT_STREQ(Pred.Heuristic, "default");
}

TEST(BranchPredictor, SwitchCaseLabelWeighting) {
  auto C = compile("int f(int x) { switch (x) {\n"
                   "  case 1: return 1;\n"
                   "  case 2: return 2;\n"
                   "  case 3: return 3;\n"
                   "  } return 0; }\n"
                   "int main() { return f(1); }");
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("f");
  const BasicBlock *Sw = nullptr;
  for (const auto &B : G->blocks())
    if (B->terminator() == TerminatorKind::Switch)
      Sw = B.get();
  ASSERT_TRUE(Sw);
  BranchPredictor BP;
  std::vector<double> Probs = BP.switchArmProbabilities(Sw);
  ASSERT_EQ(Probs.size(), 4u); // 3 cases + default
  double Sum = 0;
  for (double P : Probs) {
    EXPECT_NEAR(P, 0.25, 1e-9);
    Sum += P;
  }
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

//===----------------------------------------------------------------------===//
// AST estimators (Figure 3)
//===----------------------------------------------------------------------===//

TEST(AstEstimator, StrchrMatchesPaperFigure3) {
  auto C = compile(StrchrSource);
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("strchr");
  AstEstimatorConfig Config;
  Config.Kind = IntraEstimatorKind::Smart;
  auto Est = estimatesByLabel(*G, estimateBlockFrequencies(*G, Config));

  // Figure 3 / Table 2 estimate column: while test 5, loop-body items 4,
  // predicted-false then-arm (return str) 0.2*4 = 0.8, the increment —
  // a sibling of the if, whose early return the AST model ignores — 4,
  // and the return after the loop 1.
  EXPECT_NEAR(Est["while.cond"], 5.0, 1e-9);
  EXPECT_NEAR(Est["while.body"], 4.0, 1e-9);
  EXPECT_NEAR(Est["if.then"], 0.8, 1e-9);
  EXPECT_NEAR(Est["if.end"], 4.0, 1e-9);
  EXPECT_NEAR(Est["while.end"], 1.0, 1e-9);
}

TEST(AstEstimator, LoopModeUsesEvenSplit) {
  auto C = compile(StrchrSource);
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("strchr");
  AstEstimatorConfig Config;
  Config.Kind = IntraEstimatorKind::Loop;
  auto Est = estimatesByLabel(*G, estimateBlockFrequencies(*G, Config));
  EXPECT_NEAR(Est["while.cond"], 5.0, 1e-9);
  EXPECT_NEAR(Est["if.then"], 2.0, 1e-9); // 50/50 of 4
  EXPECT_NEAR(Est["if.end"], 4.0, 1e-9);  // join = parent frequency
}

TEST(AstEstimator, ConfigurableLoopCount) {
  auto C = compile(StrchrSource);
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("strchr");
  AstEstimatorConfig Config;
  Config.Kind = IntraEstimatorKind::Loop;
  Config.LoopIterations = 10.0;
  auto Est = estimatesByLabel(*G, estimateBlockFrequencies(*G, Config));
  EXPECT_NEAR(Est["while.cond"], 10.0, 1e-9);
  EXPECT_NEAR(Est["while.body"], 9.0, 1e-9);
}

TEST(AstEstimator, NestedLoopsMultiply) {
  auto C = compile("int f() { int s = 0; int i; int j;\n"
                   "  for (i = 0; i < 9; i++)\n"
                   "    for (j = 0; j < 9; j++)\n"
                   "      s++;\n"
                   "  return s; }\n"
                   "int main() { return f(); }");
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("f");
  AstEstimatorConfig Config;
  Config.Kind = IntraEstimatorKind::Loop;
  std::vector<double> Est = estimateBlockFrequencies(*G, Config);
  // Inner loop body: 4 * 4 = 16 per entry.
  double MaxEst = 0;
  for (double V : Est)
    MaxEst = std::max(MaxEst, V);
  EXPECT_NEAR(MaxEst, 20.0, 1e-9); // inner test runs 4*5
}

TEST(AstEstimator, SwitchArmsSplitFrequency) {
  auto C = compile("int f(int x) { int r = 0; switch (x) {\n"
                   "  case 1: r = 1; break;\n"
                   "  case 2: r = 2; break;\n"
                   "  default: r = 9;\n"
                   "  } return r; }\n"
                   "int main() { return f(1); }");
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("f");
  AstEstimatorConfig Config;
  auto Est = estimatesByLabel(*G, estimateBlockFrequencies(*G, Config));
  EXPECT_NEAR(Est["case"], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(Est["case1"], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(Est["default"], 1.0 / 3.0, 1e-9);
}

//===----------------------------------------------------------------------===//
// Markov intra-procedural model (Figures 6-7)
//===----------------------------------------------------------------------===//

TEST(MarkovIntra, StrchrMatchesPaperFigure7) {
  auto C = compile(StrchrSource);
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("strchr");
  MarkovIntraConfig Config;
  MarkovIntraResult R = markovBlockFrequencies(*G, Config);
  auto Est = estimatesByLabel(*G, R.BlockFrequencies);

  // Figure 7's solution: entry/while 2.78, if 2.22, return1 0.44,
  // incr 1.78, return2 0.56. Our entry block *is* the while test.
  EXPECT_NEAR(Est["while.cond"], 2.7777, 1e-3);
  EXPECT_NEAR(Est["while.body"], 2.2222, 1e-3);
  EXPECT_NEAR(Est["if.then"], 0.4444, 1e-3);
  EXPECT_NEAR(Est["if.end"], 1.7777, 1e-3);
  EXPECT_NEAR(Est["while.end"], 0.5555, 1e-3);
  EXPECT_FALSE(R.Repaired);
}

TEST(MarkovIntra, ReflectsEarlyReturn) {
  // The Markov model sees the return inside the loop: the while test
  // frequency (2.78) is far below the AST model's 5 (paper §5.1).
  auto C = compile(StrchrSource);
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("strchr");
  MarkovIntraResult R = markovBlockFrequencies(*G, MarkovIntraConfig());
  AstEstimatorConfig AstConfig;
  std::vector<double> Ast = estimateBlockFrequencies(*G, AstConfig);
  auto MarkovEst = estimatesByLabel(*G, R.BlockFrequencies);
  auto AstEst = estimatesByLabel(*G, Ast);
  EXPECT_LT(MarkovEst["while.cond"], AstEst["while.cond"]);
}

TEST(MarkovIntra, FlowConservation) {
  auto C = compile("int f(int n) { int s = 0; int i;\n"
                   "  for (i = 0; i < n; i++) {\n"
                   "    if (i % 3 == 0) continue;\n"
                   "    if (i > 100) break;\n"
                   "    s += i;\n"
                   "  }\n"
                   "  return s; }\n"
                   "int main() { return f(10); }");
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("f");
  MarkovIntraResult R = markovBlockFrequencies(*G, MarkovIntraConfig());
  // f(block) = entry + sum of incoming arc flows.
  for (const auto &B : G->blocks()) {
    double In = B.get() == G->entry() ? 1.0 : 0.0;
    for (const auto &P : G->blocks())
      for (size_t S = 0; S < P->successors().size(); ++S)
        if (P->successors()[S] == B.get())
          In += R.ArcFrequencies[P->id()][S];
    EXPECT_NEAR(In, R.BlockFrequencies[B->id()], 1e-9) << B->label();
  }
}

TEST(MarkovIntra, InfiniteLoopRepairs) {
  auto C = compile("int f() { for (;;) {} return 0; }\n"
                   "int main() { return 0; }");
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("f");
  MarkovIntraResult R = markovBlockFrequencies(*G, MarkovIntraConfig());
  EXPECT_TRUE(R.Repaired);
  for (double V : R.BlockFrequencies) {
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1e15);
  }
}

//===----------------------------------------------------------------------===//
// Inter-procedural estimators
//===----------------------------------------------------------------------===//

struct InterFixture {
  std::unique_ptr<Compiled> C;
  std::unique_ptr<CallGraph> CG;
  IntraEstimates Intra;

  explicit InterFixture(const std::string &Source,
                        IntraEstimatorKind Kind = IntraEstimatorKind::Smart) {
    C = compile(Source);
    if (!C)
      return;
    CG = std::make_unique<CallGraph>(
        CallGraph::build(C->unit(), *C->Cfgs));
    EstimatorOptions Options;
    Options.Intra = Kind;
    Intra = computeIntraEstimates(C->unit(), *C->Cfgs, Options);
  }

  std::vector<double> functions(InterEstimatorKind K) {
    return estimateFunctionFrequencies(K, C->unit(), *CG, Intra);
  }
  double fn(const std::vector<double> &Est, const std::string &Name) {
    return Est[C->fn(Name)->functionId()];
  }
};

TEST(InterEstimators, StraightLineCallsSum) {
  InterFixture F("void g() {}\n"
                 "void h() { g(); g(); }\n"
                 "int main() { g(); h(); return 0; }");
  ASSERT_TRUE(F.C);
  std::vector<double> Est = F.functions(InterEstimatorKind::CallSite);
  EXPECT_NEAR(F.fn(Est, "main"), 1.0, 1e-9);
  EXPECT_NEAR(F.fn(Est, "h"), 1.0, 1e-9);
  // g: one site in main (freq 1) + two sites in h (freq 1 each).
  EXPECT_NEAR(F.fn(Est, "g"), 3.0, 1e-9);
}

TEST(InterEstimators, DirectMultipliesSelfRecursion) {
  InterFixture F("int fact(int n) { if (n <= 1) return 1;\n"
                 "  return n * fact(n - 1); }\n"
                 "int main() { return fact(5); }");
  ASSERT_TRUE(F.C);
  std::vector<double> CallSite = F.functions(InterEstimatorKind::CallSite);
  std::vector<double> Direct = F.functions(InterEstimatorKind::Direct);
  EXPECT_NEAR(F.fn(Direct, "fact"), F.fn(CallSite, "fact") * 5.0, 1e-9);
  EXPECT_NEAR(F.fn(Direct, "main"), F.fn(CallSite, "main"), 1e-9);
}

TEST(InterEstimators, AllRecCoversMutualRecursion) {
  InterFixture F("int odd(int n);\n"
                 "int even(int n) { if (n == 0) return 1;\n"
                 "  return odd(n - 1); }\n"
                 "int odd(int n) { if (n == 0) return 0;\n"
                 "  return even(n - 1); }\n"
                 "int main() { return even(8); }");
  ASSERT_TRUE(F.C);
  std::vector<double> Direct = F.functions(InterEstimatorKind::Direct);
  std::vector<double> AllRec = F.functions(InterEstimatorKind::AllRec);
  // direct doesn't see the mutual cycle; all_rec multiplies both by 5.
  EXPECT_NEAR(F.fn(AllRec, "even"), F.fn(Direct, "even") * 5.0, 1e-9);
  EXPECT_NEAR(F.fn(AllRec, "odd"), F.fn(Direct, "odd") * 5.0, 1e-9);
}

TEST(InterEstimators, AllRec2RescalesThroughBlocks) {
  InterFixture F("void leaf() {}\n"
                 "void spin(int n) { leaf(); if (n) spin(n - 1); }\n"
                 "int main() { spin(10); return 0; }");
  ASSERT_TRUE(F.C);
  std::vector<double> AllRec = F.functions(InterEstimatorKind::AllRec);
  std::vector<double> AllRec2 = F.functions(InterEstimatorKind::AllRec2);
  // leaf is called from spin, whose counts all_rec2 scales up by spin's
  // all_rec estimate.
  EXPECT_GT(F.fn(AllRec2, "leaf"), F.fn(AllRec, "leaf"));
}

TEST(InterEstimators, MarkovChainOfCalls) {
  // main calls g three times in straight line; g calls h once.
  InterFixture F("void h() {}\n"
                 "void g() { h(); }\n"
                 "int main() { g(); g(); g(); return 0; }");
  ASSERT_TRUE(F.C);
  std::vector<double> Est = F.functions(InterEstimatorKind::Markov);
  EXPECT_NEAR(F.fn(Est, "main"), 1.0, 1e-9);
  EXPECT_NEAR(F.fn(Est, "g"), 3.0, 1e-9);
  EXPECT_NEAR(F.fn(Est, "h"), 3.0, 1e-9);
}

TEST(InterEstimators, MarkovGeometricRecursion) {
  // spin recurses behind an 80/20 loop-like if: arc spin->spin carries
  // the recursive call's local frequency.
  InterFixture F("int spin(int n) { if (n <= 0) return 0;\n"
                 "  return spin(n - 1); }\n"
                 "int main() { return spin(10); }");
  ASSERT_TRUE(F.C);
  std::vector<double> Est = F.functions(InterEstimatorKind::Markov);
  // Opcode heuristic: "n <= 0" unlikely -> recursive arm has local freq
  // 0.8; f(spin) = 1 + 0.8 f(spin) = 5.
  EXPECT_NEAR(F.fn(Est, "spin"), 5.0, 1e-6);
}

TEST(InterEstimators, MarkovRepairsCountNodesPattern) {
  // The paper's Figure 8: two recursive calls in the likely arm give the
  // self-arc weight 1.6 > 1, which must be reset to 0.8.
  InterFixture F(
      "struct tree_node { int v; struct tree_node *left;\n"
      "  struct tree_node *right; };\n"
      "int count_nodes(struct tree_node *node) {\n"
      "  if (node == NULL) return 0;\n"
      "  return count_nodes(node->left) + count_nodes(node->right) + 1;\n"
      "}\n"
      "int main() { return count_nodes(NULL); }");
  ASSERT_TRUE(F.C);
  std::vector<double> Est = F.functions(InterEstimatorKind::Markov);
  double CN = F.fn(Est, "count_nodes");
  // With the repaired 0.8 self-arc: f = 1 + 0.8 f  =>  f = 5.
  EXPECT_GT(CN, 0.0);
  EXPECT_NEAR(CN, 5.0, 1e-6);
}

TEST(InterEstimators, PointerNodeSplitsByAddressCounts) {
  // Two address-taken functions: a referenced twice, b once. Indirect
  // calls split 2:1.
  InterFixture F("int fa() { return 1; }\n"
                 "int fb() { return 2; }\n"
                 "int (*t1)() = fa;\n"
                 "int (*t2)() = fa;\n"
                 "int (*t3)() = fb;\n"
                 "int main() { return t1() + t2() + t3(); }");
  ASSERT_TRUE(F.C);
  std::vector<double> Est = F.functions(InterEstimatorKind::Markov);
  double A = F.fn(Est, "fa");
  double B = F.fn(Est, "fb");
  EXPECT_NEAR(A / B, 2.0, 1e-6);
  // Same split for the simple estimators.
  std::vector<double> Simple = F.functions(InterEstimatorKind::CallSite);
  EXPECT_NEAR(F.fn(Simple, "fa") / F.fn(Simple, "fb"), 2.0, 1e-6);
}

TEST(InterEstimators, CallSiteFrequenciesCombineIntraAndInter) {
  InterFixture F("void g() {}\n"
                 "void h() { int i; for (i = 0; i < 8; i++) g(); }\n"
                 "int main() { h(); h(); return 0; }");
  ASSERT_TRUE(F.C);
  std::vector<double> Fn = F.functions(InterEstimatorKind::Markov);
  std::vector<double> Sites = estimateCallSiteFrequencies(
      F.C->unit(), *F.CG, F.Intra, Fn);
  // The g() site: local freq 4 (loop body) times h's invocation count 2.
  double GSite = -1;
  for (const CallSiteInfo &S : F.CG->sites())
    if (S.Callee && S.Callee->name() == "g")
      GSite = Sites[S.CallSiteId];
  EXPECT_NEAR(GSite, 8.0, 1e-6);
}

TEST(InterEstimators, CallArcsMergeSitesPerPair) {
  InterFixture F("void g() {}\n"
                 "void h() { g(); g(); }\n"
                 "int main() { h(); g(); return 0; }");
  ASSERT_TRUE(F.C);
  std::vector<double> Fn = F.functions(InterEstimatorKind::Markov);
  std::vector<CallArcEstimate> Arcs = estimateCallArcFrequencies(
      F.C->unit(), *F.CG, F.Intra, Fn);
  // Arcs: main->h (1), main->g (1), h->g (2 sites, freq 2).
  ASSERT_EQ(Arcs.size(), 3u);
  const CallArcEstimate *HG = nullptr;
  for (const CallArcEstimate &A : Arcs)
    if (A.Caller->name() == "h" && A.Callee->name() == "g")
      HG = &A;
  ASSERT_NE(HG, nullptr);
  EXPECT_EQ(HG->NumSites, 2u);
  EXPECT_NEAR(HG->Frequency, 2.0, 1e-9);
  // Sorted descending: the h->g arc comes first.
  EXPECT_EQ(&Arcs[0], HG);
}

TEST(InterEstimators, IndirectSitesOmittedFromCallSiteEstimates) {
  InterFixture F("int fa() { return 1; }\n"
                 "int (*t)() = fa;\n"
                 "int main() { return t(); }");
  ASSERT_TRUE(F.C);
  std::vector<double> Fn = F.functions(InterEstimatorKind::Markov);
  std::vector<double> Sites = estimateCallSiteFrequencies(
      F.C->unit(), *F.CG, F.Intra, Fn);
  ASSERT_EQ(F.CG->indirectSites().size(), 1u);
  EXPECT_LT(Sites[F.CG->indirectSites()[0]->CallSiteId], 0.0);
}

//===----------------------------------------------------------------------===//
// Pipeline
//===----------------------------------------------------------------------===//

TEST(Pipeline, EstimateProgramProducesAllLayers) {
  auto C = compile("int work(int n) { int s = 0; int i;\n"
                   "  for (i = 0; i < n; i++) s += i;\n"
                   "  return s; }\n"
                   "int main() { return work(10); }");
  ASSERT_TRUE(C);
  CallGraph CG = CallGraph::build(C->unit(), *C->Cfgs);
  EstimatorOptions Options;
  ProgramEstimate E = estimateProgram(C->unit(), *C->Cfgs, CG, Options);
  EXPECT_EQ(E.FunctionEstimates.size(), C->unit().Functions.size());
  EXPECT_EQ(E.CallSiteEstimates.size(), C->unit().NumCallSites);
  EXPECT_FALSE(E.BlockEstimates[C->fn("work")->functionId()].empty());
  EXPECT_NEAR(E.FunctionEstimates[C->fn("main")->functionId()], 1.0, 1e-9);
}

TEST(Pipeline, GlobalBlockEstimatesScaleByInvocation) {
  auto C = compile("void g() { print_int(1); }\n"
                   "int main() { int i;\n"
                   "  for (i = 0; i < 12; i++) g();\n"
                   "  return 0; }");
  ASSERT_TRUE(C);
  CallGraph CG = CallGraph::build(C->unit(), *C->Cfgs);
  EstimatorOptions Options;
  ProgramEstimate E = estimateProgram(C->unit(), *C->Cfgs, CG, Options);
  auto Global = globalBlockEstimates(E);
  size_t Gid = C->fn("g")->functionId();
  // g's entry block: per-entry 1.0 scaled by its invocation estimate.
  EXPECT_NEAR(Global[Gid][C->cfg("g")->entry()->id()],
              E.FunctionEstimates[Gid], 1e-9);
  EXPECT_GT(E.FunctionEstimates[Gid], 1.0);
}

TEST(Pipeline, GlobalArcEstimatesConserveBlockFlow) {
  auto C = compile("int f(int n) { int s = 0; int i;\n"
                   "  for (i = 0; i < n; i++)\n"
                   "    if (i % 2 == 0) s += i; else s--;\n"
                   "  return s; }\n"
                   "int main() { return f(9) != 0; }");
  ASSERT_TRUE(C);
  CallGraph CG = CallGraph::build(C->unit(), *C->Cfgs);
  EstimatorOptions Options;
  ProgramEstimate E = estimateProgram(C->unit(), *C->Cfgs, CG, Options);
  auto Arcs = globalArcEstimates(C->unit(), *C->Cfgs, E, Options);
  auto Blocks = globalBlockEstimates(E);
  size_t Fid = C->fn("f")->functionId();
  const Cfg *G = C->cfg("f");
  for (const auto &B : G->blocks()) {
    if (B->successors().empty())
      continue;
    double Out = 0;
    for (double A : Arcs[Fid][B->id()])
      Out += A;
    // Outgoing probability-weighted flow equals the block frequency.
    EXPECT_NEAR(Out, Blocks[Fid][B->id()], 1e-9) << B->label();
  }
}

TEST(Pipeline, EstimateFromProfileNormalizesPerEntry) {
  auto C = compile("void g() { print_int(1); }\n"
                   "int main() { g(); g(); g(); return 0; }");
  ASSERT_TRUE(C);
  ProgramInput In;
  RunResult R = runProgram(C->unit(), *C->Cfgs, In);
  ASSERT_TRUE(R.Ok);
  CallGraph CG = CallGraph::build(C->unit(), *C->Cfgs);
  ProgramEstimate E = estimateFromProfile(R.TheProfile, CG);
  size_t Gid = C->fn("g")->functionId();
  EXPECT_NEAR(E.FunctionEstimates[Gid], 3.0, 1e-9);
  // g's entry block executed 3 times, normalized to 1 per entry.
  EXPECT_NEAR(E.BlockEstimates[Gid][C->cfg("g")->entry()->id()], 1.0,
              1e-9);
}

} // namespace
