//===- obs/Accuracy.cpp - Per-entity accuracy attribution ------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "obs/Accuracy.h"

#include "metrics/Evaluation.h"
#include "metrics/WeightMatching.h"
#include "obs/Telemetry.h"
#include "support/Gates.h"
#include "support/StringUtils.h"
#include "support/TextTable.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace sest;
using namespace sest::obs;

const char *sest::obs::entityFamilyName(EntityFamily F) {
  switch (F) {
  case EntityFamily::Block:
    return "block";
  case EntityFamily::Function:
    return "function";
  case EntityFamily::CallSite:
    return "call_site";
  }
  return "?";
}

std::vector<size_t> FamilyAccuracy::worstIndices(size_t N) const {
  std::vector<size_t> Order(Entities.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [this](size_t A, size_t B) {
    return Entities[A].LossShare > Entities[B].LossShare;
  });
  if (N > 0 && Order.size() > N)
    Order.resize(N);
  return Order;
}

//===----------------------------------------------------------------------===//
// Attribution computation
//===----------------------------------------------------------------------===//

namespace {

/// Runs the weight-matching attribution over parallel (estimate, actual)
/// vectors and fills the ranking/share fields of \p Out.Entities, which
/// must already hold one record per item in the same order.
void scoreFamily(FamilyAccuracy &Out, const std::vector<double> &Est,
                 const std::vector<double> &Act,
                 const AccuracyOptions &Opts) {
  assert(Out.Entities.size() == Est.size() && "records must parallel items");
  Out.Cutoff = Opts.Cutoff;
  WeightMatchingAttribution A =
      weightMatchingAttribution(Est, Act, Opts.Cutoff);
  Out.Score = A.Score;
  Out.Loss = A.Loss;
  for (size_t I = 0; I < Out.Entities.size(); ++I) {
    EntityDivergence &D = Out.Entities[I];
    D.Estimate = Est[I];
    D.Actual = Act[I];
    D.EstRank = A.EstRank[I];
    D.ActRank = A.ActRank[I];
    D.LossShare = A.LossShare[I];
  }
  for (double C : Opts.SweepCutoffs)
    Out.ScoreSweep.emplace_back(C, weightMatchingScore(Est, Act, C));
}

/// Source line a block's weight is attributed to: its anchor statement,
/// falling back to the terminator's origin for test-only blocks.
uint32_t blockLine(const BasicBlock &B) {
  if (B.anchor() && B.anchor()->loc().isValid())
    return B.anchor()->loc().Line;
  if (B.terminatorOrigin() && B.terminatorOrigin()->loc().isValid())
    return B.terminatorOrigin()->loc().Line;
  return 0;
}

/// Line of a branch condition (the expression, else the statement).
uint32_t branchLine(const BasicBlock &B) {
  if (B.condOrValue() && B.condOrValue()->loc().isValid())
    return B.condOrValue()->loc().Line;
  return blockLine(B);
}

} // namespace

AccuracyReport sest::obs::computeAccuracy(const TranslationUnit &Unit,
                                          const CfgModule &Cfgs,
                                          const CallGraph &CG,
                                          const ProgramEstimate &Estimate,
                                          const Profile &Actual,
                                          const EstimatorOptions &EstOpts,
                                          const AccuracyOptions &Opts) {
  ScopedPhase Phase("accuracy.compute", Actual.ProgramName);
  AccuracyReport R;
  R.Program = Actual.ProgramName;
  R.ProfileName = Actual.InputName;
  R.IntraName = intraEstimatorName(EstOpts.Intra);
  R.InterName = interEstimatorName(EstOpts.Inter);

  std::vector<size_t> Ids = scoredFunctionIds(Unit);

  // Block family: whole-program weights (per-entry estimates scaled by
  // the estimated invocation count vs raw profile counts). Only the
  // ranking matters to the metric, so the two columns keep their native
  // scales.
  {
    R.Blocks.Family = EntityFamily::Block;
    std::vector<std::vector<double>> Global = globalBlockEstimates(Estimate);
    std::vector<double> Est, Act;
    for (size_t F : Ids) {
      const FunctionProfile &FP = Actual.Functions[F];
      if (F >= Global.size() || Global[F].size() != FP.BlockCounts.size())
        continue;
      const FunctionDecl *Fn = Unit.Functions[F];
      const Cfg *G = Cfgs.cfg(Fn);
      for (size_t B = 0; B < Global[F].size(); ++B) {
        EntityDivergence D;
        D.FunctionId = static_cast<uint32_t>(F);
        D.Function = Fn->name();
        D.EntityId = static_cast<uint32_t>(B);
        if (G && B < G->size()) {
          D.Label = G->block(static_cast<uint32_t>(B))->label();
          D.Line = blockLine(*G->block(static_cast<uint32_t>(B)));
        }
        R.Blocks.Entities.push_back(std::move(D));
        Est.push_back(Global[F][B]);
        Act.push_back(FP.BlockCounts[B]);
      }
    }
    scoreFamily(R.Blocks, Est, Act, Opts);
  }

  // Function family: estimated vs measured invocation counts.
  {
    R.Functions.Family = EntityFamily::Function;
    std::vector<double> Est, Act;
    for (size_t F : Ids) {
      const FunctionDecl *Fn = Unit.Functions[F];
      EntityDivergence D;
      D.FunctionId = static_cast<uint32_t>(F);
      D.Function = Fn->name();
      D.EntityId = static_cast<uint32_t>(F);
      D.Label = Fn->name();
      D.Line = Fn->loc().isValid() ? Fn->loc().Line : 0;
      R.Functions.Entities.push_back(std::move(D));
      Est.push_back(F < Estimate.FunctionEstimates.size()
                        ? Estimate.FunctionEstimates[F]
                        : 0.0);
      Act.push_back(Actual.Functions[F].EntryCount);
    }
    scoreFamily(R.Functions, Est, Act, Opts);
  }

  // Call-site family: indirect sites ride along as omitted records (the
  // -1 estimate markers exclude them from both rankings).
  {
    R.CallSites.Family = EntityFamily::CallSite;
    std::vector<double> Est, Act;
    for (const CallSiteInfo &Site : CG.sites()) {
      EntityDivergence D;
      D.FunctionId = Site.Caller->functionId();
      D.Function = Site.Caller->name();
      D.EntityId = Site.CallSiteId;
      D.Label = Site.isIndirect() ? "(indirect)" : Site.Callee->name();
      D.Line = Site.Site->loc().isValid() ? Site.Site->loc().Line : 0;
      R.CallSites.Entities.push_back(std::move(D));
      Est.push_back(Site.CallSiteId < Estimate.CallSiteEstimates.size()
                        ? Estimate.CallSiteEstimates[Site.CallSiteId]
                        : 0.0);
      Act.push_back(Site.CallSiteId < Actual.CallSiteCounts.size()
                        ? Actual.CallSiteCounts[Site.CallSiteId]
                        : 0.0);
    }
    scoreFamily(R.CallSites, Est, Act, Opts);
  }

  // The paper's invocation-weighted intra protocol, with its terms.
  R.IntraPerFunction =
      intraPerFunctionScores(Estimate, Actual, Ids, Opts.Cutoff);
  R.IntraScore = intraProceduralScore(Estimate, Actual, Ids, Opts.Cutoff);

  // Branch attribution: one record per conditional branch, carrying the
  // full heuristic evidence next to the measured outcome. The miss
  // totals follow Fig. 2's rules (constants excluded, switches are not
  // two-way branches).
  {
    BranchPredictorConfig BC = EstOpts.Branch;
    BC.LoopIterations = EstOpts.LoopIterations;
    BranchPredictor Predictor(BC);
    // Pipeline-produced estimates carry their predictions; reuse them so
    // prediction runs once per function per configuration.
    bool HavePred = Estimate.Predictions.size() == Unit.Functions.size();
    for (const auto &[F, G] : Cfgs.all()) {
      size_t Fid = F->functionId();
      FunctionBranchPredictions Pred = HavePred
                                           ? Estimate.Predictions[Fid]
                                           : Predictor.predictFunction(*G);
      const FunctionProfile *FP =
          Fid < Actual.Functions.size() ? &Actual.Functions[Fid] : nullptr;
      bool HaveArcs = FP && FP->ArcCounts.size() == G->size();
      for (const auto &B : G->blocks()) {
        if (B->terminator() != TerminatorKind::CondBranch)
          continue;
        auto It = Pred.ByBlock.find(B->id());
        if (It == Pred.ByBlock.end())
          continue;
        const BranchPrediction &P = It->second;
        BranchDivergence D;
        D.FunctionId = static_cast<uint32_t>(Fid);
        D.Function = F->name();
        D.BlockId = B->id();
        D.Line = branchLine(*B);
        D.Heuristic = P.Heuristic;
        D.PredictTrue = P.PredictTrue;
        D.ProbTrue = P.ProbTrue;
        D.ConstantCondition = P.ConstantCondition;
        D.Fired = P.Fired;
        if (HaveArcs && B->id() < FP->ArcCounts.size() &&
            FP->ArcCounts[B->id()].size() >= 2) {
          D.TakenCount = FP->ArcCounts[B->id()][0];
          D.NotTakenCount = FP->ArcCounts[B->id()][1];
        }
        if (!D.ConstantCondition && D.executed() > 0) {
          R.Miss.Executed += D.executed();
          R.Miss.Misses += D.missCount();
        }
        R.Branches.push_back(std::move(D));
      }
    }
  }

  counterAdd("accuracy.reports.computed");
  counterAdd("accuracy.entities.scored",
             static_cast<double>(R.Blocks.Entities.size() +
                                 R.Functions.Entities.size() +
                                 R.CallSites.Entities.size()));
  counterAdd("accuracy.branches.recorded",
             static_cast<double>(R.Branches.size()));
  return R;
}

//===----------------------------------------------------------------------===//
// JSON (schema sest-accuracy-report/1)
//===----------------------------------------------------------------------===//

namespace {

void writeFamily(JsonWriter &W, const FamilyAccuracy &F,
                 size_t MaxEntities) {
  W.beginObject();
  W.member("cutoff", F.Cutoff);
  W.member("score", F.Score);
  W.member("loss", F.Loss);
  W.key("sweep");
  W.beginArray();
  for (const auto &[C, S] : F.ScoreSweep) {
    W.beginObject();
    W.member("cutoff", C);
    W.member("score", S);
    W.endObject();
  }
  W.endArray();
  W.member("entities_total", static_cast<uint64_t>(F.Entities.size()));
  W.key("entities");
  W.beginArray();
  for (size_t I : F.worstIndices(MaxEntities)) {
    const EntityDivergence &D = F.Entities[I];
    W.beginObject();
    W.member("function", D.Function);
    W.member("id", static_cast<uint64_t>(D.EntityId));
    W.member("line", static_cast<uint64_t>(D.Line));
    W.member("label", D.Label);
    W.member("estimate", D.Estimate);
    W.member("actual", D.Actual);
    W.member("est_rank", static_cast<int64_t>(D.EstRank));
    W.member("act_rank", static_cast<int64_t>(D.ActRank));
    W.member("rank_delta", static_cast<int64_t>(D.rankDelta()));
    W.member("loss_share", D.LossShare);
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

void writeBranch(JsonWriter &W, const BranchDivergence &D) {
  W.beginObject();
  W.member("function", D.Function);
  W.member("block", static_cast<uint64_t>(D.BlockId));
  W.member("line", static_cast<uint64_t>(D.Line));
  W.member("heuristic", D.Heuristic);
  W.member("predict_true", D.PredictTrue);
  W.member("prob_true", D.ProbTrue);
  W.member("constant", D.ConstantCondition);
  W.member("taken", D.TakenCount);
  W.member("not_taken", D.NotTakenCount);
  W.member("taken_ratio", D.actualTakenRatio());
  W.member("misses", D.missCount());
  W.key("fired");
  W.beginArray();
  for (const HeuristicOpinion &O : D.Fired) {
    W.beginObject();
    W.member("name", O.Name);
    W.member("predict_true", O.PredictTrue);
    W.member("confidence", O.Confidence);
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

} // namespace

void sest::obs::writeAccuracyReport(JsonWriter &W, const AccuracyReport &R,
                                    size_t MaxEntities) {
  W.beginObject();
  W.member("program", R.Program);
  W.member("program_hash", R.ProgramHash);
  W.member("profile", R.ProfileName);
  W.member("intra", R.IntraName);
  W.member("inter", R.InterName);
  W.key("families");
  W.beginObject();
  W.key("block");
  writeFamily(W, R.Blocks, MaxEntities);
  W.key("function");
  writeFamily(W, R.Functions, MaxEntities);
  W.key("call_site");
  writeFamily(W, R.CallSites, MaxEntities);
  W.endObject();
  W.key("intra_weighted");
  W.beginObject();
  W.member("score", R.IntraScore);
  W.key("per_function");
  W.beginArray();
  for (const FunctionIntraScore &S : R.IntraPerFunction) {
    W.beginObject();
    W.member("function_id", static_cast<uint64_t>(S.FunctionId));
    W.member("score", S.Score);
    W.member("weight", S.Weight);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  W.key("branches");
  W.beginObject();
  W.member("executed", R.Miss.Executed);
  W.member("misses", R.Miss.Misses);
  W.member("miss_rate", R.Miss.rate());
  W.member("records_total", static_cast<uint64_t>(R.Branches.size()));
  W.key("records");
  W.beginArray();
  if (MaxEntities == 0 || R.Branches.size() <= MaxEntities) {
    for (const BranchDivergence &D : R.Branches)
      writeBranch(W, D);
  } else {
    // Cap like the entity families: worst first, deterministic ties.
    std::vector<size_t> Order(R.Branches.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::stable_sort(Order.begin(), Order.end(),
                     [&R](size_t A, size_t B) {
                       return R.Branches[A].missCount() >
                              R.Branches[B].missCount();
                     });
    Order.resize(MaxEntities);
    for (size_t I : Order)
      writeBranch(W, R.Branches[I]);
  }
  W.endArray();
  W.endObject();
  W.endObject();
}

std::string
sest::obs::accuracyReportJson(const std::vector<AccuracyReport> &Reports,
                              size_t MaxEntities) {
  JsonWriter W;
  W.beginObject();
  W.member("schema", "sest-accuracy-report/1");
  W.key("programs");
  W.beginArray();
  for (const AccuracyReport &R : Reports)
    writeAccuracyReport(W, R, MaxEntities);
  W.endArray();
  // Advisory until the toolchain float differences are mapped out.
  Gates G;
  for (const AccuracyReport &R : Reports) {
    const std::string Prefix = "accuracy." + R.Program + ".";
    const std::pair<const char *, double> Scores[] = {
        {"block", R.Blocks.Score},
        {"function", R.Functions.Score},
        {"call_site", R.CallSites.Score},
        {"intra", R.IntraScore}};
    for (const auto &[Name, Score] : Scores)
      G.slack(Prefix + Name, Gates::Advisory, Score, 0.005, Gates::Higher);
    G.slack(Prefix + "miss_rate", Gates::Advisory, R.Miss.rate(), 0.005,
            Gates::Lower);
  }
  G.write(W);
  W.endObject();
  assert(W.complete() && "unbalanced accuracy report document");
  return W.take();
}

//===----------------------------------------------------------------------===//
// Text renderings
//===----------------------------------------------------------------------===//

namespace {

std::string familyTitle(EntityFamily F) {
  switch (F) {
  case EntityFamily::Block:
    return "blocks";
  case EntityFamily::Function:
    return "functions";
  case EntityFamily::CallSite:
    return "call sites";
  }
  return "?";
}

std::string direction(bool PredictTrue) {
  return PredictTrue ? "true" : "false";
}

/// "loop:true@0.80,and:false@0.75" — the full evidence list.
std::string firedSummary(const std::vector<HeuristicOpinion> &Fired) {
  std::vector<std::string> Parts;
  Parts.reserve(Fired.size());
  for (const HeuristicOpinion &O : Fired)
    Parts.push_back(std::string(O.Name) + ":" + direction(O.PredictTrue) +
                    "@" + formatDouble(O.Confidence, 2));
  return joinStrings(Parts, ",");
}

} // namespace

std::string sest::obs::renderAccuracySummary(const AccuracyReport &R) {
  std::string Out = "Accuracy of " + R.IntraName + "+" + R.InterName +
                    " estimate against profile '" + R.ProfileName + "':\n";
  TextTable T;
  std::vector<std::string> Header = {
      "Family", "Score@" + formatPercent(R.Blocks.Cutoff, 0), "Loss"};
  for (const auto &[C, S] : R.Blocks.ScoreSweep) {
    (void)S;
    Header.push_back("@" + formatPercent(C, 0));
  }
  T.setHeader(Header);
  for (const FamilyAccuracy *F : {&R.Blocks, &R.Functions, &R.CallSites}) {
    std::vector<std::string> Row = {familyTitle(F->Family),
                                    formatPercent(F->Score),
                                    formatPercent(F->Loss)};
    for (const auto &[C, S] : F->ScoreSweep) {
      (void)C;
      Row.push_back(formatPercent(S));
    }
    T.addRow(Row);
  }
  Out += T.str();
  Out += "Intra-procedural (invocation-weighted): " +
         formatPercent(R.IntraScore) + "\n";
  Out += "Branch miss rate (static predictor): " +
         formatPercent(R.Miss.rate()) + "  (" +
         formatDouble(R.Miss.Misses, 0) + " misses / " +
         formatDouble(R.Miss.Executed, 0) + " executed)\n";
  return Out;
}

std::string sest::obs::renderWorstTables(const AccuracyReport &R,
                                         size_t N) {
  std::string Out;
  for (const FamilyAccuracy *F : {&R.Blocks, &R.Functions, &R.CallSites}) {
    Out += "WORST " + std::to_string(N) + " " + familyTitle(F->Family) +
           " by loss share (score " + formatPercent(F->Score) + "):\n";
    if (F->Loss <= 0) {
      Out += "  (no weight-matching loss at this cutoff)\n\n";
      continue;
    }
    TextTable T;
    T.setHeader({"Function", "Entity", "Line", "Estimate", "Actual",
                 "Rank est->act", "Loss share"});
    for (size_t I : F->worstIndices(N)) {
      const EntityDivergence &D = F->Entities[I];
      if (D.LossShare <= 0)
        break; // only genuine contributors
      T.addRow({D.Function, D.Label,
                D.Line ? std::to_string(D.Line) : "-",
                formatDouble(D.Estimate, 2), formatDouble(D.Actual, 0),
                std::to_string(D.EstRank) + "->" +
                    std::to_string(D.ActRank),
                formatPercent(D.LossShare)});
    }
    Out += T.str() + "\n";
  }

  Out += "WORST " + std::to_string(N) + " branches by dynamic misses:\n";
  std::vector<size_t> Order(R.Branches.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&R](size_t A, size_t B) {
    return R.Branches[A].missCount() > R.Branches[B].missCount();
  });
  TextTable T;
  T.setHeader({"Function", "Line", "Heuristic", "Predicted", "P(true)",
               "Taken ratio", "Executed", "Misses"});
  size_t Shown = 0;
  for (size_t I : Order) {
    const BranchDivergence &D = R.Branches[I];
    if (D.missCount() <= 0 || Shown >= N)
      break;
    T.addRow({D.Function, D.Line ? std::to_string(D.Line) : "-",
              D.Heuristic, direction(D.PredictTrue),
              formatDouble(D.ProbTrue, 2),
              formatDouble(D.actualTakenRatio(), 2),
              formatDouble(D.executed(), 0),
              formatDouble(D.missCount(), 0)});
    ++Shown;
  }
  if (Shown == 0)
    Out += "  (no dynamic mispredictions)\n";
  else
    Out += T.str();
  return Out;
}

std::string sest::obs::renderAnnotatedListing(const std::string &Source,
                                              const AccuracyReport &R) {
  std::vector<std::string> Lines = splitString(Source, '\n');
  if (!Lines.empty() && Lines.back().empty())
    Lines.pop_back();

  // Per-line estimated and actual block weight (summed over the blocks
  // anchored at the line), and the branches the line hosts.
  std::map<uint32_t, std::pair<double, double>> LineWeights;
  for (const EntityDivergence &D : R.Blocks.Entities) {
    if (!D.Line)
      continue;
    auto &[E, A] = LineWeights[D.Line];
    E += D.Estimate;
    A += D.Actual;
  }
  std::map<uint32_t, std::vector<const BranchDivergence *>> LineBranches;
  for (const BranchDivergence &D : R.Branches)
    if (D.Line)
      LineBranches[D.Line].push_back(&D);

  const size_t Col = 12;
  std::string Out;
  Out += padLeft("est", Col) + padLeft("actual", Col) + padLeft("line", 6) +
         "  source\n";
  for (size_t I = 0; I < Lines.size(); ++I) {
    uint32_t LineNo = static_cast<uint32_t>(I + 1);
    auto It = LineWeights.find(LineNo);
    if (It != LineWeights.end())
      Out += padLeft(formatDouble(It->second.first, 2), Col) +
             padLeft(formatDouble(It->second.second, 0), Col);
    else
      Out += padLeft(".", Col) + padLeft(".", Col);
    Out += padLeft(std::to_string(LineNo), 6) + "  " + Lines[I] + "\n";

    auto BIt = LineBranches.find(LineNo);
    if (BIt == LineBranches.end())
      continue;
    for (const BranchDivergence *D : BIt->second) {
      Out += std::string(2 * Col + 8, ' ') + "^ branch in " + D->Function +
             ": heuristic=" + D->Heuristic +
             " predicted=" + direction(D->PredictTrue) +
             " p(true)=" + formatDouble(D->ProbTrue, 2) +
             " taken-ratio=" + formatDouble(D->actualTakenRatio(), 2) +
             " (" + formatDouble(D->TakenCount, 0) + "/" +
             formatDouble(D->executed(), 0) + ")";
      if (D->ConstantCondition)
        Out += " [constant]";
      else if (D->executed() <= 0)
        Out += " [never executed]";
      else
        Out += D->mispredicted() ? " [MISPREDICT]" : " [ok]";
      if (D->Fired.size() > 1)
        Out += " fired=" + firedSummary(D->Fired);
      Out += "\n";
    }
  }
  return Out;
}
