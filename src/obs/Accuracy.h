//===- obs/Accuracy.h - Per-entity accuracy attribution ---------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Accuracy observability: where the time/volume telemetry (Telemetry.h)
/// answers "what did the pipeline do and how long did it take", this
/// subsystem answers "where does the estimator lose its score". For one
/// (program, profile, estimator-config) run it records per-entity
/// divergence — for every basic block, function and call site the static
/// weight, the measured weight, the rank delta between the two orderings
/// and the entity's additive contribution to the weight-matching score
/// loss (metrics/WeightMatching.h) — and for every conditional branch the
/// heuristic that fired (with its confidence, via the attribution hook in
/// estimators/BranchPrediction.h), the predicted direction and the actual
/// taken ratio, so mispredictions are explainable rather than merely
/// countable.
///
/// Three renderings are provided: an annotated source listing in the
/// style of gprof / `perf annotate` with estimated-vs-actual frequency
/// columns and inline branch annotations, "WORST n" divergence tables,
/// and a machine-readable JSON document (schema `sest-accuracy-report/1`)
/// whose suite-wide instance is the checked-in CI baseline
/// (`bench/accuracy_report.json`); its advisory gates are evaluated by
/// `scripts/check_gates.py`.
///
//===----------------------------------------------------------------------===//

#ifndef OBS_ACCURACY_H
#define OBS_ACCURACY_H

#include "estimators/BranchPrediction.h"
#include "estimators/Pipeline.h"
#include "metrics/BranchMiss.h"
#include "metrics/Evaluation.h"
#include "profile/Profile.h"

#include <string>
#include <vector>

namespace sest {
class JsonWriter;
}

namespace sest::obs {

/// The entity families the weight-matching metric ranks.
enum class EntityFamily { Block, Function, CallSite };

/// Stable identifier used in reports ("block", "function", "call_site").
const char *entityFamilyName(EntityFamily F);

/// Divergence record of one scored entity.
struct EntityDivergence {
  /// Owning function (the caller, for call sites).
  uint32_t FunctionId = 0;
  std::string Function;
  /// Family-local id: block id, function id, or call-site id.
  uint32_t EntityId = 0;
  /// Source line of the entity's anchor (0 = synthetic / unknown).
  uint32_t Line = 0;
  /// Block label, function name, or callee name.
  std::string Label;
  double Estimate = 0.0; ///< Static weight.
  double Actual = 0.0;   ///< Measured profile weight.
  /// Dense 0-based descending ranks within the family; -1 = omitted
  /// (indirect call sites).
  int EstRank = -1;
  int ActRank = -1;
  /// This entity's additive share of the family's weight-matching score
  /// loss at the attribution cutoff (positive = hot entity the estimate
  /// missed; negative = cold entity the estimate wrongly promoted).
  double LossShare = 0.0;

  /// How far the estimate misplaces the entity (positive = estimated
  /// colder than it really is).
  int rankDelta() const {
    return EstRank < 0 || ActRank < 0 ? 0 : EstRank - ActRank;
  }
};

/// Weight matching of one entity family, with its loss decomposed over
/// the family's entities.
struct FamilyAccuracy {
  EntityFamily Family = EntityFamily::Block;
  /// The attribution cutoff (quantile) the decomposition uses.
  double Cutoff = 0.25;
  double Score = 1.0; ///< Weight-matching score at Cutoff.
  double Loss = 0.0;  ///< 1 - Score; equals the sum of entity LossShares.
  /// (cutoff, score) at each sweep cutoff, for trend baselines.
  std::vector<std::pair<double, double>> ScoreSweep;
  /// Every scored entity, in family order (blocks grouped by function).
  std::vector<EntityDivergence> Entities;

  /// Indices of Entities ordered by descending LossShare (worst first,
  /// ties by index); at most \p N entries (0 = all).
  std::vector<size_t> worstIndices(size_t N) const;
};

/// Divergence record of one two-way conditional branch: the full
/// heuristic attribution next to the measured outcome.
struct BranchDivergence {
  uint32_t FunctionId = 0;
  std::string Function;
  uint32_t BlockId = 0;
  uint32_t Line = 0; ///< Line of the branch condition (0 = unknown).
  /// The deciding heuristic and the combined prediction.
  std::string Heuristic;
  bool PredictTrue = true;
  double ProbTrue = 0.5;
  bool ConstantCondition = false;
  /// Every heuristic that fired, priority order (see HeuristicOpinion).
  std::vector<HeuristicOpinion> Fired;
  /// Measured outcome counts.
  double TakenCount = 0.0;
  double NotTakenCount = 0.0;

  double executed() const { return TakenCount + NotTakenCount; }
  /// Fraction of executions where the condition was true.
  double actualTakenRatio() const {
    double E = executed();
    return E > 0 ? TakenCount / E : 0.0;
  }
  /// Dynamic executions this branch mispredicts under the static oracle.
  double missCount() const {
    return PredictTrue ? NotTakenCount : TakenCount;
  }
  /// True when the predicted majority direction was wrong.
  bool mispredicted() const {
    return executed() > 0 && missCount() > executed() - missCount();
  }
};

/// The full accuracy-attribution record of one run.
struct AccuracyReport {
  std::string Program;     ///< File or suite-program name.
  /// support::contentHash64 of the program source, as 16 hex digits —
  /// the same identity the analysis service keys its cache by, so a
  /// report can be joined against service responses and across runs
  /// even when program names collide. Filled by the producer (the
  /// scorer never sees the source text).
  std::string ProgramHash;
  std::string ProfileName; ///< Input name, or "aggregate(N)".
  std::string IntraName;   ///< Intra estimator ("smart", "markov", ...).
  std::string InterName;   ///< Inter estimator ("markov", "direct", ...).

  /// Block family over whole-program (globally scaled) block weights,
  /// function family over invocation counts, call-site family over
  /// direct call-site counts.
  FamilyAccuracy Blocks, Functions, CallSites;

  /// The paper's intra-procedural protocol at the attribution cutoff:
  /// per-function weight matching averaged weighted by invocation count,
  /// with the per-function terms kept for attribution.
  double IntraScore = 1.0;
  std::vector<FunctionIntraScore> IntraPerFunction;

  /// Static-predictor branch miss statistics (constant conditions
  /// excluded, as in Fig. 2) and the per-branch records behind them.
  BranchMissCounts Miss;
  std::vector<BranchDivergence> Branches;
};

/// Knobs for the attribution computation.
struct AccuracyOptions {
  /// The quantile at which loss is decomposed per entity.
  double Cutoff = 0.25;
  /// Cutoffs for the score sweep recorded next to the attribution.
  std::vector<double> SweepCutoffs = {0.10, 0.25, 0.50};
};

/// Computes the full attribution of \p Estimate scored against
/// \p Actual. \p EstOpts must be the options that produced the estimate
/// (its branch config drives the heuristic attribution).
AccuracyReport computeAccuracy(const TranslationUnit &Unit,
                               const CfgModule &Cfgs, const CallGraph &CG,
                               const ProgramEstimate &Estimate,
                               const Profile &Actual,
                               const EstimatorOptions &EstOpts,
                               const AccuracyOptions &Opts = {});

/// Writes \p R as one JSON object value (schema sest-accuracy-report/1
/// program record). Entities are emitted worst-first; \p MaxEntities
/// caps each family (0 = all).
void writeAccuracyReport(JsonWriter &W, const AccuracyReport &R,
                         size_t MaxEntities = 0);

/// A complete sest-accuracy-report/1 document over \p Reports.
std::string accuracyReportJson(const std::vector<AccuracyReport> &Reports,
                               size_t MaxEntities = 0);

/// Family scores, the intra protocol score, and branch miss rate as an
/// aligned text table.
std::string renderAccuracySummary(const AccuracyReport &R);

/// "WORST n" divergence tables: the top \p N loss-share entities of each
/// family and the top \p N branches by dynamic miss count.
std::string renderWorstTables(const AccuracyReport &R, size_t N = 5);

/// The annotated source listing (gprof / `perf annotate` style):
/// \p Source with estimated-vs-actual frequency columns per line, and an
/// annotation line under every conditional branch showing the heuristic
/// that fired, its confidence, the predicted direction and the actual
/// taken ratio.
std::string renderAnnotatedListing(const std::string &Source,
                                   const AccuracyReport &R);

} // namespace sest::obs

#endif // OBS_ACCURACY_H
