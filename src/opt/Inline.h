//===- opt/Inline.h - Call-site inlining ------------------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Call-site inlining at the CFG level: the callee's blocks are cloned
/// into the caller at the top-K hottest eligible call sites (ranked by a
/// WeightSource, so estimates and profiles drive the same pass), with
/// the callee's frame mapped onto fresh cells appended to the caller's
/// frame. The transformation is semantics-preserving by construction and
/// verified by differential interpretation: an inlined program must
/// produce the same output, exit code, and — after mapInlinedProfile
/// folds cloned blocks back onto their originals — the same profile as
/// the uninlined program on every input.
///
/// Inlined call sites stop paying the interpreters' call/return overhead
/// (LayoutCostCounters::Calls/Returns), which is the realized benefit
/// the OptReport scores.
///
//===----------------------------------------------------------------------===//

#ifndef OPT_INLINE_H
#define OPT_INLINE_H

#include "callgraph/CallGraph.h"
#include "cfg/Cfg.h"
#include "interp/Interp.h"
#include "lang/Ast.h"
#include "opt/WeightSource.h"
#include "profile/Profile.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sest {
namespace opt {

/// Inlining budgets.
struct InlineOptions {
  /// Maximum number of call sites inlined per program.
  unsigned TopK = 8;
  /// Callees with more CFG blocks than this are never inlined.
  size_t MaxCalleeBlocks = 24;
  /// Total program growth budget, in blocks (each applied site adds the
  /// callee's block count plus one continuation block).
  size_t MaxTotalGrowthBlocks = 200;
};

/// One call site chosen for inlining.
struct InlineDecision {
  uint32_t CallSiteId = UINT32_MAX;
  const CallExpr *Site = nullptr;
  const FunctionDecl *Caller = nullptr;
  const FunctionDecl *Callee = nullptr;
  double Weight = 0.0;
};

/// The ordered set of sites to inline (hottest first; this is also the
/// application order).
struct InlinePlan {
  std::vector<InlineDecision> Sites;
};

/// Selects the top-K hottest eligible sites under the budgets. A site is
/// eligible when it is a direct call in statement position (a standalone
/// call, a plain scalar assignment from a call, or a scalar declaration
/// initialized by a call), the callee is defined, non-builtin, not
/// "main", not the caller itself, has only scalar parameters and a
/// scalar-or-void return type, fits MaxCalleeBlocks, and the site's
/// weight is positive. Callees whose own CFG was already mutated as a
/// caller earlier in the plan are skipped, so every clone comes from a
/// pristine CFG (keeps profile map-back exact). Deterministic: ranked by
/// weight descending, call-site id ascending.
InlinePlan planInlining(const TranslationUnit &Unit, const CfgModule &Cfgs,
                        const CallGraph &CG, const WeightSource &W,
                        const InlineOptions &Options = {});

/// How inlined profile entities fold back onto the original program:
/// built by applyInlining, consumed by mapInlinedProfile.
struct InlineMap {
  /// Where one post-inline entity's counts belong in the original
  /// program; invalid entries are dropped (their counts are duplicates
  /// of an entity that is already mapped).
  struct Origin {
    uint32_t Fid = UINT32_MAX;
    uint32_t Block = UINT32_MAX;
    bool valid() const { return Fid != UINT32_MAX; }
  };
  /// [function id][post-inline block id] -> original block whose
  /// BlockCounts this block contributes to.
  std::vector<std::vector<Origin>> CountOrigin;
  /// [function id][post-inline block id] -> original block whose
  /// ArcCounts slots this block's slots map onto 1:1.
  std::vector<std::vector<Origin>> ArcOrigin;
  /// One inlined region: executing its entry block is what used to be a
  /// call — it contributes to the callee's EntryCount and the site's
  /// CallSiteCounts.
  struct RegionEntry {
    uint32_t CallerFid = 0;
    uint32_t EntryBlock = 0;
    uint32_t CalleeFid = 0;
    uint32_t CallSiteId = 0;
  };
  std::vector<RegionEntry> Regions;
  /// Pre-inline profile shape, for building the mapped profile.
  std::vector<uint32_t> OrigNumBlocks;
  std::vector<std::vector<uint32_t>> OrigArcSlots;
  /// The sites actually applied (plan order).
  std::vector<InlineDecision> Applied;
};

/// Applies \p Plan in order, mutating the caller CFGs in \p Cfgs and
/// allocating cloned AST nodes / frame cells from \p Ctx (function
/// frames grow; sites that can no longer be located are skipped).
/// The mutated program is a normal executable program: run it with the
/// unchanged runProgram. Do not rebuild the CallGraph or call
/// Cfg::simplify() afterwards — cloned call sites reuse their original
/// call-site ids, and the profile map-back depends on the block ids this
/// pass assigns.
InlineMap applyInlining(AstContext &Ctx, CfgModule &Cfgs,
                        const InlinePlan &Plan);

/// Folds a profile collected from the inlined program back onto the
/// original program's shape: cloned blocks/arcs add onto their callee
/// originals, region entries restore the callee's EntryCount and the
/// inlined site's count. On a successful run the result equals the
/// uninlined program's profile exactly (TotalCycles excluded — inlining
/// legitimately removes evaluation steps).
Profile mapInlinedProfile(const InlineMap &M, const Profile &P);

/// Differential verification verdict for one input.
struct InlineVerifyResult {
  bool Match = true;
  std::string Detail; ///< First difference, empty when Match.
};

/// Compares a completed baseline run of the original program (its
/// output, exit code and profile) against a run of the inlined program
/// on the same input: the inlined run must complete with the same
/// output and exit code, and its mapped profile must equal the baseline
/// profile bit-exactly.
InlineVerifyResult compareInlinedRun(std::string_view BaseOutput,
                                     int64_t BaseExitCode,
                                     const Profile &BaseProfile,
                                     const RunResult &Inlined,
                                     const InlineMap &M);

} // namespace opt
} // namespace sest

#endif // OPT_INLINE_H
