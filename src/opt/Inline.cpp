//===- opt/Inline.cpp - Call-site inlining --------------------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "opt/Inline.h"

#include "obs/EventLog.h"
#include "obs/Telemetry.h"

#include <cstdio>
#include <set>

using namespace sest;
using namespace sest::opt;

namespace {

/// The statement-position shapes a call site may take.
enum class SiteForm {
  None,       ///< Nested inside a larger expression — not inlinable.
  Discard,    ///< f(a, b);           — result (if any) discarded.
  AssignTo,   ///< v = f(a, b);       — plain store to a scalar variable.
  DeclInitTo, ///< int v = f(a, b);   — scalar declaration initializer.
};

const VarDecl *scalarVarOf(const Expr *E) {
  const auto *Ref = exprDynCast<DeclRefExpr>(E);
  if (!Ref || !Ref->decl() || Ref->decl()->kind() != DeclKind::Var)
    return nullptr;
  const auto *V = static_cast<const VarDecl *>(Ref->decl());
  return V->type()->isScalar() ? V : nullptr;
}

/// Classifies one CFG action with respect to \p Site; fills \p Lhs with
/// the variable the call's result lands in (AssignTo/DeclInitTo).
SiteForm classifyAction(const CfgAction &A, const CallExpr *Site,
                        const VarDecl *&Lhs) {
  Lhs = nullptr;
  if (A.ActionKind == CfgAction::Kind::Eval) {
    if (A.E == Site)
      return SiteForm::Discard;
    if (const auto *Asgn = exprDynCast<AssignExpr>(A.E))
      if (Asgn->rhs() == Site && !Asgn->compoundOp())
        if ((Lhs = scalarVarOf(Asgn->lhs())))
          return SiteForm::AssignTo;
  } else if (A.ActionKind == CfgAction::Kind::DeclInit) {
    if (A.Var && A.Var->init() == Site && A.Var->type()->isScalar()) {
      Lhs = A.Var;
      return SiteForm::DeclInitTo;
    }
  }
  return SiteForm::None;
}

bool scalarOnlySignature(const FunctionDecl *F) {
  const Type *Ret = F->type()->returnType();
  if (!Ret->isVoid() && !Ret->isScalar())
    return false;
  for (const VarDecl *P : F->params())
    if (!P->type()->isScalar())
      return false;
  return true;
}

/// Clones callee AST nodes into the caller's context, substituting the
/// callee's frame variables with fresh ones whose cells live in the
/// scratch region appended to the caller's frame.
class RegionCloner {
public:
  RegionCloner(AstContext &Ctx, int64_t RegionOffset, uint32_t SiteTag)
      : Ctx(Ctx), RegionOffset(RegionOffset),
        Suffix(".i" + std::to_string(SiteTag)) {}

  /// The substitute for \p V inside the cloned region. Globals map to
  /// themselves; frame variables map to an init-less clone at the
  /// region-relative offset (initializers run via cloned DeclInit
  /// actions, see declInitVar).
  VarDecl *mapVar(const VarDecl *V) {
    if (V->storage() == StorageKind::Global)
      return const_cast<VarDecl *>(V);
    auto It = VarMap.find(V);
    if (It != VarMap.end())
      return It->second;
    VarDecl *Clone = Ctx.createDecl<VarDecl>(V->loc(), V->name() + Suffix,
                                             V->type(), nullptr,
                                             V->isParam());
    Clone->setStorage(StorageKind::Frame, RegionOffset + V->cellOffset());
    VarMap[V] = Clone;
    return Clone;
  }

  /// The variable a cloned DeclInit action declares: same region cell as
  /// mapVar(V) but carrying the cloned initializer (VarDecl's init is
  /// immutable, so references and the declaring action use two decls
  /// that share one location).
  const VarDecl *declInitVar(const VarDecl *V) {
    VarDecl *Slot = mapVar(V);
    if (!V->init())
      return Slot;
    VarDecl *D = Ctx.createDecl<VarDecl>(V->loc(), Slot->name(),
                                         V->type(), cloneExpr(V->init()),
                                         V->isParam());
    D->setStorage(StorageKind::Frame, Slot->cellOffset());
    return D;
  }

  Expr *cloneExpr(const Expr *E) {
    if (!E)
      return nullptr;
    Expr *C = nullptr;
    switch (E->kind()) {
    case ExprKind::IntLit:
      C = Ctx.create<IntLitExpr>(E->loc(),
                                 exprCast<IntLitExpr>(E)->value());
      break;
    case ExprKind::DoubleLit:
      C = Ctx.create<DoubleLitExpr>(E->loc(),
                                    exprCast<DoubleLitExpr>(E)->value());
      break;
    case ExprKind::StringLit: {
      const auto *X = exprCast<StringLitExpr>(E);
      auto *S = Ctx.create<StringLitExpr>(E->loc(), X->value());
      S->setStringId(X->stringId());
      C = S;
      break;
    }
    case ExprKind::DeclRef: {
      const auto *X = exprCast<DeclRefExpr>(E);
      auto *R = Ctx.create<DeclRefExpr>(E->loc(), X->name());
      Decl *D = X->decl();
      if (D && D->kind() == DeclKind::Var)
        R->setDecl(mapVar(static_cast<const VarDecl *>(D)));
      else
        R->setDecl(D);
      C = R;
      break;
    }
    case ExprKind::Unary: {
      const auto *X = exprCast<UnaryExpr>(E);
      C = Ctx.create<UnaryExpr>(E->loc(), X->op(),
                                cloneExpr(X->operand()));
      break;
    }
    case ExprKind::Binary: {
      const auto *X = exprCast<BinaryExpr>(E);
      C = Ctx.create<BinaryExpr>(E->loc(), X->op(), cloneExpr(X->lhs()),
                                 cloneExpr(X->rhs()));
      break;
    }
    case ExprKind::Assign: {
      const auto *X = exprCast<AssignExpr>(E);
      C = Ctx.create<AssignExpr>(E->loc(), cloneExpr(X->lhs()),
                                 cloneExpr(X->rhs()), X->compoundOp());
      break;
    }
    case ExprKind::Conditional: {
      const auto *X = exprCast<ConditionalExpr>(E);
      C = Ctx.create<ConditionalExpr>(E->loc(), cloneExpr(X->cond()),
                                      cloneExpr(X->trueExpr()),
                                      cloneExpr(X->falseExpr()));
      break;
    }
    case ExprKind::Call: {
      const auto *X = exprCast<CallExpr>(E);
      std::vector<Expr *> Args;
      Args.reserve(X->args().size());
      for (const Expr *A : X->args())
        Args.push_back(cloneExpr(A));
      auto *Call = Ctx.create<CallExpr>(E->loc(), cloneExpr(X->callee()),
                                        std::move(Args));
      // The clone keeps the original call-site id, so nested call counts
      // aggregate onto the same profile slot from every copy.
      Call->setDirectCallee(X->directCallee());
      Call->setCallSiteId(X->callSiteId());
      C = Call;
      break;
    }
    case ExprKind::Index: {
      const auto *X = exprCast<IndexExpr>(E);
      C = Ctx.create<IndexExpr>(E->loc(), cloneExpr(X->base()),
                                cloneExpr(X->index()));
      break;
    }
    case ExprKind::Member: {
      const auto *X = exprCast<MemberExpr>(E);
      auto *Mem = Ctx.create<MemberExpr>(E->loc(), cloneExpr(X->base()),
                                         X->fieldName(), X->isArrow());
      Mem->setFieldOffset(X->fieldOffset());
      C = Mem;
      break;
    }
    case ExprKind::Cast: {
      const auto *X = exprCast<CastExpr>(E);
      C = Ctx.create<CastExpr>(E->loc(), X->targetType(),
                               cloneExpr(X->operand()));
      break;
    }
    case ExprKind::InitList: {
      const auto *X = exprCast<InitListExpr>(E);
      std::vector<Expr *> Elems;
      Elems.reserve(X->elements().size());
      for (const Expr *El : X->elements())
        Elems.push_back(cloneExpr(El));
      C = Ctx.create<InitListExpr>(E->loc(), std::move(Elems));
      break;
    }
    }
    C->setType(E->type());
    return C;
  }

private:
  AstContext &Ctx;
  int64_t RegionOffset;
  std::string Suffix;
  std::map<const VarDecl *, VarDecl *> VarMap;
};

/// Copies \p From's terminator (same successor pointers, condition and
/// origin) onto \p To.
void copyTerminator(const BasicBlock *From, BasicBlock *To) {
  switch (From->terminator()) {
  case TerminatorKind::Goto:
    To->setGoto(From->successors()[0]);
    break;
  case TerminatorKind::CondBranch:
    To->setCondBranch(From->condOrValue(), From->successors()[0],
                      From->successors()[1]);
    break;
  case TerminatorKind::Switch:
    To->setSwitch(From->condOrValue(), From->switchCases(),
                  From->switchDefault());
    break;
  case TerminatorKind::Return:
    To->setReturn(From->condOrValue());
    break;
  case TerminatorKind::Unreachable:
    To->setUnreachable();
    break;
  }
  To->setTerminatorOrigin(From->terminatorOrigin());
}

bool applySite(AstContext &Ctx, CfgModule &Cfgs, const InlineDecision &D,
               InlineMap &M) {
  FunctionDecl *Caller = const_cast<FunctionDecl *>(D.Caller);
  FunctionDecl *Callee = const_cast<FunctionDecl *>(D.Callee);
  Cfg *G = Cfgs.cfg(Caller);
  const Cfg *CalleeG = Cfgs.cfg(Callee);
  if (!G || !CalleeG)
    return false;

  // Locate the site's action in the caller's *current* CFG (an earlier
  // split in the same block may have moved it to a continuation block).
  BasicBlock *B = nullptr;
  size_t ActIdx = 0;
  SiteForm Form = SiteForm::None;
  const VarDecl *Lhs = nullptr;
  for (const auto &BPtr : G->blocks()) {
    const auto &Acts = BPtr->actions();
    for (size_t I = 0; I < Acts.size() && Form == SiteForm::None; ++I) {
      Form = classifyAction(Acts[I], D.Site, Lhs);
      if (Form != SiteForm::None) {
        B = BPtr.get();
        ActIdx = I;
      }
    }
    if (Form != SiteForm::None)
      break;
  }
  if (Form == SiteForm::None)
    return false;
  const Stmt *CallOrigin = B->actions()[ActIdx].Origin;

  const uint32_t CallerFid = Caller->functionId();
  const uint32_t CalleeFid = Callee->functionId();

  // The callee's frame becomes a scratch region appended to the caller's.
  const int64_t RegionOffset = Caller->frameSizeCells();
  Caller->setFrameSizeCells(RegionOffset + Callee->frameSizeCells());
  RegionCloner Cloner(Ctx, RegionOffset, D.CallSiteId);

  std::vector<InlineMap::Origin> &CO = M.CountOrigin[CallerFid];
  std::vector<InlineMap::Origin> &AO = M.ArcOrigin[CallerFid];

  // Split B after the actions preceding the call: the continuation block
  // inherits the suffix actions and B's terminator — and with it the
  // mapping of B's original arc slots.
  BasicBlock *BPost = G->createBlock(B->label() + ".post");
  CO.push_back({});
  AO.push_back(AO[B->id()]);
  AO[B->id()] = {};
  std::vector<CfgAction> &Acts = B->actions();
  BPost->actions().assign(Acts.begin() + ActIdx + 1, Acts.end());
  Acts.erase(Acts.begin() + ActIdx, Acts.end());
  copyTerminator(B, BPost);
  BPost->setAnchor(B->anchor(), B->anchorKind());

  // Clone the callee's blocks.
  std::vector<BasicBlock *> NewB(CalleeG->size());
  for (const auto &CBPtr : CalleeG->blocks()) {
    NewB[CBPtr->id()] = G->createBlock(Callee->name() + ".inl");
    CO.push_back({CalleeFid, CBPtr->id()});
    AO.push_back({});
  }
  for (const auto &CBPtr : CalleeG->blocks()) {
    const BasicBlock *CB = CBPtr.get();
    BasicBlock *NB = NewB[CB->id()];
    for (const CfgAction &A : CB->actions()) {
      if (A.ActionKind == CfgAction::Kind::Eval) {
        NB->actions().push_back(
            {CfgAction::Kind::Eval, A.Origin, Cloner.cloneExpr(A.E),
             nullptr});
      } else if (A.ActionKind == CfgAction::Kind::DeclInit) {
        NB->actions().push_back({CfgAction::Kind::DeclInit, A.Origin,
                                 nullptr, Cloner.declInitVar(A.Var)});
      } else {
        CfgAction Z = A;
        Z.FrameOffset += RegionOffset;
        NB->actions().push_back(Z);
      }
    }
    NB->setAnchor(CB->anchor(), CB->anchorKind());
    switch (CB->terminator()) {
    case TerminatorKind::Goto:
      NB->setGoto(NewB[CB->successors()[0]->id()]);
      AO[NB->id()] = {CalleeFid, CB->id()};
      break;
    case TerminatorKind::CondBranch:
      NB->setCondBranch(Cloner.cloneExpr(CB->condOrValue()),
                        NewB[CB->successors()[0]->id()],
                        NewB[CB->successors()[1]->id()]);
      AO[NB->id()] = {CalleeFid, CB->id()};
      break;
    case TerminatorKind::Switch: {
      std::vector<SwitchCase> Cases = CB->switchCases();
      for (SwitchCase &SC : Cases)
        SC.Target = NewB[SC.Target->id()];
      NB->setSwitch(Cloner.cloneExpr(CB->condOrValue()), std::move(Cases),
                    NewB[CB->switchDefault()->id()]);
      AO[NB->id()] = {CalleeFid, CB->id()};
      break;
    }
    case TerminatorKind::Return: {
      // Return glue: evaluate the return value (converted to the
      // callee's return type, like the call would), store it where the
      // caller stored the call's result, and continue after the call.
      // The original Return has no arc slots, so the Goto's slot has no
      // mapping.
      if (const Expr *Val = CB->condOrValue()) {
        Expr *RetE = Cloner.cloneExpr(Val);
        Expr *Glue = RetE;
        if (Lhs) {
          const Type *RetTy = Callee->type()->returnType();
          auto *Cast = Ctx.create<CastExpr>(Val->loc(), RetTy, RetE);
          Cast->setType(RetTy);
          auto *Ref = Ctx.create<DeclRefExpr>(Val->loc(), Lhs->name());
          Ref->setDecl(const_cast<VarDecl *>(Lhs));
          Ref->setType(Lhs->type());
          auto *Asgn =
              Ctx.create<AssignExpr>(Val->loc(), Ref, Cast, std::nullopt);
          Asgn->setType(Lhs->type());
          Glue = Asgn;
        }
        NB->actions().push_back(
            {CfgAction::Kind::Eval, CallOrigin, Glue, nullptr});
      }
      NB->setGoto(BPost);
      break;
    }
    case TerminatorKind::Unreachable:
      NB->setUnreachable();
      AO[NB->id()] = {CalleeFid, CB->id()};
      break;
    }
    if (CB->terminator() != TerminatorKind::Return)
      NB->setTerminatorOrigin(CB->terminatorOrigin());
  }

  // Rewrite the call in B: zero the scratch region (a fresh frame starts
  // zeroed on every entry), bind parameters from the original argument
  // expressions, and jump into the cloned entry.
  if (Callee->frameSizeCells() > 0) {
    CfgAction Z{CfgAction::Kind::ZeroFrameRange, CallOrigin, nullptr,
                nullptr, RegionOffset, Callee->frameSizeCells()};
    Acts.push_back(Z);
  }
  const std::vector<Expr *> &Args = D.Site->args();
  for (size_t I = 0;
       I < Callee->params().size() && I < Args.size(); ++I) {
    VarDecl *P = Cloner.mapVar(Callee->params()[I]);
    auto *Ref = Ctx.create<DeclRefExpr>(Args[I]->loc(), P->name());
    Ref->setDecl(P);
    Ref->setType(P->type());
    auto *Asgn =
        Ctx.create<AssignExpr>(Args[I]->loc(), Ref, Args[I], std::nullopt);
    Asgn->setType(P->type());
    Acts.push_back({CfgAction::Kind::Eval, CallOrigin, Asgn, nullptr});
  }
  // The region-entry counter. The clone of the callee's entry block
  // cannot serve: the entry may be a loop header, so in-region back
  // edges would add iterations to its count. This empty trampoline
  // executes exactly once per region entry — and, having no actions, a
  // later site applied to the same caller can never split it.
  BasicBlock *RE = G->createBlock(Callee->name() + ".inl.entry");
  CO.push_back({});
  AO.push_back({});
  RE->setGoto(NewB[CalleeG->entry()->id()]);
  B->setGoto(RE);
  B->setTerminatorOrigin(nullptr);
  G->recomputePreds();

  M.Regions.push_back({CallerFid, RE->id(), CalleeFid, D.CallSiteId});
  return true;
}

} // namespace

InlinePlan sest::opt::planInlining(const TranslationUnit &Unit,
                                   const CfgModule &Cfgs,
                                   const CallGraph &CG,
                                   const WeightSource &W,
                                   const InlineOptions &Options) {
  obs::ScopedPhase Phase("opt.inline.plan");
  (void)Unit;
  const bool Log = obs::eventLogActive();
  InlinePlan Plan;
  std::set<const FunctionDecl *> Mutated;
  size_t Growth = 0;
  uint32_t Rank = 0;
  // Decision provenance: every ranked site produces exactly one
  // selected/rejected event with the first reason that disqualified it,
  // in rank order — the log reads as the budget walk itself.
  auto LogReject = [&](const RankedCallSite &R, std::string_view Reason) {
    if (Log)
      obs::logEvent(
          "inline.site.rejected", obs::provCallSite(R.Site->CallSiteId),
          {obs::attr("caller", R.Site->Caller->name()),
           obs::attr("callee",
                     R.Site->Callee ? R.Site->Callee->name() : "<indirect>"),
           obs::attr("origin", W.Origin), obs::attr("reason", Reason),
           obs::attr("weight", R.Weight),
           obs::attr("rank", static_cast<double>(Rank))});
  };
  for (const RankedCallSite &R : rankCallSites(CG, W)) {
    ++Rank;
    if (Plan.Sites.size() >= Options.TopK) {
      LogReject(R, "top-k-budget");
      break;
    }
    if (R.Weight <= 0) {
      LogReject(R, "cold");
      break; // Sorted descending: everything after is cold too.
    }
    const CallSiteInfo *S = R.Site;
    const FunctionDecl *Callee = S->Callee;
    if (!Callee || !Callee->isDefined() || Callee->isBuiltin()) {
      LogReject(R, "callee-undefined-or-builtin");
      continue;
    }
    if (Callee == S->Caller || Callee->name() == "main") {
      LogReject(R, "recursive-or-main");
      continue;
    }
    // A callee whose own CFG was mutated (as a caller) would clone its
    // inlined regions too; keep every clone pristine so the profile
    // map-back stays a direct fold.
    if (Mutated.count(Callee)) {
      LogReject(R, "callee-mutated");
      continue;
    }
    const Cfg *CalleeG = Cfgs.cfg(Callee);
    if (!CalleeG || !Cfgs.cfg(S->Caller)) {
      LogReject(R, "no-cfg");
      continue;
    }
    if (CalleeG->size() > Options.MaxCalleeBlocks) {
      LogReject(R, "callee-too-large");
      continue;
    }
    if (!scalarOnlySignature(Callee)) {
      LogReject(R, "non-scalar-signature");
      continue;
    }
    const VarDecl *Lhs = nullptr;
    SiteForm Form = SiteForm::None;
    for (const CfgAction &A : S->Block->actions()) {
      Form = classifyAction(A, S->Site, Lhs);
      if (Form != SiteForm::None)
        break;
    }
    if (Form == SiteForm::None) {
      LogReject(R, "not-statement-form");
      continue;
    }
    size_t Cost = CalleeG->size() + 1;
    if (Growth + Cost > Options.MaxTotalGrowthBlocks) {
      LogReject(R, "growth-budget");
      continue;
    }
    Growth += Cost;
    Mutated.insert(S->Caller);
    if (Log)
      obs::logEvent("inline.site.selected",
                    obs::provCallSite(S->CallSiteId),
                    {obs::attr("caller", S->Caller->name()),
                     obs::attr("callee", Callee->name()),
                     obs::attr("origin", W.Origin),
                     obs::attr("weight", R.Weight),
                     obs::attr("rank", static_cast<double>(Rank)),
                     obs::attr("cost_blocks", static_cast<double>(Cost))});
    Plan.Sites.push_back({S->CallSiteId, S->Site, S->Caller, Callee,
                          R.Weight});
  }
  obs::counterAdd("opt.inline.planned_sites", Plan.Sites.size());
  return Plan;
}

InlineMap sest::opt::applyInlining(AstContext &Ctx, CfgModule &Cfgs,
                                   const InlinePlan &Plan) {
  obs::ScopedPhase Phase("opt.inline.apply");
  const TranslationUnit &Unit = Ctx.unit();
  InlineMap M;
  const size_t NumF = Unit.Functions.size();
  M.CountOrigin.resize(NumF);
  M.ArcOrigin.resize(NumF);
  M.OrigNumBlocks.assign(NumF, 0);
  M.OrigArcSlots.resize(NumF);
  for (const auto &[F, G] : Cfgs.all()) {
    const uint32_t Fid = F->functionId();
    const uint32_t N = static_cast<uint32_t>(G->size());
    M.OrigNumBlocks[Fid] = N;
    M.OrigArcSlots[Fid].resize(N);
    M.CountOrigin[Fid].resize(N);
    M.ArcOrigin[Fid].resize(N);
    for (const auto &B : G->blocks()) {
      M.OrigArcSlots[Fid][B->id()] =
          static_cast<uint32_t>(B->successors().size());
      M.CountOrigin[Fid][B->id()] = {Fid, B->id()};
      M.ArcOrigin[Fid][B->id()] = {Fid, B->id()};
    }
  }
  uint64_t BlocksBefore = 0;
  for (const auto &[F, G] : Cfgs.all())
    BlocksBefore += G->size();
  for (const InlineDecision &D : Plan.Sites)
    if (applySite(Ctx, Cfgs, D, M))
      M.Applied.push_back(D);
  uint64_t BlocksAfter = 0;
  for (const auto &[F, G] : Cfgs.all())
    BlocksAfter += G->size();
  obs::counterAdd("opt.inline.applied_sites", M.Applied.size());
  obs::counterAdd("opt.inline.blocks_added", BlocksAfter - BlocksBefore);
  return M;
}

Profile sest::opt::mapInlinedProfile(const InlineMap &M,
                                     const Profile &P) {
  Profile Out;
  Out.ProgramName = P.ProgramName;
  Out.InputName = P.InputName;
  Out.TotalCycles = P.TotalCycles;
  Out.Functions.resize(M.OrigNumBlocks.size());
  for (size_t Fid = 0; Fid < Out.Functions.size(); ++Fid) {
    FunctionProfile &OF = Out.Functions[Fid];
    const uint32_t N = M.OrigNumBlocks[Fid];
    OF.BlockCounts.assign(N, 0.0);
    OF.ArcCounts.resize(N);
    for (uint32_t B = 0; B < N; ++B)
      OF.ArcCounts[B].assign(M.OrigArcSlots[Fid][B], 0.0);
  }
  for (size_t Fid = 0;
       Fid < P.Functions.size() && Fid < Out.Functions.size(); ++Fid) {
    const FunctionProfile &FP = P.Functions[Fid];
    Out.Functions[Fid].EntryCount = FP.EntryCount;
    const auto &CO = M.CountOrigin[Fid];
    const auto &AO = M.ArcOrigin[Fid];
    for (size_t B = 0; B < FP.BlockCounts.size(); ++B) {
      if (B < CO.size() && CO[B].valid())
        Out.Functions[CO[B].Fid].BlockCounts[CO[B].Block] +=
            FP.BlockCounts[B];
      if (B < AO.size() && AO[B].valid() && B < FP.ArcCounts.size()) {
        std::vector<double> &Dst =
            Out.Functions[AO[B].Fid].ArcCounts[AO[B].Block];
        const std::vector<double> &Src = FP.ArcCounts[B];
        for (size_t S = 0; S < Src.size() && S < Dst.size(); ++S)
          Dst[S] += Src[S];
      }
    }
  }
  Out.CallSiteCounts = P.CallSiteCounts;
  for (const InlineMap::RegionEntry &R : M.Regions) {
    if (R.CallerFid >= P.Functions.size())
      continue;
    const FunctionProfile &FP = P.Functions[R.CallerFid];
    if (R.EntryBlock >= FP.BlockCounts.size())
      continue;
    const double Entries = FP.BlockCounts[R.EntryBlock];
    Out.Functions[R.CalleeFid].EntryCount += Entries;
    if (R.CallSiteId < Out.CallSiteCounts.size())
      Out.CallSiteCounts[R.CallSiteId] += Entries;
  }
  return Out;
}

InlineVerifyResult sest::opt::compareInlinedRun(std::string_view BaseOutput,
                                               int64_t BaseExitCode,
                                               const Profile &BaseProfile,
                                               const RunResult &Inlined,
                                               const InlineMap &M) {
  InlineVerifyResult R;
  auto Fail = [&](std::string Detail) {
    R.Match = false;
    if (R.Detail.empty())
      R.Detail = std::move(Detail);
  };
  if (!Inlined.Ok) {
    Fail("completion status differs (base ok, inlined aborted)");
    return R;
  }
  if (BaseOutput != Inlined.Output)
    Fail("output differs");
  if (BaseExitCode != Inlined.ExitCode)
    Fail("exit code differs");
  if (!R.Match)
    return R;

  const Profile Mapped = mapInlinedProfile(M, Inlined.TheProfile);
  const Profile &BP = BaseProfile;
  if (BP.Functions.size() != Mapped.Functions.size()) {
    Fail("function count differs");
    return R;
  }
  for (size_t Fid = 0; Fid < BP.Functions.size() && R.Match; ++Fid) {
    const FunctionProfile &A = BP.Functions[Fid];
    const FunctionProfile &B = Mapped.Functions[Fid];
    if (A.EntryCount != B.EntryCount)
      Fail("entry count differs for function " + std::to_string(Fid));
    if (A.BlockCounts != B.BlockCounts)
      Fail("block counts differ for function " + std::to_string(Fid));
    if (A.ArcCounts != B.ArcCounts)
      Fail("arc counts differ for function " + std::to_string(Fid));
  }
  if (R.Match && BP.CallSiteCounts != Mapped.CallSiteCounts)
    Fail("call-site counts differ");
  return R;
}
