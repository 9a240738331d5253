//===- interp/Runtime.cpp - Shared interpreter runtime, per-run code -------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "interp/Runtime.h"

#include "obs/Telemetry.h"

using namespace sest;
using namespace sest::rt;

RunResult Runtime::run() {
  obs::ScopedPhase Phase("interp.run", Input.Name);
  // Size the profile.
  Prof.ProgramName = Unit.Functions.empty() ? "" : "program";
  Prof.InputName = Input.Name;
  Prof.Functions.resize(Unit.Functions.size());
  SelfSteps.assign(Unit.Functions.size(), 0);
  for (const auto &[F, G] : Cfgs.all()) {
    FunctionProfile &FP = Prof.Functions[F->functionId()];
    FP.BlockCounts.assign(G->size(), 0.0);
    FP.ArcCounts.resize(G->size());
    for (const auto &B : G->blocks())
      FP.ArcCounts[B->id()].assign(B->successors().size(), 0.0);
  }
  Prof.CallSiteCounts.assign(Unit.NumCallSites, 0.0);

  char HostStackAnchor;
  HostStackBase = reinterpret_cast<uintptr_t>(&HostStackAnchor);

  setupGlobals();
  initGlobals();

  RunResult R;
  const FunctionDecl *Main = Unit.findFunction("main");
  if (!Main || !Main->isDefined()) {
    R.Error = "program has no main function";
    return R;
  }
  if (!Main->params().empty()) {
    R.Error = "main must take no parameters";
    return R;
  }

  Value Ret;
  if (!halted())
    Ret = callMain(Main);

  R.Ok = !Failed;
  R.Error = ErrorMsg;
  R.ExitCode = Exited ? ExitVal : Ret.asInt();
  R.Output = std::move(Output);
  Prof.TotalCycles = Cycles;
  R.TheProfile = std::move(Prof);
  R.LimitHit = LimitHit;
  R.StepsExecuted = Steps;
  R.HeapCellsHighWater = HeapHighWater;
  R.CallDepthHighWater = CallDepthHighWater;
  R.LayoutCost = LayoutCost;
  flushTelemetry();
  return R;
}

/// Lays out the global segment: [globals][string literals...], each
/// string NUL-terminated.
void Runtime::setupGlobals() {
  int64_t Total = Unit.GlobalSizeCells;
  StringBase.resize(Unit.StringTable.size());
  for (size_t I = 0; I < Unit.StringTable.size(); ++I) {
    StringBase[I] = Total;
    Total += static_cast<int64_t>(Unit.StringTable[I].size()) + 1;
  }
  Globals.assign(Total, Value::makeInt(0));
  for (size_t I = 0; I < Unit.StringTable.size(); ++I) {
    const std::string &S = Unit.StringTable[I];
    for (size_t J = 0; J < S.size(); ++J)
      Globals[StringBase[I] + J] =
          Value::makeInt(static_cast<unsigned char>(S[J]));
    // Trailing cell is already zero (NUL).
  }
}

/// One-shot flush of the run's accumulated resource usage into the
/// ambient telemetry context. The hot loops only touch plain members;
/// all counter traffic happens here.
void Runtime::flushTelemetry() const {
  if (!obs::telemetryActive())
    return;
  obs::counterAdd("interp.runs");
  obs::counterAdd("interp.steps.executed", static_cast<double>(Steps));
  flushEngineTelemetry();
  obs::gaugeMax("interp.heap_cells.high_water",
                static_cast<double>(HeapHighWater));
  obs::gaugeMax("interp.call_depth.high_water",
                static_cast<double>(CallDepthHighWater));
  if (LimitHit != RunLimit::None)
    obs::counterAdd(std::string("interp.limit_hit.") +
                    runLimitName(LimitHit));
  obs::counterAdd("interp.layout.fall_through",
                  static_cast<double>(LayoutCost.FallThrough));
  obs::counterAdd("interp.layout.taken",
                  static_cast<double>(LayoutCost.Taken));
  obs::counterAdd("interp.layout.calls",
                  static_cast<double>(LayoutCost.Calls));
  obs::counterAdd("interp.layout.returns",
                  static_cast<double>(LayoutCost.Returns));
  for (size_t F = 0; F < SelfSteps.size(); ++F)
    if (SelfSteps[F])
      obs::counterAdd("interp.fn_self_steps." + Unit.Functions[F]->name(),
                      static_cast<double>(SelfSteps[F]));
}
