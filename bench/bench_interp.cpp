//===- bench/bench_interp.cpp - Execution-tier benchmark -------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three execution tiers, one shot over the whole suite: per
/// program, the AST tree-walker vs. the bytecode VM vs. the compiled-C
/// native tier on the program's first input (best of 3), the one-time
/// bytecode lowering and native host-cc compile costs, and the
/// compile+run amortization curve (after how many runs does paying the
/// native compile beat re-running the bytecode VM). The bytecode /
/// native ratio is the native speedup reported in docs/PERFORMANCE.md.
///
/// `--tiers-json FILE` writes the comparison as a sest-interp-tiers/1
/// document with its advisory gates (bytecode over native at least 3x,
/// suite native ms within 3x of the baseline; none without a host C
/// compiler). That file is the checked-in bench/interp_tiers.json
/// baseline; bench_history.py reads it too.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "backend/Backend.h"
#include "backend/Native.h"
#include "interp/bytecode/BytecodeCompiler.h"
#include "interp/bytecode/BytecodeVM.h"
#include "lang/Parser.h"
#include "support/Gates.h"

#include <chrono>
#include <string>

using namespace sest;
using namespace sest::bench;

namespace {

/// Compiled once per program; runs share it like the suite runner.
struct Prepared {
  AstContext Ctx;
  CfgModule Cfgs;
  Prepared(const SuiteProgram &P) : Cfgs([&] {
    DiagnosticEngine Diags;
    parseAndAnalyze(P.Source, Ctx, Diags);
    return CfgModule::build(Ctx.unit(), Diags);
  }()) {}
};

double nowMs() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

/// Best-of-N wall time of \p Run, in milliseconds.
template <typename Fn> double bestOfMs(int N, Fn &&Run) {
  double Best = 0.0;
  for (int I = 0; I < N; ++I) {
    double T0 = nowMs();
    Run();
    double T = nowMs() - T0;
    if (I == 0 || T < Best)
      Best = T;
  }
  return Best;
}

struct TierSample {
  std::string Name;
  std::string Input;
  uint64_t Steps = 0;
  double AstMs = 0.0;
  double BytecodeMs = 0.0;
  double BytecodeCompileMs = 0.0;
  double NativeMs = 0.0;
  double NativeCompileMs = 0.0;
  bool NativeOk = false;
};

/// Runs after how many of which the native tier's cumulative cost
/// (compile + n runs) drops below the bytecode VM's (n runs) — the
/// break-even point of paying the host cc up front. Infinity (reported
/// as 0) when native is not faster per run.
double breakevenRuns(double NativeCompileMs, double BytecodeMs,
                     double NativeMs) {
  double PerRunGain = BytecodeMs - NativeMs;
  if (PerRunGain <= 0.0)
    return 0.0;
  return NativeCompileMs / PerRunGain;
}

int runTiersReport(const std::string &Path) {
  std::string Why;
  bool NativeAvailable = backend::nativeEngineAvailable(&Why);

  const std::vector<SuiteProgram> &Suite = benchmarkSuite();
  std::vector<TierSample> Samples;
  Samples.reserve(Suite.size());

  out("three-tier comparison over " + std::to_string(Suite.size()) +
      " suite programs (first input, best of 3)\n");
  for (const SuiteProgram &P : Suite) {
    Prepared Prep(P);
    TierSample S;
    S.Name = P.Name;
    S.Input = P.Inputs.front().Name;

    double T0 = nowMs();
    bc::BcModule Module = bc::compileBytecode(Prep.Ctx.unit(), Prep.Cfgs);
    S.BytecodeCompileMs = nowMs() - T0;

    InterpOptions AstOptions;
    AstOptions.Engine = InterpEngine::Ast;
    S.AstMs = bestOfMs(3, [&] {
      RunResult R = runProgram(Prep.Ctx.unit(), Prep.Cfgs, P.Inputs.front(),
                               AstOptions);
      S.Steps = R.StepsExecuted;
    });

    InterpOptions BcOptions;
    S.BytecodeMs = bestOfMs(3, [&] {
      bc::runProgramBytecode(Prep.Ctx.unit(), Prep.Cfgs, Module,
                             P.Inputs.front(), BcOptions);
    });

    if (NativeAvailable) {
      std::string Err;
      std::shared_ptr<const backend::NativeArtifact> Artifact =
          backend::cBackend().compile(Prep.Ctx.unit(), Prep.Cfgs, Module, {},
                                      &Err);
      if (Artifact) {
        S.NativeOk = true;
        S.NativeCompileMs = Artifact->compileMs();
        InterpOptions NativeOptions;
        NativeOptions.Engine = InterpEngine::Native;
        S.NativeMs = bestOfMs(3, [&] {
          Artifact->run(Prep.Ctx.unit(), Prep.Cfgs, P.Inputs.front(),
                        NativeOptions);
        });
      } else {
        out("  " + P.Name + ": native compile failed: " + Err + "\n");
      }
    }

    std::string Line = "  " + S.Name + ": ast " + formatDouble(S.AstMs, 2) +
                       "ms, bytecode " + formatDouble(S.BytecodeMs, 2) + "ms";
    if (S.NativeOk)
      Line += ", native " + formatDouble(S.NativeMs, 2) + "ms (cc " +
              formatDouble(S.NativeCompileMs, 0) + "ms, break-even " +
              formatDouble(
                  breakevenRuns(S.NativeCompileMs, S.BytecodeMs, S.NativeMs),
                  1) +
              " runs)";
    out(Line + "\n");
    Samples.push_back(std::move(S));
  }

  double SuiteAst = 0, SuiteBc = 0, SuiteBcCompile = 0, SuiteNative = 0,
         SuiteNativeCompile = 0;
  bool AllNative = NativeAvailable;
  for (const TierSample &S : Samples) {
    SuiteAst += S.AstMs;
    SuiteBc += S.BytecodeMs;
    SuiteBcCompile += S.BytecodeCompileMs;
    SuiteNative += S.NativeMs;
    SuiteNativeCompile += S.NativeCompileMs;
    AllNative = AllNative && S.NativeOk;
  }

  JsonWriter W;
  W.beginObject();
  W.member("schema", "sest-interp-tiers/1");
  W.member("native_available", NativeAvailable);
  if (!NativeAvailable)
    W.member("native_unavailable_reason", Why);
  W.key("programs");
  W.beginArray();
  for (const TierSample &S : Samples) {
    W.beginObject();
    W.member("name", S.Name);
    W.member("input", S.Input);
    W.member("steps", static_cast<double>(S.Steps));
    W.member("ast_ms", S.AstMs);
    W.member("bytecode_ms", S.BytecodeMs);
    W.member("bytecode_compile_ms", S.BytecodeCompileMs);
    if (S.NativeOk) {
      W.member("native_ms", S.NativeMs);
      W.member("native_compile_ms", S.NativeCompileMs);
      W.member("ast_over_native",
               S.NativeMs > 0 ? S.AstMs / S.NativeMs : 0.0);
      W.member("bytecode_over_native",
               S.NativeMs > 0 ? S.BytecodeMs / S.NativeMs : 0.0);
      W.member("breakeven_runs",
               breakevenRuns(S.NativeCompileMs, S.BytecodeMs, S.NativeMs));
    }
    W.endObject();
  }
  W.endArray();
  W.key("suite");
  W.beginObject();
  W.member("ast_ms", SuiteAst);
  W.member("bytecode_ms", SuiteBc);
  W.member("bytecode_compile_ms", SuiteBcCompile);
  W.member("ast_over_bytecode", SuiteBc > 0 ? SuiteAst / SuiteBc : 0.0);
  if (AllNative) {
    W.member("native_ms", SuiteNative);
    W.member("native_compile_ms", SuiteNativeCompile);
    W.member("bytecode_over_native",
             SuiteNative > 0 ? SuiteBc / SuiteNative : 0.0);
    W.member("ast_over_native", SuiteNative > 0 ? SuiteAst / SuiteNative : 0.0);
    W.member("breakeven_runs",
             breakevenRuns(SuiteNativeCompile, SuiteBc, SuiteNative));
    // Amortization curve: cumulative suite cost after n runs per tier.
    // The bytecode tier pays its (cheap) lowering once; the native tier
    // pays the host cc once. The crossover row is the break-even point.
    W.key("amortization");
    W.beginArray();
    for (int Runs : {1, 2, 5, 10, 20, 50, 100, 200}) {
      W.beginObject();
      W.member("runs", static_cast<double>(Runs));
      W.member("bytecode_total_ms", SuiteBcCompile + Runs * SuiteBc);
      W.member("native_total_ms", SuiteNativeCompile + Runs * SuiteNative);
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();
  if (NativeAvailable) {
    // A program whose native compile failed drops the speedup to 0.
    double Speedup = AllNative && SuiteNative > 0 ? SuiteBc / SuiteNative : 0;
    Gates()
        .min("tiers.bytecode_over_native", Gates::Advisory, Speedup, 3)
        .factor("tiers.native_ms", Gates::Advisory, SuiteNative, 3,
                Gates::Lower)
        .write(W);
  }
  W.endObject();

  if (!Path.empty()) {
    std::ofstream OutFile(Path);
    if (!OutFile) {
      out("bench_interp: cannot write '" + Path + "'\n");
      return 1;
    }
    OutFile << W.str();
    out("tier report written to " + Path + "\n");
  }
  if (AllNative) {
    out("suite: bytecode-over-native " +
        formatDouble(SuiteBc / SuiteNative, 2) + "x, break-even " +
        formatDouble(breakevenRuns(SuiteNativeCompile, SuiteBc, SuiteNative),
                     1) +
        " suite runs\n");
  } else if (!NativeAvailable) {
    out("native tier unavailable: " + Why + "\n");
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath;
  for (int I = 1; I + 1 < argc; ++I)
    if (std::string_view(argv[I]) == "--tiers-json")
      JsonPath = argv[I + 1];
  return runTiersReport(JsonPath);
}
