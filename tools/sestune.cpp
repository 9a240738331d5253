//===- tools/sestune.cpp - Estimator-guided autotuner driver --------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sestune — the autotuner CLI. Searches the optimizer's TuneConfig
/// space over the built-in benchmark suite (or a --programs subset, or a
/// single mini-C file) under one or more cost oracles, and reports how
/// much of the profile-guided search's held-out improvement the purely
/// static search recovers. Writes the byte-deterministic
/// sest-tune-report/1 document, with the gates scripts/check_gates.py
/// evaluates, with --report (bench/tune_report.json is `--budget 24` over
/// the whole suite); a winner's best_config object replays exactly
/// through `sestc --tune-config`.
///
/// The full option list lives in ONE place — the OptionTable below —
/// which generates both the usage text and `--help`. See docs/TUNING.md.
///
//===----------------------------------------------------------------------===//

#include "obs/EventLog.h"
#include "obs/Telemetry.h"
#include "suite/SuiteRunner.h"
#include "support/Gates.h"
#include "support/StringUtils.h"
#include "support/TextTable.h"
#include "tune/Tune.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace sest;

namespace {

void out(const std::string &S) { std::fputs(S.c_str(), stdout); }

/// One option sestune understands: the single source of truth for the
/// usage text, `--help`, and the unknown-option suggestion list.
struct OptionSpec {
  const char *Flag;
  const char *Arg;  ///< Value placeholder; null for boolean flags.
  const char *Help; ///< One-line description.
};

const OptionSpec OptionTable[] = {
    {"--oracle", "LIST",
     "comma-separated cost oracles: static|profile|measured "
     "(default static,profile)"},
    {"--budget", "N",
     "distinct configurations evaluated per program+oracle (default 24)"},
    {"--seed", "N", "search seed for the random-sampling phase"},
    {"--programs", "LIST",
     "comma-separated suite program names (default: whole suite)"},
    {"--file", "FILE.mc",
     "tune a single mini-C file instead of the suite"},
    {"--input", "TEXT", "program input text for --file runs"},
    {"--interp", "ast|bytecode", "execution engine (default bytecode)"},
    {"--jobs", "N",
     "worker threads (0 = cores; reports identical for every N)"},
    {"--report", "FILE", "write the sest-tune-report/1 JSON document"},
    {"--best-config", "FILE",
     "write the static-oracle winner of the first program as "
     "sest-tune-config/1 (for sestc --tune-config)"},
    {"--trace", "FILE", "write Chrome trace-event JSON of the run"},
    {"--log", "FILE",
     "write the sest-events/1 JSONL decision/provenance log"},
    {"--stats", nullptr, "print phase times and all counters"},
    {"--help", nullptr, "print this help and exit"},
};

std::string helpText() {
  std::string S = "usage: sestune [options]\n";
  for (const OptionSpec &Opt : OptionTable) {
    std::string Left = std::string("  ") + Opt.Flag;
    if (Opt.Arg)
      Left += std::string(" ") + Opt.Arg;
    if (Left.size() < 28)
      Left.resize(28, ' ');
    else
      Left += "  ";
    S += Left + Opt.Help + "\n";
  }
  return S;
}

[[noreturn]] void usage() {
  out(helpText());
  std::exit(2);
}

/// The --jobs operand: a non-negative integer (0 = all cores); anything
/// else is a usage error.
unsigned jobsArg(const std::string &V) {
  std::optional<unsigned> Jobs = parseUnsigned(V);
  if (!Jobs) {
    std::string Msg =
        "sestune: --jobs requires a non-negative integer, got '" + V + "'";
    std::fputs((Msg + "\n").c_str(), stderr);
    usage();
  }
  return *Jobs;
}

size_t editDistance(const std::string &A, const std::string &B) {
  std::vector<size_t> Row(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Row[J] = J;
  for (size_t I = 1; I <= A.size(); ++I) {
    size_t Diag = Row[0];
    Row[0] = I;
    for (size_t J = 1; J <= B.size(); ++J) {
      size_t Next = std::min({Row[J] + 1, Row[J - 1] + 1,
                              Diag + (A[I - 1] == B[J - 1] ? 0 : 1)});
      Diag = Row[J];
      Row[J] = Next;
    }
  }
  return Row[B.size()];
}

[[noreturn]] void unknownOption(const std::string &A) {
  std::string Msg = "sestune: unknown option '" + A + "'";
  const char *Best = nullptr;
  size_t BestDist = 4; // only suggest plausible typos
  for (const OptionSpec &Opt : OptionTable) {
    size_t D = editDistance(A, Opt.Flag);
    if (D < BestDist) {
      BestDist = D;
      Best = Opt.Flag;
    }
  }
  if (Best)
    Msg += "; did you mean '" + std::string(Best) + "'?";
  std::fputs((Msg + "\n").c_str(), stderr);
  std::exit(2);
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos) {
      Out.push_back(S.substr(Pos));
      break;
    }
    Out.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

struct Options {
  tune::TuneOptions Tune;
  std::vector<std::string> Programs;
  std::string File;
  std::string Input;
  std::string ReportFile;
  std::string BestConfigFile;
  std::string TraceFile;
  std::string LogFile;
  bool Stats = false;
};

Options parseArgs(int argc, char **argv) {
  Options O;
  O.Tune.Jobs = 0;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc)
        usage();
      return argv[++I];
    };
    if (A == "--oracle") {
      O.Tune.Oracles.clear();
      for (const std::string &Name : splitList(Next())) {
        tune::TuneOracle Oracle;
        if (!tune::parseTuneOracle(Name, Oracle)) {
          std::fputs(("sestune: unknown oracle '" + Name +
                      "' (expected static|profile|measured)\n")
                         .c_str(),
                     stderr);
          std::exit(2);
        }
        O.Tune.Oracles.push_back(Oracle);
      }
      if (O.Tune.Oracles.empty())
        usage();
    } else if (A == "--budget") {
      O.Tune.Budget = static_cast<uint32_t>(
          std::strtoul(Next().c_str(), nullptr, 10));
      if (O.Tune.Budget == 0)
        usage();
    } else if (A == "--seed") {
      O.Tune.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    } else if (A == "--programs") {
      O.Programs = splitList(Next());
    } else if (A == "--file") {
      O.File = Next();
    } else if (A == "--input") {
      O.Input = Next();
    } else if (A == "--interp") {
      std::string V = Next();
      if (V == "ast")
        O.Tune.Engine = InterpEngine::Ast;
      else if (V == "bytecode")
        O.Tune.Engine = InterpEngine::Bytecode;
      else
        usage();
    } else if (A == "--jobs") {
      O.Tune.Jobs = jobsArg(Next());
    } else if (A == "--report") {
      O.ReportFile = Next();
    } else if (A == "--best-config") {
      O.BestConfigFile = Next();
    } else if (A == "--trace") {
      O.TraceFile = Next();
    } else if (A == "--log") {
      O.LogFile = Next();
    } else if (A == "--stats") {
      O.Stats = true;
    } else if (A == "--help") {
      out(helpText());
      std::exit(0);
    } else {
      unknownOption(A);
    }
  }
  return O;
}

bool writeTextFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path);
  if (!Out) {
    out("sestune: cannot write '" + Path + "'\n");
    return false;
  }
  Out << Content;
  return true;
}

/// Compiles and profiles the programs the flags selected: the whole
/// suite, a --programs subset, or one --file.
std::vector<CompiledSuiteProgram> gatherPrograms(const Options &O,
                                                 SuiteProgram &FileSpec,
                                                 bool &Err) {
  Err = false;
  InterpOptions RunOpts;
  RunOpts.Engine = O.Tune.Engine;

  if (!O.File.empty()) {
    std::ifstream In(O.File);
    if (!In) {
      out("sestune: cannot open '" + O.File + "'\n");
      Err = true;
      return {};
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    FileSpec.Name = O.File;
    FileSpec.Source = SS.str();
    FileSpec.Inputs.push_back({"train", O.Input, 1});
    FileSpec.Inputs.push_back({"eval", O.Input, 2});
    std::vector<CompiledSuiteProgram> Programs;
    Programs.push_back(compileAndProfileProgram(FileSpec, RunOpts));
    return Programs;
  }

  if (O.Programs.empty())
    return compileAndProfileSuite(RunOpts, O.Tune.Jobs);

  std::vector<CompiledSuiteProgram> Programs;
  for (const std::string &Name : O.Programs) {
    const SuiteProgram *Spec = findSuiteProgram(Name);
    if (!Spec) {
      std::string Msg = "sestune: unknown suite program '" + Name + "'";
      const std::string *Best = nullptr;
      size_t BestDist = 4;
      for (const SuiteProgram &Cand : benchmarkSuite()) {
        size_t D = editDistance(Name, Cand.Name);
        if (D < BestDist) {
          BestDist = D;
          Best = &Cand.Name;
        }
      }
      if (Best)
        Msg += "; did you mean '" + *Best + "'?";
      std::fputs((Msg + "\n").c_str(), stderr);
      Err = true;
      return {};
    }
    Programs.push_back(compileAndProfileProgram(*Spec, RunOpts));
  }
  return Programs;
}

int runTune(const Options &O) {
  SuiteProgram FileSpec;
  bool GatherErr = false;
  std::vector<CompiledSuiteProgram> Programs =
      gatherPrograms(O, FileSpec, GatherErr);
  if (GatherErr)
    return 2;

  const tune::TuneSuiteReport Report =
      tune::computeTuneReport(Programs, O.Tune);

  TextTable T;
  std::vector<std::string> Header = {"Program", "Identity"};
  for (tune::TuneOracle Oracle : O.Tune.Oracles)
    Header.push_back(std::string(tune::tuneOracleName(Oracle)) +
                     " best");
  Header.push_back("Overlap");
  T.setHeader(Header);
  for (const tune::TuneProgramReport &P : Report.Programs) {
    std::vector<std::string> Row = {P.Name};
    if (!P.Ok) {
      Row.push_back("FAILED");
      for (size_t I = 0; I < O.Tune.Oracles.size(); ++I)
        Row.push_back("-");
      Row.push_back("-");
      T.addRow(Row);
      continue;
    }
    Row.push_back(formatDouble(P.IdentityEvalCost, 0));
    for (tune::TuneOracle Oracle : O.Tune.Oracles) {
      std::string Cell = "-";
      for (const tune::TuneOracleResult &R : P.Oracles)
        if (R.Oracle == tune::tuneOracleName(Oracle))
          Cell = formatDouble(R.EvalCost, 0) + " (" +
                 formatPercent(R.EvalReduction) + ")" +
                 (R.Verified ? "" : " UNVERIFIED");
      Row.push_back(Cell);
    }
    Row.push_back(formatPercent(P.ConfigOverlap));
    T.addRow(Row);
  }
  out(T.str());

  bool AllOk = Report.AllVerified;
  for (const tune::TuneProgramReport &P : Report.Programs)
    if (!P.Ok) {
      out("error: " + P.Name + ": " + P.Error + "\n");
      AllOk = false;
    }
  out("static search recovery: " +
      formatDouble(Report.StaticSearchRecovery, 3) +
      (Report.MeetsRecoveryFloor ? " (meets " : " (BELOW ") +
      formatDouble(O.Tune.StaticSearchRecoveryFloor, 2) +
      " advisory floor); mean config overlap " +
      formatPercent(Report.MeanConfigOverlap) + "; mean regret " +
      formatDouble(Report.MeanRegret, 4) + "\n");
  if (!Report.AllVerified)
    out("error: a tuned winner failed differential verification\n");

  if (!O.ReportFile.empty()) {
    // The gates ride on this file only: tuneReportJson is also the sestd
    // `tune` response, which carries none.
    Gates G;
    G.min("tune.all_verified", Gates::Hard, Report.AllVerified, 1);
    G.min("tune.static_search_recovery", Gates::Advisory,
          Report.StaticSearchRecovery, O.Tune.StaticSearchRecoveryFloor);
    G.slack("tune.mean_config_overlap", Gates::Advisory,
            Report.MeanConfigOverlap, 0.05, Gates::Higher);
    if (!writeTextFile(O.ReportFile,
                       G.appendTo(tune::tuneReportJson(Report, O.Tune))))
      return 1;
    out("tune report written to " + O.ReportFile + "\n");
  }
  if (!O.BestConfigFile.empty()) {
    const opt::TuneConfig *Best = nullptr;
    for (const tune::TuneProgramReport &P : Report.Programs) {
      if (!P.Ok)
        continue;
      for (const tune::TuneOracleResult &R : P.Oracles)
        if (R.Oracle == "static" && !Best)
          Best = &R.Best;
      if (Best)
        break;
    }
    if (!Best) {
      out("sestune: no static-oracle winner to write\n");
      return 1;
    }
    if (!writeTextFile(O.BestConfigFile, Best->toJson()))
      return 1;
    out("best config written to " + O.BestConfigFile +
        " (replay: sestc --tune-config " + O.BestConfigFile +
        " file.mc)\n");
  }
  return AllOk ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  Options O = parseArgs(argc, argv);

  obs::Telemetry Tele;
  obs::EventLog Log;
  const bool WantTelemetry = !O.TraceFile.empty() || O.Stats;
  const bool WantLog = !O.LogFile.empty();
  if (WantTelemetry)
    Tele.install();
  if (WantLog)
    Log.install();

  int Rc = runTune(O);

  if (WantLog) {
    Log.uninstall();
    if (!writeTextFile(O.LogFile, Log.jsonl()))
      return 1;
    out("event log written to " + O.LogFile + " (" +
        std::to_string(Log.events().size()) + " events)\n");
  }
  if (WantTelemetry) {
    Tele.uninstall();
    if (O.Stats) {
      out("\n-- phase times --\n" + Tele.phaseSummary());
      out("\n-- counters --\n" + Tele.statsTable());
    }
    if (!O.TraceFile.empty()) {
      if (!writeTextFile(O.TraceFile, Tele.traceJson()))
        return 1;
      out("trace written to " + O.TraceFile + "\n");
    }
  }
  return Rc;
}
