//===- bench/bench_tune.cpp - Estimator-guided autotuning ------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The autotuner experiment: searching the optimizer's configuration
/// space (pass order, inlining budgets, cold-outlining boundary,
/// function ordering) with a purely static cost oracle versus a
/// profile-driven one, then scoring both winners on a held-out input.
/// The headline — static_search_recovery — is the tuner-level analogue
/// of bench_opt's StaticRecoveryRatio: how much of the profile-guided
/// search's improvement the estimate-guided search finds without ever
/// running the program.
///
/// `--json FILE` writes the full sest-tune-report/1 document — the same
/// artifact `sestune --report FILE` produces, plus the gates
/// scripts/check_gates.py evaluates — and the baseline checked in as
/// bench/tune_report.json. No wall-clock fields: regenerating it on any
/// machine, at any --jobs value, is diff-clean.
///
/// Exit status is non-zero when a tuned winner fails differential
/// verification against the unoptimized run.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Gates.h"
#include "tune/Tune.h"

#include <fstream>

using namespace sest;
using namespace sest::bench;

int main(int argc, char **argv) {
  std::string JsonPath;
  for (int I = 1; I + 1 < argc; ++I)
    if (std::string_view(argv[I]) == "--json")
      JsonPath = argv[I + 1];

  out("== Estimator-guided autotuning: static vs profile search ==\n\n");

  std::vector<CompiledSuiteProgram> Suite = loadSuite();

  tune::TuneOptions Options;
  Options.Budget = 24;
  Options.Jobs = 0; // all cores; the report is byte-identical anyway
  tune::TuneSuiteReport Report = tune::computeTuneReport(Suite, Options);

  TextTable T;
  T.setHeader({"Program", "Identity", "Static best", "Profile best",
               "Overlap", "Regret", "Verified"});
  for (const tune::TuneProgramReport &P : Report.Programs) {
    if (!P.Ok) {
      T.addRow({P.Name, "ERROR: " + P.Error, "", "", "", "", ""});
      continue;
    }
    const tune::TuneOracleResult *Static = nullptr, *Profile = nullptr;
    bool Verified = true;
    for (const tune::TuneOracleResult &R : P.Oracles) {
      if (R.Oracle == "static")
        Static = &R;
      if (R.Oracle == "profile")
        Profile = &R;
      Verified = Verified && R.Verified;
    }
    T.addRow({P.Name, formatDouble(P.IdentityEvalCost, 0),
              Static ? pct(Static->EvalReduction) : "-",
              Profile ? pct(Profile->EvalReduction) : "-",
              pct(P.ConfigOverlap), formatDouble(P.Regret, 4),
              Verified ? "yes" : "NO"});
  }
  out(T.str());

  out("\nStatic-oracle search recovers " +
      pct(Report.StaticSearchRecovery) +
      " of the profile-oracle search's cost reduction (advisory floor: " +
      pct(Options.StaticSearchRecoveryFloor) + ", " +
      (Report.MeetsRecoveryFloor ? "met" : "NOT met") + ").\n");
  out("Mean winning-config agreement: " + pct(Report.MeanConfigOverlap) +
      "; mean regret: " + formatDouble(Report.MeanRegret, 4) + "\n");
  out("All tuned winners differentially verified: " +
      std::string(Report.AllVerified ? "yes" : "NO") + "\n");

  if (!JsonPath.empty()) {
    std::ofstream OutFile(JsonPath);
    if (!OutFile) {
      out("bench: cannot write '" + JsonPath + "'\n");
      return 1;
    }
    // The gates ride on this artifact only: tuneReportJson is also the
    // sestd `tune` response, which must not change.
    Gates G;
    G.min("tune.all_verified", Gates::Hard, Report.AllVerified, 1);
    G.min("tune.static_search_recovery", Gates::Advisory,
          Report.StaticSearchRecovery, Options.StaticSearchRecoveryFloor);
    G.slack("tune.mean_config_overlap", Gates::Advisory,
            Report.MeanConfigOverlap, 0.05, Gates::Higher);
    OutFile << G.appendTo(tune::tuneReportJson(Report, Options));
    out("\ntune report written to " + JsonPath + "\n");
  }

  return Report.AllVerified ? 0 : 1;
}
