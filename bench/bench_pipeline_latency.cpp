//===- bench/bench_pipeline_latency.cpp - Per-stage latency percentiles ---===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Latency observability for the analysis pipeline: times each stage
/// (parse, CFG construction, call-graph construction, estimation) over
/// a zipfian stream of genprog-shaped programs — the same workload
/// model bench_service drives through the sestd analysis service (see
/// the shared helpers in BenchCommon.h) — and reports p50/p90/p99
/// percentiles per stage: the flight-recorder view of "what does one
/// cold request cost, stage by stage".
///
/// `--json FILE` writes the sest-pipeline-latency/1 artifact with one
/// advisory gate per stage (p90 within 3x of the baseline); the
/// checked-in baseline lives at bench/pipeline_latency.json. `--reps N`
/// scales the sample count (N samples per pool program on average,
/// default 20).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "callgraph/CallGraph.h"
#include "cfg/Cfg.h"
#include "lang/Parser.h"
#include "obs/Telemetry.h"
#include "support/Gates.h"

#include <chrono>
#include <fstream>

using namespace sest;
using namespace sest::bench;

namespace {

using Clock = std::chrono::steady_clock;

double usSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - Start)
      .count();
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath;
  unsigned Reps = 20;
  WorkloadConfig WC;
  WC.PoolSize = 24;
  WC.Seed = 7;
  for (int I = 1; I + 1 < argc; ++I) {
    std::string_view Arg = argv[I];
    if (Arg == "--json")
      JsonPath = argv[I + 1];
    else if (Arg == "--reps")
      Reps = static_cast<unsigned>(
          std::strtoul(argv[I + 1], nullptr, 10));
    else if (Arg == "--pool")
      WC.PoolSize = std::strtoull(argv[I + 1], nullptr, 10);
    else if (Arg == "--blocks")
      WC.TargetBlocks = std::strtoull(argv[I + 1], nullptr, 10);
    else if (Arg == "--seed")
      WC.Seed = std::strtoull(argv[I + 1], nullptr, 10);
  }
  size_t Samples = static_cast<size_t>(Reps) * WC.PoolSize;

  out("== Pipeline stage latency percentiles ==\n\n");
  out("pool " + std::to_string(WC.PoolSize) + " programs x " +
      std::to_string(WC.TargetBlocks) + " blocks, " +
      std::to_string(Samples) + " zipfian samples\n\n");

  // One Telemetry context used purely as a percentile-histogram sink;
  // it is never installed, so the measured stages run unobserved.
  obs::Telemetry Hist;
  std::vector<std::string> Pool = syntheticSourcePool(WC);
  ZipfSampler Zipf(Pool.size(), 1.0, WC.Seed);

  for (size_t S = 0; S < Samples; ++S) {
    const std::string &Source = Pool[Zipf.next()];
    AstContext Ctx;
    DiagnosticEngine Diags;

    Clock::time_point T0 = Clock::now();
    bool Parsed = parseAndAnalyze(Source, Ctx, Diags);
    Hist.record("parse", usSince(T0));
    if (!Parsed) {
      out("FATAL: synthetic program failed to compile:\n" + Diags.str());
      return 1;
    }

    T0 = Clock::now();
    CfgModule Cfgs = CfgModule::build(Ctx.unit(), Diags);
    Hist.record("cfg", usSince(T0));
    if (Diags.hasErrors()) {
      out("FATAL: synthetic program CFG error:\n" + Diags.str());
      return 1;
    }

    T0 = Clock::now();
    CallGraph CG = CallGraph::build(Ctx.unit(), Cfgs);
    Hist.record("callgraph", usSince(T0));

    EstimatorOptions Est;
    Est.Jobs = 1;
    T0 = Clock::now();
    ProgramEstimate E = estimateProgram(Ctx.unit(), Cfgs, CG, Est);
    Hist.record("estimate", usSince(T0));
    (void)E;
  }

  TextTable T;
  T.setHeader({"Stage", "N", "Mean us", "P50 us", "P90 us", "P99 us",
               "Max us"});
  for (const auto &[Name, H] : Hist.histograms())
    T.addRow({Name, std::to_string(H.Count), formatDouble(H.mean(), 1),
              formatDouble(H.p50(), 1), formatDouble(H.p90(), 1),
              formatDouble(H.p99(), 1), formatDouble(H.Max, 1)});
  out(T.str());

  if (!JsonPath.empty()) {
    JsonWriter W;
    W.beginObject();
    W.member("schema", "sest-pipeline-latency/1");
    W.member("repetitions", static_cast<uint64_t>(Reps));
    W.member("programs", static_cast<uint64_t>(WC.PoolSize));
    W.member("samples", static_cast<uint64_t>(Samples));
    Gates G;
    W.key("stages").beginObject();
    for (const auto &[Name, H] : Hist.histograms()) {
      G.factor("latency." + Name + ".p90_us", Gates::Advisory, H.p90(), 3,
               Gates::Lower);
      W.key(Name).beginObject();
      W.member("count", static_cast<uint64_t>(H.Count))
          .member("mean_us", H.mean())
          .member("p50_us", H.p50())
          .member("p90_us", H.p90())
          .member("p99_us", H.p99())
          .member("max_us", H.Max);
      W.endObject();
    }
    W.endObject();
    G.write(W);
    W.endObject();
    std::ofstream OutFile(JsonPath);
    if (!OutFile) {
      out("bench: cannot write '" + JsonPath + "'\n");
      return 1;
    }
    OutFile << W.take();
    out("\nlatency artifact written to " + JsonPath + "\n");
  }
  return 0;
}
