//===- bench/bench_analysis_time.cpp - Analysis-cost benchmark -------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark timings backing the paper's cost claim ("We limited
/// our analysis methods to those whose running time was comparable to
/// conventional sequential compiler optimizations", §2): per-program
/// wall time for the frontend (lex+parse+sema), CFG construction, and
/// each estimation pipeline, so the estimators can be compared against
/// the cost of compilation itself.
///
/// `--json FILE` writes the iteration timings as
/// {"benchmarks": [{"name", "real_time", "time_unit"}], "gates": [...]}:
/// one advisory gate per benchmark (real time within 3x of the
/// baseline) and the sparse-over-dense solver speedup at 1000 blocks
/// (at least 5x, advisory). google-benchmark's own --benchmark_out
/// cannot carry the gates. The checked-in baseline is
/// bench/analysis_time.json, written with
/// --benchmark_filter='solver|pipeline'.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "lang/Parser.h"
#include "suite/Synthetic.h"
#include "support/Gates.h"

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

using namespace sest;

namespace {

const SuiteProgram &programByIndex(int64_t I) {
  return benchmarkSuite()[static_cast<size_t>(I)];
}

void BM_Frontend(benchmark::State &State) {
  const SuiteProgram &P = programByIndex(State.range(0));
  State.SetLabel(P.Name);
  for (auto _ : State) {
    AstContext Ctx;
    DiagnosticEngine Diags;
    bool Ok = parseAndAnalyze(P.Source, Ctx, Diags);
    benchmark::DoNotOptimize(Ok);
  }
}

void BM_CfgBuild(benchmark::State &State) {
  const SuiteProgram &P = programByIndex(State.range(0));
  State.SetLabel(P.Name);
  AstContext Ctx;
  DiagnosticEngine Diags;
  parseAndAnalyze(P.Source, Ctx, Diags);
  for (auto _ : State) {
    CfgModule Cfgs = CfgModule::build(Ctx.unit(), Diags);
    benchmark::DoNotOptimize(Cfgs.all().size());
  }
}

void estimatePipeline(benchmark::State &State, IntraEstimatorKind Intra,
                      InterEstimatorKind Inter) {
  const SuiteProgram &P = programByIndex(State.range(0));
  State.SetLabel(P.Name);
  AstContext Ctx;
  DiagnosticEngine Diags;
  parseAndAnalyze(P.Source, Ctx, Diags);
  CfgModule Cfgs = CfgModule::build(Ctx.unit(), Diags);
  CallGraph CG = CallGraph::build(Ctx.unit(), Cfgs);
  EstimatorOptions Options;
  Options.Intra = Intra;
  Options.Inter = Inter;
  for (auto _ : State) {
    ProgramEstimate E = estimateProgram(Ctx.unit(), Cfgs, CG, Options);
    benchmark::DoNotOptimize(E.FunctionEstimates.data());
  }
}

void BM_EstimateSmartDirect(benchmark::State &State) {
  estimatePipeline(State, IntraEstimatorKind::Smart,
                   InterEstimatorKind::Direct);
}

void BM_EstimateSmartMarkov(benchmark::State &State) {
  estimatePipeline(State, IntraEstimatorKind::Smart,
                   InterEstimatorKind::Markov);
}

void BM_EstimateMarkovMarkov(benchmark::State &State) {
  estimatePipeline(State, IntraEstimatorKind::Markov,
                   InterEstimatorKind::Markov);
}

//===----------------------------------------------------------------------===//
// Solver scaling on generated large CFGs
//===----------------------------------------------------------------------===//

/// One compiled synthetic program per (shape, blocks), built lazily and
/// kept for the process lifetime so the timed region is the solve alone.
struct SyntheticCfg {
  std::unique_ptr<AstContext> Ctx;
  std::unique_ptr<CfgModule> Cfgs;
  const Cfg *Biggest = nullptr;
  FunctionBranchPredictions Predictions;
};

const SyntheticCfg &syntheticCfg(size_t Blocks) {
  static std::map<size_t, SyntheticCfg> Cache;
  auto [It, New] = Cache.try_emplace(Blocks);
  SyntheticCfg &S = It->second;
  if (!New)
    return S;
  // Mixed control flow concentrated in one giant function: serial if
  // chains, loop nests, switch dispatch, and irreducible goto regions —
  // the block mix a large real function would have.
  SyntheticConfig Config;
  Config.Shape = SyntheticShape::Mixed;
  Config.TargetBlocks = Blocks;
  Config.FunctionBlocks = Blocks;
  Config.Seed = 9;
  std::string Source = generateSyntheticSource(Config);
  S.Ctx = std::make_unique<AstContext>();
  DiagnosticEngine Diags;
  if (!parseAndAnalyze(Source, *S.Ctx, Diags))
    std::abort();
  S.Cfgs = std::make_unique<CfgModule>(
      CfgModule::build(S.Ctx->unit(), Diags));
  for (const auto &[F, G] : S.Cfgs->all()) {
    (void)F;
    if (!S.Biggest || G->size() > S.Biggest->size())
      S.Biggest = G;
  }
  BranchPredictor Predictor((BranchPredictorConfig()));
  S.Predictions = Predictor.predictFunction(*S.Biggest);
  return S;
}

void solverBench(benchmark::State &State, MarkovSolverKind Kind) {
  const SyntheticCfg &S = syntheticCfg(static_cast<size_t>(State.range(0)));
  State.SetLabel(std::to_string(S.Biggest->size()) + " blocks");
  MarkovIntraConfig Config;
  Config.Solver = Kind;
  for (auto _ : State) {
    MarkovIntraResult R =
        markovBlockFrequencies(*S.Biggest, Config, &S.Predictions);
    benchmark::DoNotOptimize(R.BlockFrequencies.data());
  }
}

void BM_SolverSparse(benchmark::State &State) {
  solverBench(State, MarkovSolverKind::Sparse);
}

void BM_SolverDense(benchmark::State &State) {
  solverBench(State, MarkovSolverKind::Dense);
}

/// Whole-pipeline wall time on a many-function synthetic program, at
/// several worker counts — the parallel-estimation payoff.
void BM_PipelineJobs(benchmark::State &State) {
  static std::unique_ptr<AstContext> Ctx;
  static std::unique_ptr<CfgModule> Cfgs;
  static std::unique_ptr<CallGraph> CG;
  if (!Ctx) {
    SyntheticConfig Config;
    Config.Shape = SyntheticShape::Mixed;
    Config.TargetBlocks = 4000;
    Config.Seed = 13;
    std::string Source = generateSyntheticSource(Config);
    Ctx = std::make_unique<AstContext>();
    DiagnosticEngine Diags;
    if (!parseAndAnalyze(Source, *Ctx, Diags))
      std::abort();
    Cfgs = std::make_unique<CfgModule>(CfgModule::build(Ctx->unit(), Diags));
    CG = std::make_unique<CallGraph>(CallGraph::build(Ctx->unit(), *Cfgs));
  }
  EstimatorOptions Options;
  Options.Intra = IntraEstimatorKind::Markov;
  Options.Jobs = static_cast<unsigned>(State.range(0));
  State.SetLabel("jobs=" + std::to_string(Options.Jobs));
  for (auto _ : State) {
    ProgramEstimate E = estimateProgram(Ctx->unit(), *Cfgs, *CG, Options);
    benchmark::DoNotOptimize(E.FunctionEstimates.data());
  }
}

void registerAll() {
  int64_t N = static_cast<int64_t>(benchmarkSuite().size());
  for (int64_t I = 0; I < N; ++I) {
    benchmark::RegisterBenchmark("frontend", BM_Frontend)->Arg(I);
    benchmark::RegisterBenchmark("cfg_build", BM_CfgBuild)->Arg(I);
    benchmark::RegisterBenchmark("estimate/smart+direct",
                                 BM_EstimateSmartDirect)
        ->Arg(I);
    benchmark::RegisterBenchmark("estimate/smart+markov",
                                 BM_EstimateSmartMarkov)
        ->Arg(I);
    benchmark::RegisterBenchmark("estimate/markov+markov",
                                 BM_EstimateMarkovMarkov)
        ->Arg(I);
  }
  // Solver scaling: sparse at every size; dense only where O(N^3)
  // stays affordable (at 5k blocks one dense solve takes minutes).
  for (int64_t Blocks : {100, 1000, 5000})
    benchmark::RegisterBenchmark("solver/sparse", BM_SolverSparse)
        ->Arg(Blocks);
  for (int64_t Blocks : {100, 1000})
    benchmark::RegisterBenchmark("solver/dense", BM_SolverDense)
        ->Arg(Blocks);
  for (int64_t Jobs : {1, 4})
    benchmark::RegisterBenchmark("pipeline/estimate_jobs", BM_PipelineJobs)
        ->Arg(Jobs);
}

/// The console reporter, also keeping the iteration runs for `--json`.
class RecordingReporter : public benchmark::ConsoleReporter {
public:
  std::vector<Run> Iterations;

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs)
      if (R.run_type == Run::RT_Iteration && !R.error_occurred)
        Iterations.push_back(R);
    ConsoleReporter::ReportRuns(Runs);
  }
};

bool writeJson(const std::string &Path,
               const std::vector<RecordingReporter::Run> &Runs) {
  JsonWriter W;
  Gates G;
  std::map<std::string, double> Times;
  W.beginObject();
  W.key("benchmarks").beginArray();
  for (const RecordingReporter::Run &R : Runs) {
    const std::string Name = R.benchmark_name();
    const double Time = R.GetAdjustedRealTime();
    if (!Times.emplace(Name, Time).second)
      continue; // a repetition; gate names must stay unique
    W.beginObject()
        .member("name", Name)
        .member("real_time", Time)
        .member("time_unit", benchmark::GetTimeUnitString(R.time_unit))
        .endObject();
    G.factor("analysis_time." + Name + ".real_time", Gates::Advisory, Time,
             3, Gates::Lower);
  }
  W.endArray();
  // Both solvers run on the same host in the same process, so their
  // ratio is the machine-independent half of the timing.
  if (Times.count("solver/sparse/1000") && Times.count("solver/dense/1000"))
    G.min("analysis_time.solver_sparse_speedup_1000", Gates::Advisory,
          Times["solver/dense/1000"] / Times["solver/sparse/1000"], 5);
  G.write(W);
  W.endObject();
  std::ofstream OutFile(Path);
  if (!OutFile) {
    bench::out("bench: cannot write '" + Path + "'\n");
    return false;
  }
  OutFile << W.take();
  bench::out("timings written to " + Path + "\n");
  return true;
}

} // namespace

int main(int argc, char **argv) {
  // `--json FILE` is ours; everything else goes to google-benchmark.
  std::string JsonPath;
  std::vector<char *> Args;
  for (int I = 0; I < argc; ++I) {
    if (std::string_view(argv[I]) == "--json" && I + 1 < argc)
      JsonPath = argv[++I];
    else
      Args.push_back(argv[I]);
  }
  int NumArgs = static_cast<int>(Args.size());
  Args.push_back(nullptr);
  registerAll();
  benchmark::Initialize(&NumArgs, Args.data());
  RecordingReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  if (!JsonPath.empty() && !writeJson(JsonPath, Reporter.Iterations))
    return 1;
  return 0;
}
