//===- perfbench/Workloads.cpp - The four benchmark workloads -------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// service_warm, service_cold, suite_tune and native_tier. Each workload
/// sets up (three times; the median is setup_s), runs its timed loop for
/// the requested seconds with no telemetry context installed, and checks
/// every output against an independent reference.
///
/// A trace run runs the timed loop traced inside a root span and, in the
/// same span, replays the traced work through each layer's public entry
/// points, so the opaque top-level calls (Service::handleBatch,
/// compileAndProfileSuite, computeTuneReport) are attributed to lang,
/// cfg, callgraph, estimators, opt and interp. The root's self time is
/// trace.unattributed_ms: the harness between spans. A second loop
/// interleaves traced and untraced ops for trace.overhead_pct.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "BenchCommon.h"

#include "backend/Backend.h"
#include "backend/Native.h"
#include "interp/bytecode/BytecodeCompiler.h"
#include "interp/bytecode/BytecodeVM.h"
#include "opt/Pass.h"
#include "opt/WeightSource.h"
#include "service/Service.h"
#include "support/Hash.h"
#include "tune/Tune.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <optional>
#include <set>
#include <thread>

using namespace sest;
using namespace sest::bench;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

constexpr size_t BatchSize = 16;
constexpr unsigned SuiteJobs = 2;
constexpr int SetupReps = 3;

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile of raw samples (Q in [0, 1]).
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double peakRssMb() {
  struct rusage U = {};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Moves the calling thread to one CPU of the process's original set,
/// in turn. The native tier's single-threaded work rotates over them, so
/// one busy host core does not decide a whole run. Restores the
/// original set when destroyed.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&Original);
    if (::sched_getaffinity(0, sizeof(Original), &Original) != 0)
      return;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Original))
        Cpus.push_back(C);
  }
  ~CpuRotation() {
    if (!Cpus.empty())
      ::sched_setaffinity(0, sizeof(Original), &Original);
  }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  void moveTo(size_t Step) {
    if (Cpus.empty())
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Step % Cpus.size()], &One);
    ::sched_setaffinity(0, sizeof(One), &One);
  }

private:
  cpu_set_t Original;
  std::vector<int> Cpus;
};

/// Runs \p Setup SetupReps times; returns the median wall seconds.
template <typename F> double timeSetup(F Setup) {
  std::vector<double> S;
  for (int I = 0; I < SetupReps; ++I) {
    Clock::time_point T0 = Clock::now();
    Setup();
    S.push_back(msSince(T0) / 1e3);
  }
  return median(S);
}

void putLatency(Outcome &R, const std::vector<double> &LatMs,
                double BusyS, double Ops) {
  R.Metrics["throughput_ops"] = Ops / BusyS;
  R.Metrics["latency_p50_ms"] = percentile(LatMs, 0.50);
  R.Metrics["latency_p90_ms"] = percentile(LatMs, 0.90);
  R.Notes.push_back("latency samples: " + std::to_string(LatMs.size()));
}

/// Whether op \p Op of the loop that measures tracing overhead is
/// traced. Traced and untraced ops interleave, so both halves run under
/// the same cache, memory and host conditions; the Thue-Morse order
/// keeps the split balanced against any periodic structure of the
/// stream (a cold shuffle window is two batches).
bool tracedOp(size_t Op) { return std::popcount(Op) % 2 == 1; }

/// The tracer for op \p Op of a loop: every op, or with \p Alternate
/// only the traced half.
Tracer *tracerFor(Tracer *T, bool Alternate, size_t Op) {
  return T && (!Alternate || tracedOp(Op)) ? T : nullptr;
}

/// Median of the traced or untraced half of an alternating loop's
/// per-op samples.
double halfMedian(const std::vector<double> &V, bool Traced) {
  std::vector<double> Half;
  for (size_t I = 0; I < V.size(); ++I)
    if (tracedOp(I) == Traced)
      Half.push_back(V[I]);
  return median(Half);
}

void putOverhead(Outcome &R, double UntracedMs, double TracedMs) {
  R.Metrics["trace.overhead_pct"] =
      100.0 * (TracedMs - UntracedMs) / UntracedMs;
}

bool sameProfile(const Profile &A, const Profile &B) {
  if (A.Functions.size() != B.Functions.size() ||
      A.CallSiteCounts != B.CallSiteCounts || A.TotalCycles != B.TotalCycles)
    return false;
  for (size_t F = 0; F < A.Functions.size(); ++F) {
    const FunctionProfile &X = A.Functions[F], &Y = B.Functions[F];
    if (X.BlockCounts != Y.BlockCounts || X.ArcCounts != Y.ArcCounts ||
        X.EntryCount != Y.EntryCount)
      return false;
  }
  return true;
}

/// Same profile, steps, exit code and output as the reference run.
bool sameRun(const sest::RunResult &A, const sest::RunResult &Ref) {
  return A.Ok == Ref.Ok && A.StepsExecuted == Ref.StepsExecuted &&
         A.ExitCode == Ref.ExitCode && A.Output == Ref.Output &&
         sameProfile(A.TheProfile, Ref.TheProfile);
}

uint64_t countBlocks(const CfgModule &Cfgs) {
  uint64_t N = 0;
  for (const auto &[F, G] : Cfgs.all()) {
    (void)F;
    N += G->size();
  }
  return N;
}

/// Work counts gathered beside the spans of a trace run.
struct LayerCounts {
  uint64_t LangBytes = 0;
  uint64_t Blocks = 0;
  uint64_t Steps = 0;
};

/// One program's frontend artifacts, built through the layer entry
/// points under spans.
struct Frontend {
  std::unique_ptr<AstContext> Ctx = std::make_unique<AstContext>();
  std::optional<CfgModule> Cfgs;
  std::optional<CallGraph> CG;
  bool Ok = false;
};

Frontend buildFrontend(Tracer *T, LayerCounts &C, const std::string &Source,
                       uint64_t Id) {
  Frontend FE;
  DiagnosticEngine Diags;
  {
    Scope S(T, "lang.parseAndAnalyze", Id);
    FE.Ok = parseAndAnalyze(Source, *FE.Ctx, Diags);
  }
  C.LangBytes += Source.size();
  if (!FE.Ok)
    return FE;
  {
    Scope S(T, "cfg.build", Id);
    FE.Cfgs.emplace(CfgModule::build(FE.Ctx->unit(), Diags));
  }
  C.Blocks += countBlocks(*FE.Cfgs);
  {
    Scope S(T, "callgraph.build", Id);
    FE.CG.emplace(CallGraph::build(FE.Ctx->unit(), *FE.Cfgs));
  }
  return FE;
}

/// Estimates \p FE the way the service and the accuracy pass do:
/// intra-procedural predictions first, then the full pipeline reusing
/// them.
ProgramEstimate estimate(Tracer *T, const Frontend &FE, uint64_t Id) {
  EstimatorOptions Est;
  IntraEstimates Intra;
  {
    Scope S(T, "estimators.computeIntraEstimates", Id);
    Intra = computeIntraEstimates(FE.Ctx->unit(), *FE.Cfgs, Est);
  }
  Scope S(T, "estimators.estimateProgram", Id);
  return estimateProgram(FE.Ctx->unit(), *FE.Cfgs, *FE.CG, Est,
                         &Intra.Predictions);
}

/// Runs the pass pipeline \p Config over \p FE (mutating its CFGs).
void runPipeline(Tracer *T, Frontend &FE, const opt::TuneConfig &Config,
                 const ProgramEstimate &E, uint64_t Id) {
  Scope S(T, "opt.Pipeline::run", Id);
  opt::WeightSource W =
      opt::weightsFromEstimate(FE.Ctx->unit(), *FE.Cfgs, E, {});
  opt::Pipeline(Config).run(*FE.Ctx, *FE.Cfgs, *FE.CG, std::move(W));
}

/// Fills the per-layer metrics from a finished trace.
void putLayers(Outcome &R, const Tracer &T, const LayerCounts &C,
               double Units) {
  TraceSummary Sum = T.summarize();
  auto Total = [&](const char *Name) {
    auto It = Sum.TotalMsByName.find(Name);
    return It == Sum.TotalMsByName.end() ? 0.0 : It->second / Units;
  };
  auto Count = [&](const char *Name) {
    auto It = Sum.CountByName.find(Name);
    return It == Sum.CountByName.end()
               ? 0.0
               : static_cast<double>(It->second) / Units;
  };
  auto &M = R.Metrics;
  M["lang.busy_ms"] = Total("lang.parseAndAnalyze");
  M["lang.calls"] = Count("lang.parseAndAnalyze");
  if (M["lang.busy_ms"] > 0)
    M["lang.kb_per_ms"] =
        static_cast<double>(C.LangBytes) / 1024.0 / Units / M["lang.busy_ms"];
  M["cfg.busy_ms"] = Total("cfg.build");
  M["cfg.blocks"] = static_cast<double>(C.Blocks) / Units;
  M["callgraph.busy_ms"] = Total("callgraph.build");
  M["estimators.intra_ms"] = Total("estimators.computeIntraEstimates");
  M["estimators.estimate_ms"] = Total("estimators.estimateProgram");
  M["opt.pipeline_ms"] = Total("opt.Pipeline::run");
  M["opt.pipeline_calls"] = Count("opt.Pipeline::run");
  M["interp.bc_compile_ms"] = Total("interp.compileBytecode");
  M["interp.run_ms"] = Total("interp.run");
  M["interp.steps"] = static_cast<double>(C.Steps) / Units;
  if (M["interp.run_ms"] > 0)
    M["interp.steps_per_us"] =
        M["interp.steps"] / (M["interp.run_ms"] * 1e3);

  double Accounted = 0;
  for (const auto &[Layer, Ms] : Sum.SelfMsByLayer)
    if (Layer != "run")
      Accounted += Ms;
  M["trace.wall_ms"] = Sum.RootMs;
  M["trace.unattributed_ms"] = Sum.RootMs - Accounted;
  M["trace.spans"] = static_cast<double>(T.size());
  std::string Line = "trace self time by layer (ms):";
  for (const auto &[Layer, Ms] : Sum.SelfMsByLayer)
    Line += " " + Layer + "=" + formatDouble(Ms, 3);
  R.Notes.push_back(Line);
}

//===----------------------------------------------------------------------===//
// Service workloads
//===----------------------------------------------------------------------===//

/// Service operations in a fixed order, so (program, op, variant) maps
/// to a dense request index.
constexpr const char *Ops[] = {"estimate", "parse", "optimize", "report"};
constexpr size_t NumOps = 4;
constexpr unsigned NumVariants = 4;
constexpr const char *PassesByVariant[] = {"all", "layout", "inline", "all"};

size_t opIndex(const char *Op) {
  for (size_t I = 0; I < NumOps; ++I)
    if (std::string_view(Ops[I]) == Op)
      return I;
  return 0;
}

/// The request line for one (program, op, variant). The variants give
/// repeats of one program distinct cache keys per tier, as in the
/// service throughput bench.
std::string renderRequest(uint64_t Id, const std::string &Source,
                          const char *Op, unsigned Variant) {
  JsonWriter W;
  W.beginObject();
  W.member("id", Id);
  W.member("op", Op);
  W.member("source", Source);
  std::string_view OpView = Op;
  if (OpView == "estimate") {
    if (Variant == 1) {
      W.key("options").beginObject();
      W.member("intra", "markov").member("inter", "markov");
      W.endObject();
    } else if (Variant == 2) {
      W.key("options").beginObject();
      W.member("loop_iterations", static_cast<uint64_t>(16));
      W.endObject();
    } else if (Variant == 3) {
      W.member("blocks", true);
    }
  } else if (OpView == "optimize") {
    W.member("passes", PassesByVariant[Variant]);
    if (Variant == 3) {
      W.key("options").beginObject();
      W.member("taken_probability", 0.8);
      W.endObject();
    }
  } else if (OpView == "report") {
    W.member("input", "");
    W.member("seed", static_cast<uint64_t>(1 + Variant));
  }
  W.endObject();
  return W.take();
}

/// One cold request: which program, op and variant; the line is
/// rendered when it is sent.
struct Request {
  uint32_t Program;
  const char *Op;
  unsigned Variant;
};

/// Replays one request through the layer entry points the service's
/// op reaches (parse: frontend; estimate: + estimators; optimize: +
/// pass pipeline; report: + AST-walker run).
void replayRequest(Tracer *T, LayerCounts &C, const std::string &Source,
                   const Request &Q, uint64_t Id) {
  Frontend FE = buildFrontend(T, C, Source, Id);
  std::string_view Op = Q.Op;
  if (!FE.Ok || Op == "parse")
    return;
  ProgramEstimate E = estimate(T, FE, Id);
  if (Op == "optimize") {
    opt::TuneConfig Config;
    opt::TuneConfig::canned(PassesByVariant[Q.Variant], Config);
    runPipeline(T, FE, Config, E, Id);
  } else if (Op == "report") {
    ProgramInput In;
    In.RandSeed = 1 + Q.Variant;
    InterpOptions IO;
    IO.Engine = InterpEngine::Ast;
    Scope S(T, "interp.run", Id);
    C.Steps += runProgram(FE.Ctx->unit(), *FE.Cfgs, In, IO).StepsExecuted;
  }
}

/// A closed loop with one client: sends Stream[Pos..] in batches of 16,
/// each after the previous answer, until \p Seconds pass or the stream
/// ends. Rendering a line (\p LineOf) and checking a response
/// (\p OnResponse) happen outside the timed round trip.
struct ServiceLoop {
  std::vector<double> LatMs;
  std::vector<uint32_t> Sent;
  double BusyMs = 0;
};

template <typename LineFn, typename ResponseFn>
ServiceLoop runServiceLoop(service::Service &S,
                           const std::vector<uint32_t> &Stream, size_t &Pos,
                           double Seconds, Tracer *T, bool Alternate,
                           LineFn LineOf, ResponseFn OnResponse) {
  ServiceLoop L;
  std::vector<std::string> Batch;
  Clock::time_point Start = Clock::now();
  while (msSince(Start) < Seconds * 1e3 && Pos + BatchSize <= Stream.size()) {
    Batch.clear();
    for (size_t I = 0; I < BatchSize; ++I)
      Batch.push_back(LineOf(Stream[Pos + I]));
    Clock::time_point T0 = Clock::now();
    std::vector<std::string> Out;
    {
      Scope Sp(tracerFor(T, Alternate, L.LatMs.size()), "service.handleBatch",
               L.LatMs.size());
      Out = S.handleBatch(Batch);
    }
    double Ms = msSince(T0);
    L.LatMs.push_back(Ms);
    L.BusyMs += Ms;
    for (size_t I = 0; I < BatchSize; ++I) {
      L.Sent.push_back(Stream[Pos + I]);
      OnResponse(Stream[Pos + I], Out[I]);
    }
    Pos += BatchSize;
  }
  return L;
}

std::vector<service::CacheTierStats> tierStats(const service::Service &S) {
  std::vector<service::CacheTierStats> V;
  for (const service::ShardedCache *C : S.caches().all())
    V.push_back(C->stats());
  return V;
}

/// service.cache.<tier>.{hit_ratio,evictions} over the interval between
/// two snapshots, plus resident bytes at the end.
void putCacheMetrics(Outcome &R, const service::Service &S,
                     const std::vector<service::CacheTierStats> &Before) {
  std::vector<service::CacheTierStats> After = tierStats(S);
  uint64_t Bytes = 0;
  for (size_t I = 0; I < After.size(); ++I) {
    std::string Base = "service.cache." + S.caches().all()[I]->tier() + ".";
    double Hits = static_cast<double>(After[I].Hits - Before[I].Hits);
    double Misses = static_cast<double>(After[I].Misses - Before[I].Misses);
    R.Metrics[Base + "hit_ratio"] =
        Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0;
    R.Metrics[Base + "evictions"] =
        static_cast<double>(After[I].Evictions - Before[I].Evictions);
    Bytes += After[I].Bytes;
  }
  R.Metrics["service.cache.bytes"] = static_cast<double>(Bytes);
}

bool responseOk(const std::string &Resp) {
  return Resp.find("\"ok\":true") != std::string::npos;
}

} // namespace

/// service_warm: 48 genprog programs x 80 blocks, every (program, op,
/// variant) line (768) cached by an untimed pass in seeded order, then
/// the seeded zipfian stream answered from the response tier at Jobs 1.
Outcome perfbench::runServiceWarm(const RunOptions &O) {
  Outcome R;
  // The pool is the same for every seed (the seed draws the stream): a
  // hit's cost scales with its program's size, and which program is
  // hottest would otherwise move the figures from seed to seed.
  WorkloadConfig WC;
  std::vector<std::string> Sources;
  std::vector<std::string> Lines;
  std::unique_ptr<service::Service> S;
  std::vector<std::string> WarmResponses;
  std::vector<service::CacheTierStats> WarmPassStats;

  // Set-up: generate the pool, render the lines, and warm a fresh Jobs-1
  // service over every distinct line in seeded order.
  R.Metrics["setup_s"] = timeSetup([&] {
    Sources = syntheticSourcePool(WC);
    Lines.clear();
    for (size_t P = 0; P < Sources.size(); ++P)
      for (size_t Op = 0; Op < NumOps; ++Op)
        for (unsigned V = 0; V < NumVariants; ++V)
          Lines.push_back(renderRequest(Lines.size(), Sources[P], Ops[Op], V));
    std::vector<uint32_t> Order(Lines.size());
    for (uint32_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    Prng Rng(O.Seed ^ 0x77a2d1ULL);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
    S.reset();
    S = std::make_unique<service::Service>(service::ServiceOptions{});
    size_t Pos = 0;
    WarmResponses.assign(Lines.size(), "");
    runServiceLoop(
        *S, Order, Pos, 1e9, nullptr, false,
        [&](uint32_t I) { return Lines[I]; },
        [&](uint32_t I, std::string &Resp) {
          WarmResponses[I] = std::move(Resp);
        });
    WarmPassStats = tierStats(*S);
  });

  // References: a fresh cache-off Jobs-1 service, one line at a time.
  std::vector<std::string> Refs;
  {
    service::ServiceOptions RefOpts;
    RefOpts.CacheBudgetBytes = 0;
    service::Service Ref(RefOpts);
    for (const std::string &Line : Lines) {
      Refs.push_back(Ref.handle(Line));
      R.check(responseOk(Refs.back()), "reference not ok: " + Refs.back());
    }
  }
  for (size_t I = 0; I < Lines.size(); ++I)
    R.check(WarmResponses[I] == Refs[I],
            "warm-pass response differs from reference, request " +
                std::to_string(I));

  uint64_t Hits = 0, Misses = 0, Evictions = 0;
  for (const service::CacheTierStats &St : WarmPassStats) {
    Hits += St.Hits;
    Misses += St.Misses;
    Evictions += St.Evictions;
  }
  R.Metrics["service.setup_hits"] = static_cast<double>(Hits);
  R.Metrics["service.setup_misses"] = static_cast<double>(Misses);
  R.Metrics["service.setup_evictions"] = static_cast<double>(Evictions);

  // The zipfian request stream over the cached lines.
  RequestStream Gen(Sources.size(), defaultRequestMix(), O.Seed);
  std::vector<uint32_t> Stream(size_t(1) << 21);
  for (uint32_t &Idx : Stream) {
    SampledRequest Q = Gen.next();
    Idx = static_cast<uint32_t>(
        (Q.Program * NumOps + opIndex(Q.Op)) * NumVariants + Q.Variant);
  }

  auto LineOf = [&](uint32_t I) { return Lines[I]; };
  auto Check = [&](uint32_t I, const std::string &Resp) {
    R.check(Resp == Refs[I], "warm response differs from reference, "
                             "request " + std::to_string(I));
  };
  size_t Pos = 0;
  if (!O.Trace) {
    ServiceLoop L = runServiceLoop(*S, Stream, Pos, O.Seconds, nullptr, false,
                                   LineOf, Check);
    putLatency(R, L.LatMs, L.BusyMs / 1e3,
               static_cast<double>(L.Sent.size()));
  } else {
    Tracer T;
    std::vector<service::CacheTierStats> TracedBefore = tierStats(*S);
    ServiceLoop TL;
    {
      Scope Root(&T, "run");
      TL = runServiceLoop(*S, Stream, Pos, O.Seconds, &T, false, LineOf,
                          Check);
    }
    putCacheMetrics(R, *S, TracedBefore);
    Tracer Scratch;
    ServiceLoop AB = runServiceLoop(*S, Stream, Pos, O.Seconds, &Scratch,
                                    true, LineOf, Check);
    putOverhead(R, halfMedian(AB.LatMs, false), halfMedian(AB.LatMs, true));
    // A hit reaches no layer entry point: all of its time is the
    // service's own decode, hash, lookup and render.
    R.Metrics["service.unattributed_us"] = TL.BusyMs * 1e3 / TL.Sent.size();
    putLayers(R, T, LayerCounts(), 1.0);
    if (!O.TraceOut.empty() && !T.writeChromeJson(O.TraceOut))
      R.check(false, "cannot write " + O.TraceOut);
  }
  R.Metrics["peak_rss_mb"] = peakRssMb();
  return R;
}

namespace {

/// Fresh genprog programs per second of loop the cold stream provides:
/// 1.5x what a 4-core x86 host gets through at Jobs 2 (about 1350), so
/// the stream lasts the requested time with headroom.
constexpr size_t ColdProgramsPerSecond = 2000;
/// Programs whose four requests are shuffled together; keeps the mix
/// of tier hits stationary along the stream.
constexpr size_t ColdShuffleWindow = 8;

} // namespace

/// service_cold: every genprog program is fresh and requested once
/// under each op, batches of 16 at Jobs 2 with the default cache.
Outcome perfbench::runServiceCold(const RunOptions &O) {
  Outcome R;
  size_t NumPrograms = std::max<size_t>(
      ColdShuffleWindow,
      static_cast<size_t>((O.Trace ? 2 : 1) * O.Seconds *
                          ColdProgramsPerSecond));
  WorkloadConfig WC;
  WC.PoolSize = NumPrograms;
  WC.Seed = O.Seed * 1000003ULL; // disjoint program seeds per workload seed
  std::vector<std::string> Sources;
  std::vector<Request> Reqs;
  std::unique_ptr<service::Service> S;
  service::ServiceOptions Opts;
  Opts.Jobs = 2;

  // Set-up: generate the programs, draw the seeded stream, start the
  // service. Lines are rendered as they are sent, so only the sources
  // stay resident.
  R.Metrics["setup_s"] = timeSetup([&] {
    Sources = syntheticSourcePool(WC);
    Reqs.clear();
    Prng Rng(O.Seed ^ 0xc01dULL);
    for (size_t P0 = 0; P0 < NumPrograms; P0 += ColdShuffleWindow) {
      size_t Begin = Reqs.size();
      for (size_t P = P0; P < std::min(NumPrograms, P0 + ColdShuffleWindow);
           ++P)
        for (const char *Op : Ops)
          Reqs.push_back({static_cast<uint32_t>(P), Op,
                          static_cast<unsigned>(Rng.nextBelow(NumVariants))});
      for (size_t I = Reqs.size() - Begin; I > 1; --I)
        std::swap(Reqs[Begin + I - 1], Reqs[Begin + Rng.nextBelow(I)]);
    }
    S.reset();
    S = std::make_unique<service::Service>(Opts);
  });
  auto LineOf = [&](uint32_t I) {
    return renderRequest(I, Sources[Reqs[I].Program], Reqs[I].Op,
                         Reqs[I].Variant);
  };
  std::vector<uint64_t> ResponseHash(Reqs.size());
  auto Keep = [&](uint32_t I, const std::string &Resp) {
    ResponseHash[I] = contentHash64(Resp);
  };
  std::vector<uint32_t> Stream(Reqs.size());
  for (uint32_t I = 0; I < Stream.size(); ++I)
    Stream[I] = I;

  service::ServiceOptions RefOpts;
  RefOpts.CacheBudgetBytes = 0;
  auto Matches = [&](uint32_t I, const std::string &Expected) {
    return responseOk(Expected) && ResponseHash[I] == contentHash64(Expected);
  };
  auto Mismatch = [](uint32_t I) {
    return "cold response differs from reference, request " +
           std::to_string(I);
  };
  // Checks every response of an untraced loop against fresh cache-off
  // Jobs-1 services, one per checking thread.
  auto Verify = [&](const ServiceLoop &L) {
    constexpr unsigned Threads = 2;
    std::vector<std::vector<uint32_t>> Bad(Threads);
    std::vector<std::thread> Pool;
    for (unsigned W = 0; W < Threads; ++W)
      Pool.emplace_back([&, W] {
        service::Service Ref(RefOpts);
        for (size_t I = W; I < L.Sent.size(); I += Threads)
          if (!Matches(L.Sent[I], Ref.handle(LineOf(L.Sent[I]))))
            Bad[W].push_back(L.Sent[I]);
      });
    for (std::thread &Th : Pool)
      Th.join();
    uint64_t NumBad = 0;
    for (const std::vector<uint32_t> &V : Bad)
      for (uint32_t I : V) {
        R.check(false, Mismatch(I));
        ++NumBad;
      }
    for (size_t I = NumBad; I < L.Sent.size(); ++I)
      R.check(true, "");
  };
  // The traced loop's check runs on this thread: each reference request
  // is a service.handle span, and every ReplayEvery-th one is followed
  // by its replay through the layer entry points (sampled, so a trace
  // run stays well inside its time limit on a slow host).
  constexpr size_t ReplayEvery = 4;
  LayerCounts Counts;
  double HandleMs = 0, ReplayMs = 0;
  size_t Replayed = 0;
  auto VerifyTraced = [&](const ServiceLoop &L, Tracer &T) {
    service::Service Ref(RefOpts);
    for (size_t K = 0; K < L.Sent.size(); ++K) {
      uint32_t I = L.Sent[K];
      Clock::time_point T0 = Clock::now();
      std::string Expected;
      {
        Scope Sp(&T, "service.handle", I);
        Expected = Ref.handle(LineOf(I));
      }
      double Ms = msSince(T0);
      R.check(Matches(I, Expected), Mismatch(I));
      if (K % ReplayEvery)
        continue;
      HandleMs += Ms;
      T0 = Clock::now();
      replayRequest(&T, Counts, Sources[Reqs[I].Program], Reqs[I], I);
      ReplayMs += msSince(T0);
      ++Replayed;
    }
  };

  size_t Pos = 0;
  if (!O.Trace) {
    ServiceLoop L = runServiceLoop(*S, Stream, Pos, O.Seconds, nullptr, false,
                                   LineOf, Keep);
    Verify(L);
    putLatency(R, L.LatMs, L.BusyMs / 1e3,
               static_cast<double>(L.Sent.size()));
  } else {
    Tracer T;
    ServiceLoop TL;
    std::vector<service::CacheTierStats> Before = tierStats(*S);
    {
      Scope Root(&T, "run");
      TL = runServiceLoop(*S, Stream, Pos, O.Seconds, &T, false, LineOf,
                          Keep);
      VerifyTraced(TL, T);
    }
    putCacheMetrics(R, *S, Before);
    double N = static_cast<double>(Replayed);
    R.Metrics["service.unattributed_us"] = (HandleMs - ReplayMs) * 1e3 / N;
    S = std::make_unique<service::Service>(Opts);
    Tracer Scratch;
    ServiceLoop AB = runServiceLoop(*S, Stream, Pos, O.Seconds, &Scratch,
                                    true, LineOf, Keep);
    Verify(AB);
    putOverhead(R, halfMedian(AB.LatMs, false), halfMedian(AB.LatMs, true));
    putLayers(R, T, Counts, N);
    R.Notes.push_back("per-layer figures are per request over " +
                      std::to_string(Replayed) + " replayed of " +
                      std::to_string(TL.Sent.size()) + " traced requests");
    if (!O.TraceOut.empty() && !T.writeChromeJson(O.TraceOut))
      R.check(false, "cannot write " + O.TraceOut);
  }
  if (Pos + BatchSize > Stream.size())
    R.Notes.push_back("cold stream exhausted before the time was up");
  R.Metrics["peak_rss_mb"] = peakRssMb();
  return R;
}

namespace {

/// Per suite program, the AST walker's run of each input.
using Oracles = std::vector<std::vector<sest::RunResult>>;

struct Sweep {
  double ProfileMs = 0, AccuracyMs = 0, TuneMs = 0;
  double RunBusyMs = 0; ///< Σ per-run wall inside the suite pool.
  uint64_t Evaluations = 0, MemoHits = 0;
  std::vector<CompiledSuiteProgram> Suite;
  tune::TuneSuiteReport Tune;
  double totalMs() const { return ProfileMs + AccuracyMs + TuneMs; }
};

/// Profile the suite, score the estimates, tune — all at Jobs 2 — and
/// check every run against the oracle.
Sweep runSweep(Tracer *T, uint64_t Seed, const Oracles &Oracle,
               Outcome &R, uint64_t SweepId) {
  Sweep W;
  InterpOptions IO;
  IO.Engine = InterpEngine::Bytecode;
  Clock::time_point T0 = Clock::now();
  {
    Scope S(T, "suite.compileAndProfileSuite", SweepId);
    W.Suite = compileAndProfileSuite(IO, SuiteJobs);
  }
  W.ProfileMs = msSince(T0);
  T0 = Clock::now();
  std::vector<obs::AccuracyReport> Acc;
  {
    Scope S(T, "obs.computeSuiteAccuracy", SweepId);
    Acc = computeSuiteAccuracy(W.Suite, {}, SuiteJobs);
  }
  W.AccuracyMs = msSince(T0);
  tune::TuneOptions TO;
  TO.Budget = 24;
  TO.Seed = Seed;
  TO.Jobs = SuiteJobs;
  T0 = Clock::now();
  {
    Scope S(T, "tune.computeTuneReport", SweepId);
    W.Tune = tune::computeTuneReport(W.Suite, TO);
  }
  W.TuneMs = msSince(T0);

  R.check(Acc.size() == W.Suite.size(), "accuracy report count");
  R.check(W.Tune.AllVerified, "tune: not all winners verified");
  for (size_t P = 0; P < W.Suite.size(); ++P) {
    const CompiledSuiteProgram &C = W.Suite[P];
    const std::vector<sest::RunResult> &Refs = Oracle[P];
    R.check(C.Ok && C.Profiles.size() == Refs.size(),
            C.Spec->Name + ": " + C.Error);
    for (size_t I = 0; I < C.Profiles.size() && I < Refs.size(); ++I) {
      const sest::RunResult &Ref = Refs[I];
      R.check(sameProfile(C.Profiles[I], Ref.TheProfile) &&
                  C.RunStats[I].Steps == Ref.StepsExecuted &&
                  C.RunStats[I].ExitCode == Ref.ExitCode,
              C.Spec->Name + "/" + C.RunStats[I].InputName +
                  ": bytecode run differs from the AST walker");
      W.RunBusyMs += C.RunStats[I].WallMs;
    }
  }
  for (const tune::TuneProgramReport &P : W.Tune.Programs)
    for (const tune::TuneOracleResult &Res : P.Oracles) {
      W.Evaluations += Res.Evaluations;
      W.MemoHits += Res.CacheHits;
    }
  return W;
}

/// Attributes one sweep to the layers: each program's profile leg
/// (frontend, lowering, bytecode runs), its estimate, and one pass
/// pipeline per tuned winner.
void replaySweep(Tracer *T, LayerCounts &C, const Sweep &W) {
  for (size_t P = 0; P < W.Suite.size(); ++P) {
    const SuiteProgram &Spec = *W.Suite[P].Spec;
    Frontend FE = buildFrontend(T, C, Spec.Source, P);
    if (!FE.Ok)
      continue;
    bc::BcModule Bc;
    {
      Scope S(T, "interp.compileBytecode", P);
      Bc = bc::compileBytecode(FE.Ctx->unit(), *FE.Cfgs);
    }
    for (const ProgramInput &In : Spec.Inputs) {
      Scope S(T, "interp.run", P);
      C.Steps += bc::runProgramBytecode(FE.Ctx->unit(), *FE.Cfgs, Bc, In, {})
                     .StepsExecuted;
    }
    ProgramEstimate E = estimate(T, FE, P);
    if (P >= W.Tune.Programs.size())
      continue;
    for (const tune::TuneOracleResult &Res : W.Tune.Programs[P].Oracles) {
      Frontend Fresh = buildFrontend(T, C, Spec.Source, P);
      runPipeline(T, Fresh, Res.Best, E, P);
    }
  }
}

} // namespace

/// suite_tune: the paper's offline flow — profile the 14-program suite,
/// score the static estimates, tune — repeated until the time is up.
Outcome perfbench::runSuiteTune(const RunOptions &O) {
  Outcome R;
  const std::vector<SuiteProgram> &Suite = benchmarkSuite();
  std::vector<CompiledSuiteProgram> Compiled;
  Oracles Oracle;
  // Set-up: compile every suite program and run each input under the
  // AST walker, the oracle the bytecode runs are checked against. Two
  // threads claim programs in order.
  R.Metrics["setup_s"] = timeSetup([&] {
    Compiled.clear();
    Compiled.resize(Suite.size());
    Oracle.assign(Suite.size(), {});
    std::atomic<size_t> Next{0};
    auto Work = [&] {
      for (size_t P; (P = Next++) < Suite.size();) {
        Compiled[P] = compileProgramOnly(Suite[P]);
        if (!Compiled[P].Ok)
          continue;
        InterpOptions IO;
        IO.Engine = InterpEngine::Ast;
        for (const ProgramInput &In : Suite[P].Inputs)
          Oracle[P].push_back(
              runProgram(Compiled[P].unit(), *Compiled[P].Cfgs, In, IO));
      }
    };
    std::thread Helper(Work);
    Work();
    Helper.join();
  });
  for (size_t P = 0; P < Suite.size(); ++P) {
    R.check(Compiled[P].Ok, Suite[P].Name + ": " + Compiled[P].Error);
    if (!Compiled[P].Ok)
      return R;
  }

  auto Loop = [&](Tracer *T, bool Alternate) {
    std::vector<Sweep> Out;
    Clock::time_point Start = Clock::now();
    do
      Out.push_back(runSweep(tracerFor(T, Alternate, Out.size()), O.Seed,
                             Oracle, R, Out.size()));
    while (msSince(Start) < O.Seconds * 1e3 || (Alternate && Out.size() < 2));
    return Out;
  };
  auto SweepTimes = [&](const std::vector<Sweep> &Sweeps) {
    std::vector<double> Ms;
    std::string Line = "sweeps (profile+accuracy+tune ms):";
    for (const Sweep &W : Sweeps) {
      Ms.push_back(W.totalMs());
      Line.append(" ").append(formatDouble(W.ProfileMs, 0));
      Line.append("+").append(formatDouble(W.AccuracyMs, 0));
      Line.append("+").append(formatDouble(W.TuneMs, 0));
    }
    R.Notes.push_back(Line);
    return Ms;
  };
  if (!O.Trace) {
    std::vector<Sweep> Sweeps = Loop(nullptr, false);
    std::vector<double> Ms = SweepTimes(Sweeps);
    double BusyMs = 0;
    for (double X : Ms)
      BusyMs += X;
    putLatency(R, Ms, BusyMs / 1e3,
               static_cast<double>(Sweeps.size() * Suite.size()));
  } else {
    Tracer T;
    LayerCounts Counts;
    std::vector<Sweep> Traced;
    {
      Scope Root(&T, "run");
      Traced = Loop(&T, false);
      replaySweep(&T, Counts, Traced.front());
    }
    SweepTimes(Traced);
    double K = static_cast<double>(Traced.size());
    double Profile = 0, Acc = 0, Tune = 0, RunBusy = 0, Evals = 0, Hits = 0;
    for (const Sweep &W : Traced) {
      Profile += W.ProfileMs;
      Acc += W.AccuracyMs;
      Tune += W.TuneMs;
      RunBusy += W.RunBusyMs;
      Evals += static_cast<double>(W.Evaluations);
      Hits += static_cast<double>(W.MemoHits);
    }
    Tracer Scratch;
    std::vector<double> AB = SweepTimes(Loop(&Scratch, true));
    putOverhead(R, halfMedian(AB, false), halfMedian(AB, true));
    putLayers(R, T, Counts, 1.0);
    auto &M = R.Metrics;
    M["suite.profile_ms"] = Profile / K;
    M["suite.pool_efficiency"] = RunBusy / (SuiteJobs * Profile);
    M["obs.accuracy_ms"] = Acc / K;
    M["tune.sweep_ms"] = Tune / K;
    M["tune.evaluations"] = Evals / K;
    M["tune.memo_hit_ratio"] = Hits / (Hits + Evals);
    M["tune.ms_per_evaluation"] = Tune / Evals;
    R.Notes.push_back("suite/tune figures are per sweep over " +
                      std::to_string(Traced.size()) +
                      " sweeps; frontend, interp, estimators and opt "
                      "figures replay one sweep");
    if (!O.TraceOut.empty() && !T.writeChromeJson(O.TraceOut))
      R.check(false, "cannot write " + O.TraceOut);
  }
  R.Metrics["peak_rss_mb"] = peakRssMb();
  return R;
}

namespace {

/// Compile-heavy gcc, the reference translation unit compress, and
/// run-heavy alvinn.
constexpr const char *NativePrograms[] = {"gcc", "compress", "alvinn"};

struct NativeProgram {
  CompiledSuiteProgram C;
  std::unique_ptr<bc::BcModule> Bc;
  std::vector<sest::RunResult> Refs; ///< Bytecode runs, per input.
  std::shared_ptr<const backend::NativeArtifact> Artifact;
  double CompileMs = 0;
};

} // namespace

/// native_tier: lower, emit C, cc and dlopen each program cold, then
/// run its inputs round-robin until the time is up.
Outcome perfbench::runNativeTier(const RunOptions &O) {
  Outcome R;
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why)) {
    R.check(false, "native engine unavailable: " + Why);
    return R;
  }
  std::vector<NativeProgram> Progs;
  // Set-up: frontend and bytecode lowering of the three programs, and
  // the bytecode run of each input that the native runs must match.
  R.Metrics["setup_s"] = timeSetup([&] {
    Progs.clear();
    for (const char *Name : NativePrograms) {
      NativeProgram P;
      P.C = compileProgramOnly(*findSuiteProgram(Name));
      if (P.C.Ok) {
        P.Bc = std::make_unique<bc::BcModule>(
            bc::compileBytecode(P.C.unit(), *P.C.Cfgs));
        for (const ProgramInput &In : P.C.Spec->Inputs)
          P.Refs.push_back(
              bc::runProgramBytecode(P.C.unit(), *P.C.Cfgs, *P.Bc, In, {}));
      }
      Progs.push_back(std::move(P));
    }
  });
  for (NativeProgram &P : Progs) {
    R.check(P.C.Ok, P.C.Spec->Name + ": " + P.C.Error);
    if (!P.C.Ok)
      return R;
  }

  Tracer T;
  Tracer *TP = O.Trace ? &T : nullptr;
  // The trace's root spans the compile phase, the traced run phase and
  // the attribution replay.
  int Root = O.Trace ? T.begin("run", 0) : -1;
  // Compile phase: one cold cc per program. Artifacts are memoized
  // process-wide by source hash, so a call that returns faster than the
  // artifact's own compile time was served from that memo.
  std::set<const backend::NativeArtifact *> Seen;
  double CompileMs = 0;
  uint64_t SourceBytes = 0;
  for (size_t I = 0; I < Progs.size(); ++I) {
    NativeProgram &P = Progs[I];
    std::string Err;
    CpuRotation Rotation; // cc inherits the CPU of its program's turn
    Rotation.moveTo(I);
    Clock::time_point T0 = Clock::now();
    {
      Scope S(TP, "backend.compile", I);
      P.Artifact = backend::cBackend().compile(P.C.unit(), *P.C.Cfgs, *P.Bc,
                                               backend::NativeLayoutPlan{},
                                               &Err);
    }
    P.CompileMs = msSince(T0);
    CompileMs += P.CompileMs;
    R.check(P.Artifact != nullptr, P.C.Spec->Name + ": " + Err);
    if (!P.Artifact)
      return R;
    R.check(P.CompileMs >= P.Artifact->compileMs() &&
                Seen.insert(P.Artifact.get()).second,
            P.C.Spec->Name + ": artifact came from the memo, not a cold cc");
    SourceBytes += P.Artifact->sourceBytes();
  }

  // Run phase: every (program, input) once per round, in seeded order.
  std::vector<std::pair<size_t, size_t>> Pairs;
  for (size_t P = 0; P < Progs.size(); ++P)
    for (size_t I = 0; I < Progs[P].Refs.size(); ++I)
      Pairs.emplace_back(P, I);
  Prng Rng(O.Seed ^ 0x4a7e11ULL);
  for (size_t I = Pairs.size(); I > 1; --I)
    std::swap(Pairs[I - 1], Pairs[Rng.nextBelow(I)]);
  auto RunPhase = [&](Tracer *Tr, bool Alternate) {
    std::vector<std::vector<double>> PerPairMs(Pairs.size());
    Clock::time_point Start = Clock::now();
    CpuRotation Rotation;
    for (size_t Round = 0; msSince(Start) < O.Seconds * 1e3; ++Round) {
      Rotation.moveTo(Round);
      for (size_t K = 0; K < Pairs.size(); ++K) {
        auto [P, I] = Pairs[K];
        const NativeProgram &NP = Progs[P];
        Clock::time_point T0 = Clock::now();
        sest::RunResult Run;
        {
          Scope S(tracerFor(Tr, Alternate, Round), "backend.run",
                  P * 100 + I);
          Run = NP.Artifact->run(NP.C.unit(), *NP.C.Cfgs,
                                 NP.C.Spec->Inputs[I], {});
        }
        PerPairMs[K].push_back(msSince(T0));
        R.check(sameRun(Run, NP.Refs[I]),
                NP.C.Spec->Name + "/" + NP.C.Spec->Inputs[I].Name +
                    ": native run differs from the bytecode run");
      }
    }
    return PerPairMs;
  };
  // Per-input medians summed: backend.run_ms, and for the overhead
  // loop the same over its traced or untraced rounds.
  auto SumOfMedians = [](const std::vector<std::vector<double>> &PerPair,
                         auto Median) {
    double Ms = 0;
    for (const std::vector<double> &V : PerPair)
      Ms += Median(V);
    return Ms;
  };

  if (!O.Trace) {
    std::vector<std::vector<double>> PerPair = RunPhase(nullptr, false);
    // One op is a round: every input of the three programs once. Its
    // time is dominated by alvinn, as a user re-running the set sees it;
    // a single run's median would sit on whichever program holds the
    // middle rank.
    std::vector<double> RoundMs(PerPair.front().size(), 0.0);
    double RunMs = 0;
    std::string Line = "native median run ms per input:";
    for (size_t K = 0; K < Pairs.size(); ++K) {
      for (size_t Round = 0; Round < RoundMs.size(); ++Round)
        RoundMs[Round] += PerPair[K][Round];
      for (double Ms : PerPair[K])
        RunMs += Ms;
      Line.append(" ")
          .append(Progs[Pairs[K].first].C.Spec->Name)
          .append("/")
          .append(std::to_string(Pairs[K].second))
          .append("=")
          .append(formatDouble(median(PerPair[K]), 3));
    }
    R.Notes.push_back(Line);
    putLatency(R, RoundMs, (CompileMs + RunMs) / 1e3,
               static_cast<double>(RoundMs.size()));
  } else {
    std::vector<std::vector<double>> Traced = RunPhase(&T, false);
    LayerCounts Counts;
    for (size_t I = 0; I < Progs.size(); ++I) {
      NativeProgram &P = Progs[I];
      {
        Scope S(&T, "interp.compileBytecode", I);
        bc::compileBytecode(P.C.unit(), *P.C.Cfgs);
      }
      Scope S(&T, "backend.emitSource", I);
      std::string Err;
      backend::cBackend().emitSource(P.C.unit(), *P.C.Cfgs, *P.Bc,
                                     backend::NativeLayoutPlan{}, &Err);
    }
    T.end(Root);
    Tracer Scratch;
    std::vector<std::vector<double>> AB = RunPhase(&Scratch, true);
    auto UntracedHalf = [](auto &V) { return halfMedian(V, false); };
    auto TracedHalf = [](auto &V) { return halfMedian(V, true); };
    putOverhead(R, SumOfMedians(AB, UntracedHalf),
                SumOfMedians(AB, TracedHalf));
    putLayers(R, T, Counts, 1.0);
    TraceSummary Sum = T.summarize();
    R.Metrics["backend.emit_ms"] = Sum.TotalMsByName["backend.emitSource"];
    R.Metrics["backend.compile_ms"] = CompileMs;
    R.Metrics["backend.run_ms"] = SumOfMedians(Traced, median);
    if (!O.TraceOut.empty() && !T.writeChromeJson(O.TraceOut))
      R.check(false, "cannot write " + O.TraceOut);
  }
  R.Metrics["backend.c_kb"] = static_cast<double>(SourceBytes) / 1024.0;
  R.Notes.push_back("native compile (emit + cc + dlopen): " +
                    formatDouble(CompileMs, 1) + " ms for " +
                    std::to_string(Progs.size()) + " programs");
  R.Metrics["peak_rss_mb"] = peakRssMb();
  return R;
}
