//===- backend/Native.cpp - Host cc driver, dlopen, native runs -----------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
//
// The host side of the native tier: probe for a C compiler, drive it over
// the CBackend's generated translation unit, dlopen the shared object,
// verify the ABI handshake, and decode sest_native_result back into the
// RunResult contract. Loaded artifacts are memoized process-wide by
// generated-source content hash; the hook registration at the bottom
// routes runProgram(Engine=Native) here without making src/interp depend
// on this library.
//
//===----------------------------------------------------------------------===//

#include "backend/Native.h"

#include "backend/CBackend.h"
#include "backend/NativeAbi.h"
#include "cfg/Cfg.h"
#include "interp/bytecode/BytecodeCompiler.h"
#include "lang/Ast.h"
#include "lang/Type.h"
#include "obs/Telemetry.h"
#include "support/Hash.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>

#include <dlfcn.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace sest;
using namespace sest::backend;

//===----------------------------------------------------------------------===//
// Compiler probe
//===----------------------------------------------------------------------===//

namespace {

bool isExecutable(const std::string &P) {
  return !P.empty() && ::access(P.c_str(), X_OK) == 0;
}

std::string findOnPath(const std::string &Name) {
  if (Name.find('/') != std::string::npos)
    return isExecutable(Name) ? Name : "";
  const char *Path = std::getenv("PATH");
  if (!Path)
    return "";
  std::string S(Path);
  size_t Start = 0;
  while (Start <= S.size()) {
    size_t End = S.find(':', Start);
    if (End == std::string::npos)
      End = S.size();
    std::string Dir = S.substr(Start, End - Start);
    if (!Dir.empty()) {
      std::string Cand = Dir + "/" + Name;
      if (isExecutable(Cand))
        return Cand;
    }
    if (End == S.size())
      break;
    Start = End + 1;
  }
  return "";
}

std::string probeCompiler() {
  if (const char *CC = std::getenv("CC"); CC && *CC) {
    std::string Found = findOnPath(CC);
    if (!Found.empty())
      return Found;
  }
  for (const char *Name : {"cc", "gcc", "clang"}) {
    std::string Found = findOnPath(Name);
    if (!Found.empty())
      return Found;
  }
  return "";
}

/// Runs Argv[0] with stderr redirected to \p StderrPath. Returns true on
/// exit status 0; otherwise fills \p Error with the captured stderr.
bool runCommand(const std::vector<std::string> &Argv,
                const std::string &StderrPath, std::string *Error) {
  pid_t Pid = ::fork();
  if (Pid < 0) {
    if (Error)
      *Error = "fork failed: " + std::string(std::strerror(errno));
    return false;
  }
  if (Pid == 0) {
    int Fd = ::open(StderrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd >= 0) {
      ::dup2(Fd, 2);
      ::close(Fd);
    }
    std::vector<char *> Args;
    Args.reserve(Argv.size() + 1);
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    ::execv(Args[0], Args.data());
    _exit(127);
  }
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
    return true;
  if (Error) {
    std::ifstream In(StderrPath);
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Diag = SS.str();
    if (Diag.size() > 4000)
      Diag.resize(4000);
    *Error = Argv[0] + " failed";
    if (WIFEXITED(Status))
      *Error += " (exit " + std::to_string(WEXITSTATUS(Status)) + ")";
    if (!Diag.empty())
      *Error += ":\n" + Diag;
  }
  return false;
}

} // namespace

const std::string &sest::backend::hostCompilerPath() {
  static const std::string Path = probeCompiler();
  return Path;
}

bool sest::backend::nativeEngineAvailable(std::string *Why) {
  if (!hostCompilerPath().empty())
    return true;
  if (Why)
    *Why = "no host C compiler found (tried $CC, cc, gcc, clang)";
  return false;
}

// -fwrapv: the VM's int64 arithmetic wraps; make the C side match.
// -lm: the sqrt builtin; don't rely on the host process having libm.
// -Og: the emitted code is already specialized per op (the generic
// helpers are out of line), so what -O1 adds over -Og buys little run
// time at twice the compile time. Measured on gcc 12.2, x86-64, for
// the gcc, compress and alvinn suite programs: cc takes 2.8 / 3.9 /
// 7.5 / 10.4 s at -O0 / -Og / -O1 / -O2, and the compiled runs at -Og
// are within 25% of -O1 and 3x faster than -O0 (docs/PERFORMANCE.md).
std::vector<std::string> sest::backend::hostCompileArgv(
    const std::string &CPath, const std::string &SoPath) {
  return {hostCompilerPath(), "-Og",   "-fPIC", "-fwrapv", "-shared",
          "-o",               SoPath,  CPath,   "-lm"};
}

bool CBackend::available(std::string *Why) const {
  return nativeEngineAvailable(Why);
}

//===----------------------------------------------------------------------===//
// Artifact lifecycle
//===----------------------------------------------------------------------===//

NativeArtifact::~NativeArtifact() {
  if (Handle)
    ::dlclose(Handle);
  for (const std::string &F : TempFiles)
    ::unlink(F.c_str());
  if (!TempDir.empty())
    ::rmdir(TempDir.c_str());
}

std::shared_ptr<const NativeArtifact>
CBackend::compile(const TranslationUnit &Unit, const CfgModule &Cfgs,
                  const bc::BcModule &Bc, const NativeLayoutPlan &Plan,
                  std::string *Error) const {
  auto T0 = std::chrono::steady_clock::now();
  std::string Err;
  std::string Source = emitSource(Unit, Cfgs, Bc, Plan, &Err);
  auto EmitEnd = std::chrono::steady_clock::now();
  if (Source.empty()) {
    if (Error)
      *Error = Err;
    return nullptr;
  }
  std::string Hash = hashHex(contentHash64(Source));

  static std::mutex CacheMu;
  static std::map<std::string, std::shared_ptr<const NativeArtifact>> Cache;
  {
    std::lock_guard<std::mutex> L(CacheMu);
    auto It = Cache.find(Hash);
    if (It != Cache.end())
      return It->second;
  }

  std::string Why;
  if (!nativeEngineAvailable(&Why)) {
    if (Error)
      *Error = Why;
    return nullptr;
  }

  // A cold compile: emission (timed before the memo lookup), host cc,
  // then dlopen and the ABI handshake. A memo hit records none of them.
  obs::ScopedPhase Phase("native.compile", Hash, T0);
  obs::recordPhase("native.emit", Hash, T0, EmitEnd);
  std::optional<obs::ScopedPhase> Step(std::in_place, "native.cc", Hash);
  // Scratch files go under $TMPDIR, falling back to /tmp.
  const char *TmpEnv = std::getenv("TMPDIR");
  const std::string TmpRoot = TmpEnv && *TmpEnv ? TmpEnv : "/tmp";
  std::string Dir = TmpRoot + "/sest-native-XXXXXX";
  if (!::mkdtemp(Dir.data())) {
    if (Error)
      *Error = "cannot create temp dir under " + TmpRoot + ": " +
               std::string(std::strerror(errno));
    return nullptr;
  }
  std::string CPath = Dir + "/gen.c";
  std::string SoPath = Dir + "/lib.so";
  std::string DiagPath = Dir + "/cc.stderr";
  auto Cleanup = [&] {
    ::unlink(CPath.c_str());
    ::unlink(SoPath.c_str());
    ::unlink(DiagPath.c_str());
    ::rmdir(Dir.c_str());
  };
  {
    std::ofstream OutF(CPath, std::ios::binary);
    OutF << Source;
    if (!OutF) {
      if (Error)
        *Error = "cannot write " + CPath;
      Cleanup();
      return nullptr;
    }
  }

  if (!runCommand(hostCompileArgv(CPath, SoPath), DiagPath, Error)) {
    Cleanup();
    return nullptr;
  }
  Step.emplace("native.dlopen", Hash);

  void *H = ::dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!H) {
    if (Error) {
      const char *D = ::dlerror();
      *Error = std::string("dlopen failed: ") + (D ? D : "unknown error");
    }
    Cleanup();
    return nullptr;
  }
  void *RunSym = ::dlsym(H, "sest_native_run");
  void *FreeSym = ::dlsym(H, "sest_native_free");
  void *ShapeSym = ::dlsym(H, "sest_native_shape");
  ProfileShape Shape = computeProfileShape(Unit, Cfgs);
  bool ShapeOk = false;
  if (ShapeSym) {
    const auto *S = static_cast<const unsigned long long *>(ShapeSym);
    ShapeOk = S[0] == kSestNativeAbiVersion &&
              S[1] == Unit.Functions.size() &&
              S[2] == static_cast<unsigned long long>(Shape.TotalBlocks) &&
              S[3] == static_cast<unsigned long long>(Shape.TotalArcs) &&
              S[4] == Unit.NumCallSites;
  }
  if (!RunSym || !FreeSym || !ShapeOk) {
    if (Error)
      *Error = "artifact rejected: ABI/shape handshake mismatch";
    ::dlclose(H);
    Cleanup();
    return nullptr;
  }

  std::shared_ptr<NativeArtifact> A(new NativeArtifact());
  A->Handle = H;
  A->RunFn = RunSym;
  A->FreeFn = FreeSym;
  A->TempDir = Dir;
  A->TempFiles = {CPath, SoPath, DiagPath};
  A->SourceHash = Hash;
  A->SourceBytes = Source.size();
  A->CompileMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - T0)
                     .count();
  A->Shape = std::move(Shape);

  if (obs::telemetryActive()) {
    obs::counterAdd("native.compiles");
    obs::counterAdd("native.compile_ms", A->CompileMs);
    obs::counterAdd("native.source_bytes",
                    static_cast<double>(A->SourceBytes));
  }

  std::lock_guard<std::mutex> L(CacheMu);
  auto [It, Inserted] = Cache.emplace(Hash, A);
  return Inserted ? A : It->second;
}

//===----------------------------------------------------------------------===//
// Execution + RunResult decode
//===----------------------------------------------------------------------===//

RunResult NativeArtifact::run(const TranslationUnit &Unit,
                              const CfgModule &Cfgs,
                              const ProgramInput &Input,
                              const InterpOptions &Options) const {
  obs::ScopedPhase Phase("native.run", Input.Name);

  std::vector<double> Factors(Unit.Functions.size(), 1.0);
  for (const FunctionDecl *F : Unit.Functions)
    if (Options.OptimizedFunctions.count(F))
      Factors[F->functionId()] = Options.OptimizedCostFactor;
  if (Factors.empty())
    Factors.push_back(1.0);

  sest_native_params P{};
  P.input = Input.Text.c_str();
  P.input_len = Input.Text.size();
  P.rand_seed = Input.RandSeed;
  P.max_steps = Options.MaxSteps;
  P.max_call_depth = Options.MaxCallDepth;
  P.max_host_stack_bytes = Options.MaxHostStackBytes;
  P.max_heap_cells = Options.MaxHeapCells;
  P.cost_factor = Factors.data();

  sest_native_result Res{};
  auto RunF = reinterpret_cast<sest_native_run_fn>(RunFn);
  auto FreeF = reinterpret_cast<sest_native_free_fn>(FreeFn);

  RunResult R;
  if (RunF(&P, &Res) != 0) {
    R.Error = "native run failed to start (out of memory)";
    return R;
  }

  R.Ok = Res.ok != 0;
  R.Error.assign(Res.error, Res.error_len);
  R.LimitHit = static_cast<RunLimit>(Res.limit);
  R.ExitCode = Res.exit_code;
  R.Output.assign(Res.output, Res.output_len);
  R.StepsExecuted = Res.steps;
  R.HeapCellsHighWater = Res.heap_hw;
  R.CallDepthHighWater = Res.call_depth_hw;
  R.LayoutCost.FallThrough = Res.lc_fall;
  R.LayoutCost.Taken = Res.lc_taken;
  R.LayoutCost.Calls = Res.lc_calls;
  R.LayoutCost.Returns = Res.lc_rets;

  Profile &Prof = R.TheProfile;
  Prof.ProgramName = Unit.Functions.empty() ? "" : "program";
  Prof.InputName = Input.Name;
  Prof.TotalCycles = Res.cycles;
  Prof.Functions.resize(Unit.Functions.size());
  for (size_t Fid = 0; Fid < Unit.Functions.size(); ++Fid)
    Prof.Functions[Fid].EntryCount = Res.entries[Fid];
  for (const auto &[F, G] : Cfgs.all()) {
    uint32_t Fid = F->functionId();
    FunctionProfile &FP = Prof.Functions[Fid];
    int64_t BBase = Shape.BlockBase[Fid];
    FP.BlockCounts.assign(G->size(), 0.0);
    FP.ArcCounts.resize(G->size());
    for (const auto &B : G->blocks()) {
      FP.BlockCounts[B->id()] = Res.blocks[BBase + B->id()];
      auto &Row = FP.ArcCounts[B->id()];
      Row.assign(B->successors().size(), 0.0);
      int64_t ABase = Shape.ArcBase[Fid][B->id()];
      for (size_t S = 0; S < Row.size(); ++S)
        Row[S] = Res.arcs[ABase + static_cast<int64_t>(S)];
    }
  }
  Prof.CallSiteCounts.assign(Unit.NumCallSites, 0.0);
  for (uint32_t CS = 0; CS < Unit.NumCallSites; ++CS)
    Prof.CallSiteCounts[CS] = Res.callsites[CS];

  // Mirror Runtime::flushTelemetry (minus the VM-only instr counter).
  if (obs::telemetryActive()) {
    obs::counterAdd("interp.runs");
    obs::counterAdd("interp.steps.executed",
                    static_cast<double>(Res.steps));
    obs::gaugeMax("interp.heap_cells.high_water",
                  static_cast<double>(Res.heap_hw));
    obs::gaugeMax("interp.call_depth.high_water",
                  static_cast<double>(Res.call_depth_hw));
    if (R.LimitHit != RunLimit::None)
      obs::counterAdd(std::string("interp.limit_hit.") +
                      runLimitName(R.LimitHit));
    obs::counterAdd("interp.layout.fall_through",
                    static_cast<double>(Res.lc_fall));
    obs::counterAdd("interp.layout.taken",
                    static_cast<double>(Res.lc_taken));
    obs::counterAdd("interp.layout.calls",
                    static_cast<double>(Res.lc_calls));
    obs::counterAdd("interp.layout.returns",
                    static_cast<double>(Res.lc_rets));
    for (size_t Fid = 0; Fid < Unit.Functions.size(); ++Fid)
      if (Res.self_steps[Fid])
        obs::counterAdd("interp.fn_self_steps." +
                            Unit.Functions[Fid]->name(),
                        static_cast<double>(Res.self_steps[Fid]));
  }

  FreeF(&Res);
  return R;
}

//===----------------------------------------------------------------------===//
// One-shot entry points + engine hook
//===----------------------------------------------------------------------===//

NativeLayoutPlan sest::backend::planFromOptions(const InterpOptions &Options) {
  NativeLayoutPlan Plan;
  if (Options.Layout)
    Plan.Order = *Options.Layout;
  return Plan;
}

RunResult sest::backend::runProgramNative(const TranslationUnit &Unit,
                                          const CfgModule &Cfgs,
                                          const bc::BcModule &Bc,
                                          const ProgramInput &Input,
                                          const InterpOptions &Options) {
  std::string Why;
  if (!nativeEngineAvailable(&Why)) {
    RunResult R;
    R.Error = "native backend unavailable: " + Why;
    return R;
  }
  // The VM's canned main-check results (fresh RunResult, Error only).
  const FunctionDecl *Main = Unit.findFunction("main");
  if (!Main || !Main->isDefined()) {
    RunResult R;
    R.Error = "program has no main function";
    return R;
  }
  if (!Main->params().empty()) {
    RunResult R;
    R.Error = "main must take no parameters";
    return R;
  }
  std::string Err;
  auto Artifact =
      cBackend().compile(Unit, Cfgs, Bc, planFromOptions(Options), &Err);
  if (!Artifact) {
    RunResult R;
    R.Error = "native compile failed: " + Err;
    return R;
  }
  return Artifact->run(Unit, Cfgs, Input, Options);
}

RunResult sest::backend::runProgramNative(const TranslationUnit &Unit,
                                          const CfgModule &Cfgs,
                                          const ProgramInput &Input,
                                          const InterpOptions &Options) {
  bc::BcModule Module = bc::compileBytecode(Unit, Cfgs);
  return runProgramNative(Unit, Cfgs, Module, Input, Options);
}

namespace {

/// Routes runProgram(Engine=Native) to this library without a link-time
/// dependency from src/interp on src/backend. Registered when any
/// backend symbol is linked in (every native-capable binary references
/// at least nativeEngineAvailable).
struct NativeHookRegistrar {
  NativeHookRegistrar() {
    setNativeRunHook(+[](const TranslationUnit &Unit, const CfgModule &Cfgs,
                         const ProgramInput &Input,
                         const InterpOptions &Options) {
      return runProgramNative(Unit, Cfgs, Input, Options);
    });
  }
} RegisterNativeHook;

} // namespace
