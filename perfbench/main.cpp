//===- perfbench/main.cpp - Benchmark binary entry point ------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--trace-out FILE]
///
/// Runs one workload and prints human-readable notes followed, as the
/// last line, by one JSON object:
///   {"correct": ..., "attempted": N, "failed": N, "values": {...}}
/// with every metric the run measured. perfbench/run.py selects the
/// end-to-end or per-layer ones named in BENCHMARK.json and attaches
/// their units. Exits 1 when any output check failed, 2 on a usage
/// error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

using namespace perfbench;

namespace {

int usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "service_warm|service_cold|suite_tune|native_tier --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               Why.c_str());
  return 2;
}

std::string jsonString(std::string_view S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

std::string number(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  RunOptions O;
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (I + 1 >= argc)
      return usage("missing value for " + std::string(Arg));
    const char *Val = argv[++I];
    if (Arg == "--workload")
      O.Workload = Val;
    else if (Arg == "--seed")
      O.Seed = std::strtoull(Val, nullptr, 10);
    else if (Arg == "--seconds")
      O.Seconds = std::strtod(Val, nullptr);
    else if (Arg == "--trace")
      O.Trace = std::string_view(Val) == "1";
    else if (Arg == "--trace-out")
      O.TraceOut = Val;
    else
      return usage("unknown option " + std::string(Arg));
  }
  if (!(O.Seconds > 0))
    return usage("--seconds must be positive");

  Outcome R;
  if (O.Workload == "service_warm")
    R = runServiceWarm(O);
  else if (O.Workload == "service_cold")
    R = runServiceCold(O);
  else if (O.Workload == "suite_tune")
    R = runSuiteTune(O);
  else if (O.Workload == "native_tier")
    R = runNativeTier(O);
  else
    return usage("unknown workload '" + O.Workload + "'");

  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  for (const std::string &E : R.Errors)
    std::printf("FAIL: %s\n", E.c_str());
  std::printf("fail_ratio: %s (%llu failed of %llu checked)\n",
              number(R.Attempted ? static_cast<double>(R.Failed) /
                                       static_cast<double>(R.Attempted)
                                 : 1.0)
                  .c_str(),
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));

  bool Correct = R.Failed == 0 && R.Attempted > 0;
  std::string Values;
  for (const auto &[Name, Value] : R.Metrics) {
    if (!Values.empty())
      Values += ", ";
    Values += jsonString(Name) + ": " + number(Value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"values\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Values.c_str());
  return Correct ? 0 : 1;
}
