//===- perfbench/Trace.cpp - Benchmark-side span recorder -----------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "support/Json.h"

#include <fstream>

using namespace perfbench;

int Tracer::begin(std::string Name, uint64_t Id) {
  Span S;
  S.Name = std::move(Name);
  S.StartNs = nowNs();
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Id = Id;
  Spans.push_back(std::move(S));
  int Index = static_cast<int>(Spans.size() - 1);
  Open.push_back(Index);
  return Index;
}

void Tracer::end(int Index) {
  Spans[Index].EndNs = nowNs();
  Open.pop_back(); // spans close innermost-first
}

TraceSummary Tracer::summarize() const {
  TraceSummary Sum;
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Ms = static_cast<double>(S.EndNs - S.StartNs) / 1e6;
    Sum.TotalMsByName[S.Name] += Ms;
    ++Sum.CountByName[S.Name];
    std::string Layer = S.Name.substr(0, S.Name.find('.'));
    Sum.SelfMsByLayer[Layer] +=
        static_cast<double>(S.EndNs - S.StartNs - ChildNs[I]) / 1e6;
    if (S.Parent < 0)
      Sum.RootMs += Ms;
  }
  return Sum;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  sest::JsonWriter W;
  W.beginObject();
  W.member("displayTimeUnit", "ms");
  W.key("traceEvents").beginArray();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    W.beginObject();
    W.member("name", S.Name);
    W.member("cat", S.Name.substr(0, S.Name.find('.')));
    W.member("ph", "X");
    W.member("ts", static_cast<double>(S.StartNs) / 1e3);
    W.member("dur", static_cast<double>(S.EndNs - S.StartNs) / 1e3);
    W.member("pid", static_cast<uint64_t>(1));
    W.member("tid", static_cast<uint64_t>(1));
    W.key("args").beginObject();
    W.member("span", static_cast<uint64_t>(I));
    W.member("parent", static_cast<int64_t>(S.Parent));
    W.member("id", S.Id);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  std::ofstream Out(Path);
  Out << W.take();
  return static_cast<bool>(Out);
}
