//===- suite/Synthetic.cpp - Synthetic mini-C program generator ------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "suite/Synthetic.h"

#include "support/Prng.h"

#include <algorithm>
#include <vector>

using namespace sest;

namespace {

/// Source builder plus the running CFG-block estimate that drives the
/// TargetBlocks budget. The estimate uses coarse per-construct costs
/// (loop = 3 blocks, if/else = 3, case = 1, goto segment = 2); it only
/// needs to be proportional, not exact.
struct Gen {
  std::string Out;
  Prng R;
  size_t Blocks = 0;
  int NextFn = 0;

  explicit Gen(uint64_t Seed) : R(Seed) {}

  void line(int Indent, const std::string &S) {
    Out.append(static_cast<size_t>(Indent) * 2, ' ');
    Out += S;
    Out += '\n';
  }
};

std::string num(uint64_t V) { return std::to_string(V); }

/// Prefix + decimal \p V. Appending to a named string rather than
/// writing `"x" + num(V)` keeps gcc 12's -Wrestrict false positive on
/// `operator+(const char *, std::string &&)` quiet.
std::string named(const char *Prefix, uint64_t V) {
  std::string S = Prefix;
  S += num(V);
  return S;
}

/// Serial counted loop nests with embedded two-way branches. Each nest
/// is its own chain of small cyclic SCCs (one per loop level).
std::string emitLoopNestFn(Gen &G, size_t Budget) {
  std::string Name = "fn" + num(G.NextFn++);
  int MaxDepth = 2 + static_cast<int>(G.R.nextBelow(3)); // 2..4
  G.line(0, "int " + Name + "(int n) {");
  G.line(1, "int acc = 0;");
  for (int D = 0; D < MaxDepth; ++D)
    G.line(1, "int i" + num(D) + ";");
  size_t Used = 2;
  while (Used < Budget) {
    int Depth = 1 + static_cast<int>(G.R.nextBelow(MaxDepth));
    for (int D = 0; D < Depth; ++D) {
      std::string V = named("i", D);
      std::string Bound = D == 0 ? "n" : num(2 + G.R.nextBelow(3));
      G.line(1 + D, "for (" + V + " = 0; " + V + " < " + Bound + "; " +
                        V + "++) {");
    }
    uint64_t Mod = 2 + G.R.nextBelow(4);
    G.line(1 + Depth, "if ((acc + i0 * 2) % " + num(Mod) + " == 0)");
    G.line(2 + Depth, "acc = acc + " + num(1 + G.R.nextBelow(5)) + ";");
    G.line(1 + Depth, "else");
    G.line(2 + Depth, "acc = acc - 1;");
    for (int D = Depth - 1; D >= 0; --D)
      G.line(1 + D, "}");
    Used += static_cast<size_t>(Depth) * 3 + 3;
  }
  G.line(1, "return acc;");
  G.line(0, "}");
  G.Out += '\n';
  G.Blocks += Used + 2;
  return Name;
}

/// Interpreter-style dispatch: a while loop around a big switch whose
/// cases rewrite the state. Every case lives in the loop's SCC, so each
/// dispatch loop is one wide cyclic component; case width is capped so
/// the dense sub-blocks the sparse solver carves out stay moderate.
std::string emitSwitchDispatchFn(Gen &G, size_t Budget) {
  std::string Name = "fn" + num(G.NextFn++);
  G.line(0, "int " + Name + "(int n) {");
  G.line(1, "int state = 0;");
  G.line(1, "int acc = 0;");
  G.line(1, "int step = 0;");
  size_t Used = 3;
  while (Used < Budget) {
    size_t Cases = std::min<size_t>(
        std::max<size_t>(8, (Budget - Used) / 2), 64);
    G.line(1, "while (step < n * 4) {");
    G.line(2, "switch (state % " + num(Cases) + ") {");
    for (size_t C = 0; C < Cases; ++C) {
      G.line(2, "case " + num(C) + ":");
      if (G.R.nextBelow(3) == 0) {
        G.line(3, "if (acc % 2 == 0)");
        G.line(4, "acc = acc + " + num(1 + C % 7) + ";");
        Used += 3;
      } else {
        G.line(3, "acc = acc + " + num(1 + C % 5) + ";");
      }
      G.line(3, "state = " + num(G.R.nextBelow(Cases * 2)) + " + step;");
      G.line(3, "break;");
      Used += 1;
    }
    G.line(2, "default:");
    G.line(3, "state = acc % " + num(Cases) + ";");
    G.line(3, "break;");
    G.line(2, "}");
    G.line(2, "step++;");
    G.line(1, "}");
    Used += 6;
  }
  G.line(1, "return acc;");
  G.line(0, "}");
  G.Out += '\n';
  G.Blocks += Used + 2;
  return Name;
}

/// Label/goto soup. Segments fall through in order; each may jump
/// backward (bounded window, guarded by the strictly-increasing budget
/// counter, so every cycle terminates) or forward. The entry jump lands
/// mid-sequence — together with backward jumps that is the classic
/// irreducible region no structured construct produces.
std::string emitGotoCyclesFn(Gen &G, size_t Budget) {
  // Each segment collapses into a single block (statements + the
  // conditional jump), so segments ≈ blocks.
  std::string Name = "fn" + num(G.NextFn++);
  size_t K = std::max<size_t>(4, Budget);
  G.line(0, "int " + Name + "(int n) {");
  G.line(1, "int i = 0;");
  G.line(1, "int acc = 0;");
  G.line(1, "if (n % 3 == 1)");
  G.line(2, "goto L" + num(K / 2) + ";");
  for (size_t J = 0; J < K; ++J) {
    G.line(0, named("L", J) + ":");
    G.line(1, "i++;");
    G.line(1, "acc = acc + (i % " + num(2 + J % 5) + ");");
    // Backward within a small window keeps SCCs real but bounded;
    // forward jumps skip ahead without creating cycles.
    size_t Lo = J > 6 ? J - 6 : 0;
    size_t Hi = std::min(K - 1, J + 9);
    size_t Target = Lo + G.R.nextBelow(Hi - Lo + 1);
    G.line(1, "if (i < n)");
    G.line(2, "goto L" + num(Target) + ";");
  }
  G.line(1, "return acc;");
  G.line(0, "}");
  G.Out += '\n';
  G.Blocks += K + 4;
  return Name;
}

/// Leaf functions under fan-out callers, plus one mutually recursive
/// pair — a wide, cyclic call graph for the inter-procedural model.
/// Returns the caller functions (the leaves are only reached through
/// them).
std::vector<std::string> emitWideCallsFns(Gen &G, size_t Budget) {
  std::vector<std::string> Roots;
  int Tag = G.NextFn++;
  size_t NumLeaves = std::max<size_t>(4, Budget / 8);
  std::vector<std::string> Leaves;
  for (size_t L = 0; L < NumLeaves; ++L) {
    std::string Name = "leaf" + num(Tag) + "_" + num(L);
    Leaves.push_back(Name);
    G.line(0, "int " + Name + "(int x) {");
    G.line(1, "if (x % " + num(2 + L % 3) + " == 0)");
    G.line(2, "return x / 2 + " + num(L) + ";");
    G.line(1, "return x * 3 - " + num(L % 11) + ";");
    G.line(0, "}");
    G.Blocks += 4;
  }
  G.Out += '\n';

  // A mutually recursive pair: a call-graph SCC the §5.2.2 repair
  // ladder has to handle.
  std::string Odd = "odd" + num(Tag), Even = "even" + num(Tag);
  G.line(0, "int " + Odd + "(int n);");
  G.line(0, "int " + Even + "(int n) {");
  G.line(1, "if (n <= 0)");
  G.line(2, "return 1;");
  G.line(1, "return " + Odd + "(n - 1);");
  G.line(0, "}");
  G.line(0, "int " + Odd + "(int n) {");
  G.line(1, "if (n <= 0)");
  G.line(2, "return 0;");
  G.line(1, "return " + Even + "(n - 1);");
  G.line(0, "}");
  G.Out += '\n';
  G.Blocks += 8;

  size_t NumMids = std::max<size_t>(2, NumLeaves / 8);
  for (size_t M = 0; M < NumMids; ++M) {
    std::string Name = "mid" + num(Tag) + "_" + num(M);
    Roots.push_back(Name);
    G.line(0, "int " + Name + "(int n) {");
    G.line(1, "int s = 0;");
    G.line(1, "int k;");
    G.line(1, "for (k = 0; k < n; k++) {");
    size_t Fan = 4 + G.R.nextBelow(5);
    for (size_t F = 0; F < Fan; ++F) {
      const std::string &Callee = Leaves[G.R.nextBelow(Leaves.size())];
      G.line(2, "s = s + " + Callee + "(k + " + num(F) + ");");
    }
    G.line(2, "s = s + " + Even + "(k % 5);");
    G.line(1, "}");
    G.line(1, "return s;");
    G.line(0, "}");
    G.Out += '\n';
    G.Blocks += 5 + Fan;
  }
  return Roots;
}

/// Emits one function (or function family) of roughly \p Budget blocks
/// in the given shape, appending every generated root to \p Roots.
void emitShape(Gen &G, SyntheticShape S, size_t Budget,
               std::vector<std::string> &Roots) {
  switch (S) {
  case SyntheticShape::LoopNest:
    Roots.push_back(emitLoopNestFn(G, Budget));
    break;
  case SyntheticShape::SwitchDispatch:
    Roots.push_back(emitSwitchDispatchFn(G, Budget));
    break;
  case SyntheticShape::GotoCycles:
    Roots.push_back(emitGotoCyclesFn(G, Budget));
    break;
  case SyntheticShape::WideCalls: {
    std::vector<std::string> R = emitWideCallsFns(G, Budget);
    Roots.insert(Roots.end(), R.begin(), R.end());
    break;
  }
  case SyntheticShape::Mixed:
    break; // handled by the caller's round-robin
  }
}

} // namespace

const char *sest::syntheticShapeName(SyntheticShape S) {
  switch (S) {
  case SyntheticShape::LoopNest:
    return "loop-nest";
  case SyntheticShape::SwitchDispatch:
    return "switch-dispatch";
  case SyntheticShape::GotoCycles:
    return "goto-cycles";
  case SyntheticShape::WideCalls:
    return "wide-calls";
  case SyntheticShape::Mixed:
    return "mixed";
  }
  return "?";
}

bool sest::parseSyntheticShape(const std::string &Name,
                               SyntheticShape &Out) {
  for (SyntheticShape S :
       {SyntheticShape::LoopNest, SyntheticShape::SwitchDispatch,
        SyntheticShape::GotoCycles, SyntheticShape::WideCalls,
        SyntheticShape::Mixed}) {
    if (Name == syntheticShapeName(S)) {
      Out = S;
      return true;
    }
  }
  return false;
}

std::string sest::generateSyntheticSource(const SyntheticConfig &Config) {
  Gen G(Config.Seed);
  G.line(0, std::string("/* synthetic ") +
                syntheticShapeName(Config.Shape) + " program: ~" +
                num(Config.TargetBlocks) + " CFG blocks, seed " +
                num(Config.Seed) + " (generated; do not edit) */");
  G.Out += '\n';

  const SyntheticShape RoundRobin[] = {
      SyntheticShape::LoopNest, SyntheticShape::SwitchDispatch,
      SyntheticShape::GotoCycles, SyntheticShape::WideCalls};
  std::vector<std::string> Roots;
  size_t Pick = 0;
  while (G.Blocks < Config.TargetBlocks) {
    size_t Budget =
        Config.FunctionBlocks
            ? Config.FunctionBlocks
            : 20 + G.R.nextBelow(40);
    Budget = std::min(Budget,
                      Config.TargetBlocks - G.Blocks + 16);
    SyntheticShape S = Config.Shape == SyntheticShape::Mixed
                           ? RoundRobin[Pick++ % 4]
                           : Config.Shape;
    emitShape(G, S, Budget, Roots);
  }

  G.line(0, "int main() {");
  G.line(1, "int n = 4 + rand() % 5;");
  G.line(1, "int sum = 0;");
  for (const std::string &F : Roots)
    G.line(1, "sum = sum + " + F + "(n);");
  G.line(1, "print_int(sum);");
  G.line(1, "return 0;");
  G.line(0, "}");
  return G.Out;
}

SuiteProgram sest::makeSyntheticProgram(const SyntheticConfig &Config) {
  SuiteProgram P;
  P.Name = std::string("synthetic-") + syntheticShapeName(Config.Shape) +
           "-" + std::to_string(Config.TargetBlocks) + "-s" +
           std::to_string(Config.Seed);
  P.PaperAnalogue = "(synthetic)";
  P.Description = "generated scaling program";
  P.Source = generateSyntheticSource(Config);
  for (uint64_t I = 1; I <= 4; ++I)
    P.Inputs.push_back({"seed" + std::to_string(I), "", I});
  return P;
}
