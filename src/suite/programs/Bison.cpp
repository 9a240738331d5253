//===- suite/programs/Bison.cpp - Parser-table generator -------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stand-in for "bison" (LALR(1) parser generator): an LL(1) table
/// generator — nullable/FIRST/FOLLOW computation by fixpoint iteration
/// over bitmask sets, parse-table construction, and conflict counting.
/// Grammar-processing control flow: nested loops over rules and symbols
/// with data-dependent convergence.
///
//===----------------------------------------------------------------------===//

#include "suite/Suite.h"

#include "support/Prng.h"

#include <string>

using namespace sest;

namespace {

const char *Source = R"MC(
/* ll1gen: nullable / FIRST / FOLLOW and an LL(1) parse table.
   symbols: 0..n_nts-1 are nonterminals, 64..64+n_ts-1 are terminals. */

int rule_lhs[64];
int rule_len[64];
int rule_sym[64][8];
int n_rules = 0;
int n_nts = 0;
int n_ts = 0;

int nullable[32];
int first_set[32];    /* bitmask over terminals 0..n_ts-1 */
int follow_set[32];

int table_rule[32][32]; /* [nonterminal][terminal] -> rule or -1 */
int conflicts = 0;

int is_terminal(int s) {
  return s >= 64;
}

int term_bit(int s) {
  return 1 << (s - 64);
}

void read_grammar() {
  int r;
  int k;
  n_nts = read_int();
  n_ts = read_int();
  n_rules = read_int();
  for (r = 0; r < n_rules; r++) {
    rule_lhs[r] = read_int();
    rule_len[r] = read_int();
    for (k = 0; k < rule_len[r]; k++)
      rule_sym[r][k] = read_int();
  }
}

int compute_nullable() {
  int changed = 1;
  int passes = 0;
  int r;
  int k;
  int all_null;
  while (changed) {
    changed = 0;
    passes++;
    for (r = 0; r < n_rules; r++) {
      if (nullable[rule_lhs[r]])
        continue;
      all_null = 1;
      for (k = 0; k < rule_len[r]; k++) {
        if (is_terminal(rule_sym[r][k]) || !nullable[rule_sym[r][k]]) {
          all_null = 0;
          break;
        }
      }
      if (all_null) {
        nullable[rule_lhs[r]] = 1;
        changed = 1;
      }
    }
  }
  return passes;
}

/* FIRST of the suffix rule_sym[r][from..] */
int first_of_suffix(int r, int from) {
  int k;
  int set = 0;
  for (k = from; k < rule_len[r]; k++) {
    int s = rule_sym[r][k];
    if (is_terminal(s)) {
      set |= term_bit(s);
      return set;
    }
    set |= first_set[s];
    if (!nullable[s])
      return set;
  }
  return set | (1 << 30); /* bit 30: the suffix can derive epsilon */
}

int compute_first() {
  int changed = 1;
  int passes = 0;
  int r;
  int add;
  while (changed) {
    changed = 0;
    passes++;
    for (r = 0; r < n_rules; r++) {
      add = first_of_suffix(r, 0) & ~(1 << 30);
      if ((first_set[rule_lhs[r]] | add) != first_set[rule_lhs[r]]) {
        first_set[rule_lhs[r]] |= add;
        changed = 1;
      }
    }
  }
  return passes;
}

int compute_follow() {
  int changed = 1;
  int passes = 0;
  int r;
  int k;
  int s;
  int tail;
  follow_set[0] |= 1; /* end marker = terminal bit 0 */
  while (changed) {
    changed = 0;
    passes++;
    for (r = 0; r < n_rules; r++) {
      for (k = 0; k < rule_len[r]; k++) {
        s = rule_sym[r][k];
        if (is_terminal(s))
          continue;
        tail = first_of_suffix(r, k + 1);
        if ((follow_set[s] | (tail & ~(1 << 30))) != follow_set[s]) {
          follow_set[s] |= tail & ~(1 << 30);
          changed = 1;
        }
        if (tail & (1 << 30)) {
          if ((follow_set[s] | follow_set[rule_lhs[r]]) != follow_set[s]) {
            follow_set[s] |= follow_set[rule_lhs[r]];
            changed = 1;
          }
        }
      }
    }
  }
  return passes;
}

void build_table() {
  int nt;
  int t;
  int r;
  int predict;
  for (nt = 0; nt < n_nts; nt++)
    for (t = 0; t < n_ts; t++)
      table_rule[nt][t] = -1;
  for (r = 0; r < n_rules; r++) {
    predict = first_of_suffix(r, 0);
    if (predict & (1 << 30))
      predict |= follow_set[rule_lhs[r]];
    predict &= ~(1 << 30);
    for (t = 0; t < n_ts; t++) {
      if (!(predict & (1 << t)))
        continue;
      if (table_rule[rule_lhs[r]][t] != -1)
        conflicts++;
      else
        table_rule[rule_lhs[r]][t] = r;
    }
  }
}

int table_entries() {
  int nt;
  int t;
  int n = 0;
  for (nt = 0; nt < n_nts; nt++)
    for (t = 0; t < n_ts; t++)
      if (table_rule[nt][t] != -1)
        n++;
  return n;
}

int first_checksum() {
  int i;
  int h = 0;
  for (i = 0; i < n_nts; i++)
    h = (h * 131 + first_set[i] + follow_set[i] * 3 + nullable[i]) %
        1000000007;
  return h;
}

int main() {
  int p1;
  int p2;
  int p3;
  read_grammar();
  p1 = compute_nullable();
  p2 = compute_first();
  p3 = compute_follow();
  build_table();
  print_str("passes=");
  print_int(p1 + p2 + p3);
  print_str(" entries=");
  print_int(table_entries());
  print_str(" conflicts=");
  print_int(conflicts);
  print_str(" check=");
  print_int(first_checksum());
  print_char('\n');
  return 0;
}
)MC";

/// Random grammar: n_nts, n_ts, n_rules, then rules (lhs len syms...).
std::string makeGrammar(uint64_t Seed, int Nts, int Ts, int Rules) {
  Prng R(Seed);
  std::string S = std::to_string(Nts) + " " + std::to_string(Ts) + " " +
                  std::to_string(Rules) + "\n";
  for (int I = 0; I < Rules; ++I) {
    int Lhs = static_cast<int>(R.nextBelow(Nts));
    int Len = static_cast<int>(R.nextBelow(5)); // 0..4, epsilon allowed
    S += std::to_string(Lhs) + " " + std::to_string(Len);
    for (int K = 0; K < Len; ++K) {
      // Bias towards terminals so derivations terminate.
      bool Terminal = R.nextBelow(3) != 0;
      int Sym = Terminal ? 64 + static_cast<int>(R.nextBelow(Ts))
                         : static_cast<int>(R.nextBelow(Nts));
      S += ' ';
      S += std::to_string(Sym);
    }
    S += "\n";
  }
  return S;
}

} // namespace

SuiteProgram sest::makeBison() {
  SuiteProgram P;
  P.Name = "bison";
  P.PaperAnalogue = "bison";
  P.Description = "LALR(1) parser generator (LL(1) table construction)";
  P.Source = Source;
  P.Inputs = {
      {"g8t10r30", makeGrammar(25, 8, 10, 30), 25},
      {"g12t14r48", makeGrammar(49, 12, 14, 48), 49},
      {"g6t8r22", makeGrammar(67, 6, 8, 22), 67},
      {"g16t18r60", makeGrammar(91, 16, 18, 60), 91},
      {"g10t12r36", makeGrammar(113, 10, 12, 36), 113},
  };
  return P;
}
