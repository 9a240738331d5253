//===- suite/programs/Xlisp.cpp - Lisp interpreter -------------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stand-in for SPEC92 "xlisp" (a Lisp interpreter): an s-expression
/// read/eval/print loop over a cons-cell heap with mark-sweep garbage
/// collection, where *every builtin is dispatched through a function
/// pointer table* — the paper's key case for the Markov pointer node
/// ("all the 173 built-in Lisp functions are called by pointer. In
/// practice ... the Lisp interpreter spends most of its time in the
/// read/eval/print loop and in garbage collection", §5.2.1).
///
//===----------------------------------------------------------------------===//

#include "suite/Suite.h"

#include "support/Prng.h"

#include <functional>
#include <string>

using namespace sest;

namespace {

const char *Source = R"MC(
/* xlisp0: s-expression REPL with mark-sweep GC and pointer-dispatched
   builtins. value encoding: -1 = nil, otherwise a cell index. */

int tag_[4096];   /* 0 free, 1 cons, 2 int, 3 opcode */
int car_[4096];
int cdr_[4096];
int marked[4096];
int free_head = -1;
int cells_in_use = 0;
int gc_runs = 0;
int gc_freed = 0;
int eval_calls = 0;

int cur_ch = -2;  /* lookahead; -2 = not primed */

void heap_init() {
  int i;
  free_head = -1;
  for (i = 4095; i >= 0; i--) {
    tag_[i] = 0;
    cdr_[i] = free_head;
    free_head = i;
  }
  cells_in_use = 0;
}

void mark(int c) {
  if (c < 0)
    return;
  if (marked[c])
    return;
  marked[c] = 1;
  if (tag_[c] == 1) {
    mark(car_[c]);
    mark(cdr_[c]);
  }
}

void sweep() {
  int i;
  for (i = 0; i < 4096; i++) {
    if (tag_[i] != 0 && !marked[i]) {
      tag_[i] = 0;
      cdr_[i] = free_head;
      free_head = i;
      cells_in_use--;
      gc_freed++;
    }
  }
}

void gc(int root) {
  int i;
  gc_runs++;
  for (i = 0; i < 4096; i++)
    marked[i] = 0;
  mark(root);
  sweep();
}

int alloc_cell(int t, int a, int d) {
  int c;
  if (free_head == -1) {
    print_str("heap exhausted\n");
    abort();
  }
  c = free_head;
  free_head = cdr_[c];
  tag_[c] = t;
  car_[c] = a;
  cdr_[c] = d;
  cells_in_use++;
  return c;
}

int make_int(int v) { return alloc_cell(2, v, -1); }
int make_op(int code) { return alloc_cell(3, code, -1); }
int cons(int a, int d) { return alloc_cell(1, a, d); }

int int_of(int c) {
  if (c < 0 || tag_[c] != 2)
    return 0;
  return car_[c];
}

/* ---- reader ---- */

int next_ch() {
  int c = cur_ch;
  cur_ch = read_char();
  return c;
}

void prime() {
  if (cur_ch == -2)
    cur_ch = read_char();
}

void skip_spaces() {
  while (cur_ch == ' ' || cur_ch == '\n' || cur_ch == '\t')
    next_ch();
}

/* opcodes: 0 add, 1 sub, 2 mul, 3 div, 4 car, 5 cdr, 6 cons, 7 eq,
   8 lt, 9 len, 10 sum, 11 max, 12 if (special form) */
int name_code(int c0, int c1, int c2) {
  if (c0 == 'a')
    return 0;
  if (c0 == 's') {
    if (c1 == 'u' && c2 == 'b')
      return 1;
    return 10; /* sum */
  }
  if (c0 == 'm') {
    if (c1 == 'u')
      return 2;
    return 11; /* max */
  }
  if (c0 == 'd')
    return 3;
  if (c0 == 'c') {
    if (c1 == 'a')
      return 4;
    if (c1 == 'd')
      return 5;
    return 6; /* cons */
  }
  if (c0 == 'e')
    return 7;
  if (c0 == 'l') {
    if (c1 == 't')
      return 8;
    return 9; /* len */
  }
  if (c0 == 'i')
    return 12;
  print_str("unknown name\n");
  abort();
  return -1;
}

int read_form();

int read_list() {
  int head;
  int rest;
  skip_spaces();
  if (cur_ch == ')') {
    next_ch();
    return -1;
  }
  if (cur_ch == -1) {
    print_str("unterminated list\n");
    abort();
  }
  head = read_form();
  rest = read_list();
  return cons(head, rest);
}

int read_form() {
  int neg = 0;
  int v = 0;
  int c0;
  int c1;
  int c2;
  skip_spaces();
  if (cur_ch == -1)
    return -2; /* eof marker */
  if (cur_ch == '(') {
    next_ch();
    return read_list();
  }
  if (cur_ch == '-' || (cur_ch >= '0' && cur_ch <= '9')) {
    if (cur_ch == '-') {
      neg = 1;
      next_ch();
    }
    while (cur_ch >= '0' && cur_ch <= '9') {
      v = v * 10 + cur_ch - '0';
      next_ch();
    }
    if (neg)
      v = -v;
    return make_int(v);
  }
  /* a name: letters only, at most 4 matter */
  c0 = cur_ch;
  next_ch();
  c1 = 0;
  c2 = 0;
  if (cur_ch >= 'a' && cur_ch <= 'z') {
    c1 = cur_ch;
    next_ch();
  }
  if (cur_ch >= 'a' && cur_ch <= 'z') {
    c2 = cur_ch;
    next_ch();
  }
  while (cur_ch >= 'a' && cur_ch <= 'z')
    next_ch();
  return make_op(name_code(c0, c1, c2));
}

/* ---- evaluator with pointer-dispatched builtins ---- */

int eval(int form);

int fn_add(int args) {
  int s = 0;
  while (args != -1) {
    s += int_of(car_[args]);
    args = cdr_[args];
  }
  return make_int(s);
}

int fn_sub(int args) {
  int s;
  if (args == -1)
    return make_int(0);
  s = int_of(car_[args]);
  args = cdr_[args];
  while (args != -1) {
    s -= int_of(car_[args]);
    args = cdr_[args];
  }
  return make_int(s);
}

int fn_mul(int args) {
  int p = 1;
  while (args != -1) {
    p *= int_of(car_[args]);
    args = cdr_[args];
  }
  return make_int(p);
}

int fn_div(int args) {
  int s;
  int d;
  if (args == -1)
    return make_int(0);
  s = int_of(car_[args]);
  args = cdr_[args];
  while (args != -1) {
    d = int_of(car_[args]);
    if (d == 0)
      d = 1;
    s /= d;
    args = cdr_[args];
  }
  return make_int(s);
}

int fn_car(int args) {
  int v;
  if (args == -1)
    return -1;
  v = car_[args];
  if (v < 0 || tag_[v] != 1)
    return v;
  return car_[v];
}

int fn_cdr(int args) {
  int v;
  if (args == -1)
    return -1;
  v = car_[args];
  if (v < 0 || tag_[v] != 1)
    return -1;
  return cdr_[v];
}

int fn_cons(int args) {
  int a = -1;
  int d = -1;
  if (args != -1) {
    a = car_[args];
    if (cdr_[args] != -1)
      d = car_[cdr_[args]];
  }
  return cons(a, d);
}

int fn_eq(int args) {
  int a;
  int b;
  if (args == -1 || cdr_[args] == -1)
    return make_int(0);
  a = int_of(car_[args]);
  b = int_of(car_[cdr_[args]]);
  return make_int(a == b);
}

int fn_lt(int args) {
  int a;
  int b;
  if (args == -1 || cdr_[args] == -1)
    return make_int(0);
  a = int_of(car_[args]);
  b = int_of(car_[cdr_[args]]);
  return make_int(a < b);
}

int fn_len(int args) {
  int v;
  int n = 0;
  if (args == -1)
    return make_int(0);
  v = car_[args];
  while (v != -1 && tag_[v] == 1) {
    n++;
    v = cdr_[v];
  }
  return make_int(n);
}

int fn_sum(int args) {
  int v;
  int s = 0;
  if (args == -1)
    return make_int(0);
  v = car_[args];
  while (v != -1 && tag_[v] == 1) {
    s += int_of(car_[v]);
    v = cdr_[v];
  }
  return make_int(s);
}

int fn_max(int args) {
  int best = -999999;
  int v;
  while (args != -1) {
    v = int_of(car_[args]);
    if (v > best)
      best = v;
    args = cdr_[args];
  }
  return make_int(best);
}

/* every builtin call goes through this table */
int (*builtins[12])(int) = {
  fn_add, fn_sub, fn_mul, fn_div, fn_car, fn_cdr,
  fn_cons, fn_eq, fn_lt, fn_len, fn_sum, fn_max };

int eval_args(int list) {
  int head;
  if (list == -1)
    return -1;
  head = eval(car_[list]);
  return cons(head, eval_args(cdr_[list]));
}

int eval(int form) {
  int op;
  int code;
  eval_calls++;
  if (form < 0)
    return -1;
  if (tag_[form] == 2)
    return form;
  if (tag_[form] == 3)
    return form;
  /* a list: (op args...) */
  op = car_[form];
  if (op < 0 || tag_[op] != 3) {
    /* a plain data list: evaluate elements */
    return eval_args(form);
  }
  code = car_[op];
  if (code == 12) {
    /* (if cond then else) */
    int rest = cdr_[form];
    int cond = eval(car_[rest]);
    if (int_of(cond) != 0)
      return eval(car_[cdr_[rest]]);
    if (cdr_[cdr_[rest]] == -1)
      return -1;
    return eval(car_[cdr_[cdr_[rest]]]);
  }
  return builtins[code](eval_args(cdr_[form]));
}

void print_value(int v) {
  int first = 1;
  if (v == -1) {
    print_str("nil");
    return;
  }
  if (tag_[v] == 2) {
    print_int(car_[v]);
    return;
  }
  if (tag_[v] == 3) {
    print_str("#op");
    print_int(car_[v]);
    return;
  }
  print_char('(');
  while (v != -1 && tag_[v] == 1) {
    if (!first)
      print_char(' ');
    print_value(car_[v]);
    first = 0;
    v = cdr_[v];
  }
  print_char(')');
}

int main() {
  int form;
  int result;
  int n_forms = 0;
  heap_init();
  prime();
  for (;;) {
    form = read_form();
    if (form == -2)
      break;
    result = eval(form);
    print_value(result);
    print_char('\n');
    n_forms++;
    /* collect everything between top-level forms */
    gc(-1);
  }
  print_str("forms=");
  print_int(n_forms);
  print_str(" evals=");
  print_int(eval_calls);
  print_str(" gcs=");
  print_int(gc_runs);
  print_str(" freed=");
  print_int(gc_freed);
  print_char('\n');
  return 0;
}
)MC";

/// Random s-expressions over the builtin vocabulary.
std::string makeForms(uint64_t Seed, int Count, int Depth) {
  Prng R(Seed);
  std::function<std::string(int)> Gen = [&](int D) -> std::string {
    if (D == 0 || R.nextBelow(3) == 0)
      return std::to_string(R.nextInRange(-20, 20));
    static const char *Ops[] = {"add", "sub", "mul", "div", "eq",
                                "lt",  "max", "add", "mul"};
    unsigned Pick = static_cast<unsigned>(R.nextBelow(10));
    if (Pick == 9) {
      // (if cond then else)
      return "(if " + Gen(D - 1) + " " + Gen(D - 1) + " " + Gen(D - 1) +
             ")";
    }
    std::string S = "(";
    S += Ops[Pick];
    unsigned Args = 2 + static_cast<unsigned>(R.nextBelow(3));
    for (unsigned A = 0; A < Args; ++A) {
      S += ' ';
      S += Gen(D - 1);
    }
    return S + ")";
  };
  std::string Out;
  for (int I = 0; I < Count; ++I)
    Out += Gen(Depth) + "\n";
  return Out;
}

} // namespace

SuiteProgram sest::makeXlisp() {
  SuiteProgram P;
  P.Name = "xlisp";
  P.PaperAnalogue = "xlisp (SPEC92)";
  P.Description = "Lisp interpreter (REPL, GC, pointer-dispatched builtins)";
  P.Source = Source;
  P.Inputs = {
      {"f30d4", makeForms(13, 30, 4), 13},
      {"f50d3", makeForms(31, 50, 3), 31},
      {"f20d5", makeForms(61, 20, 5), 61},
      {"f40d4", makeForms(89, 40, 4), 89},
      {"f25d4", makeForms(101, 25, 4), 101},
  };
  return P;
}
