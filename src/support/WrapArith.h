//===- support/WrapArith.h - Mini-C's wrapping int arithmetic ---*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mini-C int +, -, * and unary minus wrap modulo 2^64, as -fwrapv makes
/// them in the native tier. Both interpreters and the constant folder
/// compute them here, in uint64_t, so the host never overflows a signed
/// value (undefined behaviour in C++).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_WRAPARITH_H
#define SUPPORT_WRAPARITH_H

#include <cstdint>
#include <limits>

namespace sest {

inline int64_t wrapAdd(int64_t L, int64_t R) {
  return static_cast<int64_t>(static_cast<uint64_t>(L) +
                              static_cast<uint64_t>(R));
}
inline int64_t wrapSub(int64_t L, int64_t R) {
  return static_cast<int64_t>(static_cast<uint64_t>(L) -
                              static_cast<uint64_t>(R));
}
inline int64_t wrapMul(int64_t L, int64_t R) {
  return static_cast<int64_t>(static_cast<uint64_t>(L) *
                              static_cast<uint64_t>(R));
}
inline int64_t wrapNeg(int64_t V) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(V));
}

/// INT64_MIN / -1 (and its remainder) does not fit in 64 bits; the host
/// division would trap.
inline bool isQuotientOverflow(int64_t L, int64_t R) {
  return R == -1 && L == std::numeric_limits<int64_t>::min();
}

} // namespace sest

#endif // SUPPORT_WRAPARITH_H
