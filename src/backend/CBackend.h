//===- backend/CBackend.h - Compile-to-C backend ----------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a program's compiled bytecode to one standalone C translation
/// unit: one C function per mini-C function, with the VM's dispatch loop
/// replaced by direct control flow (labels + gotos resolved at emission
/// time) and every profile counter compiled to a plain `+= 1` on a flat
/// static-offset array. Its C runtime is an independent implementation
/// of the interpreters' shared runtime (interp/Runtime.h) — same
/// diagnostics, same tick placement, same limit checks in the same
/// order — so profiles and RunResults are bit-identical to both
/// interpreters (tests/test_bytecode_diff.cpp pins this three ways).
///
/// Block segments are emitted in the layout plan's order, with cold
/// chains outlined into `..._cold` continuation functions; arc
/// fall-through/taken classification is baked in per arc slot against
/// the same plan. The host C compiler then turns the chosen order into
/// real fall-throughs — layout decisions become instruction-stream
/// effects, not just classified costs.
///
//===----------------------------------------------------------------------===//

#ifndef BACKEND_CBACKEND_H
#define BACKEND_CBACKEND_H

#include "backend/Backend.h"

namespace sest::backend {

class CBackend : public Backend {
public:
  std::string name() const override { return "c"; }
  bool available(std::string *Why) const override;
  std::string emitSource(const TranslationUnit &Unit, const CfgModule &Cfgs,
                         const bc::BcModule &Bc, const NativeLayoutPlan &Plan,
                         std::string *Error) const override;
  std::shared_ptr<const NativeArtifact>
  compile(const TranslationUnit &Unit, const CfgModule &Cfgs,
          const bc::BcModule &Bc, const NativeLayoutPlan &Plan,
          std::string *Error) const override;
};

} // namespace sest::backend

#endif // BACKEND_CBACKEND_H
