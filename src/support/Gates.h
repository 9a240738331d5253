//===- support/Gates.h - Regression gates declared by reports ---*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every report a regression check reads declares its own gates, as a
/// top-level "gates" array of records
///
///   {"name", "kind": "hard"|"advisory", "value", "check",
///    "bound"?, "better"?}
///
/// scripts/check_gates.py evaluates them against the baseline report of
/// the same file name without knowing the report's schema. Checks:
///
///   min / max  value against the absolute bound;
///   equal      value against the baseline gate of the same name;
///   factor     fails when value is more than bound times worse than
///              the baseline, in the direction given by better;
///   slack      fails when value is more than bound worse than the
///              baseline, in the direction given by better.
///
/// Deterministic values are hard gates; wall-clock values are advisory.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_GATES_H
#define SUPPORT_GATES_H

#include "support/Json.h"

#include <string>
#include <string_view>

namespace sest {

/// Collects a report's gate records; write() or appendTo() emits them.
class Gates {
public:
  enum Kind { Hard, Advisory };
  enum Better { Higher, Lower };

  Gates &min(std::string_view Name, Kind K, double Value, double Bound) {
    return add(Name, K, Value, "min", &Bound, nullptr);
  }
  Gates &max(std::string_view Name, Kind K, double Value, double Bound) {
    return add(Name, K, Value, "max", &Bound, nullptr);
  }
  Gates &equal(std::string_view Name, Kind K, double Value) {
    return add(Name, K, Value, "equal", nullptr, nullptr);
  }
  Gates &factor(std::string_view Name, Kind K, double Value, double Bound,
                Better B) {
    return add(Name, K, Value, "factor", &Bound, &B);
  }
  Gates &slack(std::string_view Name, Kind K, double Value, double Bound,
               Better B) {
    return add(Name, K, Value, "slack", &Bound, &B);
  }

  /// Writes the "gates" member into the object \p W is inside.
  void write(JsonWriter &W) const { W.key("gates").rawValue(array()); }

  /// \p ObjectJson, one rendered JSON object, with the "gates" member
  /// appended — for reports whose writer must not change.
  std::string appendTo(std::string ObjectJson) const {
    ObjectJson.pop_back(); // the closing '}'
    return ObjectJson + ",\"gates\":" + array() + "}";
  }

private:
  Gates &add(std::string_view Name, Kind K, double Value,
             std::string_view Check, const double *Bound, const Better *B) {
    JsonWriter W;
    W.beginObject();
    W.member("name", Name);
    W.member("kind", K == Hard ? "hard" : "advisory");
    W.member("value", Value);
    W.member("check", Check);
    if (Bound)
      W.member("bound", *Bound);
    if (B)
      W.member("better", *B == Higher ? "higher" : "lower");
    W.endObject();
    if (!Items.empty())
      Items += ',';
    Items += W.take();
    return *this;
  }

  std::string array() const { return "[" + Items + "]"; }

  std::string Items;
};

} // namespace sest

#endif // SUPPORT_GATES_H
