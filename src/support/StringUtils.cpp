//===- support/StringUtils.cpp - String helpers ---------------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <charconv>
#include <cmath>
#include <cstdio>

using namespace sest;

std::string sest::formatDouble(double Value, unsigned Decimals) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", static_cast<int>(Decimals), Value);
  return Buf;
}

std::string sest::formatPercent(double Fraction, unsigned Decimals) {
  return formatDouble(Fraction * 100.0, Decimals) + "%";
}

std::string sest::padLeft(std::string S, size_t Width) {
  if (S.size() < Width)
    S.insert(S.begin(), Width - S.size(), ' ');
  return S;
}

std::string sest::padRight(std::string S, size_t Width) {
  if (S.size() < Width)
    S.append(Width - S.size(), ' ');
  return S;
}

std::vector<std::string> sest::splitString(std::string_view Text, char Sep) {
  std::vector<std::string> Out;
  size_t Start = 0;
  for (size_t I = 0; I <= Text.size(); ++I) {
    if (I == Text.size() || Text[I] == Sep) {
      Out.emplace_back(Text.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Out;
}

std::string sest::joinStrings(const std::vector<std::string> &Parts,
                              std::string_view Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

bool sest::startsWith(std::string_view Text, std::string_view Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.substr(0, Prefix.size()) == Prefix;
}

std::optional<unsigned> sest::parseUnsigned(std::string_view Text) {
  unsigned Value = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Ptr != End)
    return std::nullopt;
  return Value;
}
