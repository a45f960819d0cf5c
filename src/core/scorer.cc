#include "core/scorer.h"

namespace rtsi::core {

namespace {

std::array<double, kOnePlusLnTableSize> MakeOnePlusLnTable() {
  std::array<double, kOnePlusLnTableSize> table{};
  for (std::size_t tf = 1; tf < table.size(); ++tf) {
    table[tf] = 1.0 + std::log(static_cast<double>(tf));
  }
  return table;
}

}  // namespace

const std::array<double, kOnePlusLnTableSize> kOnePlusLnTable =
    MakeOnePlusLnTable();

}  // namespace rtsi::core
