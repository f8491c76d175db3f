// Value-parameterized sweeps over only the valid points of a Cartesian
// product, so every instantiated test runs and none is a skip:
//
//   INSTANTIATE_TEST_SUITE_P(Sweep, Fix, ::testing::ValuesIn(valid_tuples<Fix::ParamType>(
//       [](std::size_t n, std::size_t crash_k, auto...) { return crash_k < n; },
//       {2, 5, 8}, {0, 1, 4}, {1, 2})));
//
// Points come out in ::testing::Combine's order (last axis fastest); ctest
// names each instance by its printed value, so a kept point keeps its name.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <tuple>
#include <vector>

namespace hds {

template <std::size_t I, typename Tuple, typename Keep, typename Axes>
void collect_valid(std::vector<Tuple>& out, const Keep& keep, const Axes& axes, Tuple& cur) {
  if constexpr (I == std::tuple_size_v<Tuple>) {
    if (std::apply(keep, cur)) out.push_back(cur);
  } else {
    for (const auto& v : std::get<I>(axes)) {
      std::get<I>(cur) = static_cast<std::tuple_element_t<I, Tuple>>(v);
      collect_valid<I + 1>(out, keep, axes, cur);
    }
  }
}

// The points of axes[0] x axes[1] x ... (converted to Tuple's element
// types) for which std::apply(keep, point) holds.
template <typename Tuple, typename Keep, typename... A>
std::vector<Tuple> valid_tuples(const Keep& keep, std::initializer_list<A>... axes) {
  static_assert(sizeof...(A) == std::tuple_size_v<Tuple>, "one axis per tuple element");
  std::vector<Tuple> out;
  Tuple cur{};
  collect_valid<0>(out, keep, std::make_tuple(axes...), cur);
  return out;
}

}  // namespace hds
