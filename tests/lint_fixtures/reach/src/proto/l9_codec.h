// L9 fixture: a generic field walk names kFields, as the real codec does.
#pragma once

#include <tuple>

template <typename T>
inline constexpr auto kFieldCount = std::tuple_size_v<decltype(T::kFields)>;
