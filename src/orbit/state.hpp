// Cartesian state vectors and the vector arithmetic on them.
#pragma once

#include <array>

namespace cosmicdance::orbit {

/// 3-vector in km (position) or km/s (velocity).
using Vec3 = std::array<double, 3>;

[[nodiscard]] double dot(const Vec3& a, const Vec3& b) noexcept;
[[nodiscard]] double norm(const Vec3& a) noexcept;
[[nodiscard]] Vec3 sub(const Vec3& a, const Vec3& b) noexcept;

/// Inertial cartesian state.
struct StateVector {
  Vec3 position_km{};
  Vec3 velocity_kms{};
};

}  // namespace cosmicdance::orbit
