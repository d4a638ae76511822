#include "orbit/state.hpp"

#include <cmath>

namespace cosmicdance::orbit {

double dot(const Vec3& a, const Vec3& b) noexcept {
  return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
}

double norm(const Vec3& a) noexcept { return std::sqrt(dot(a, a)); }

Vec3 sub(const Vec3& a, const Vec3& b) noexcept {
  return {a[0] - b[0], a[1] - b[1], a[2] - b[2]};
}

}  // namespace cosmicdance::orbit
