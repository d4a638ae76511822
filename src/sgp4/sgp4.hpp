// SGP4/SDP4 orbit propagator (Vallado's reference algorithm, WGS-72).
//
// This is the standard analytical model TLEs are fitted against: the
// near-earth SGP4 theory (J2/J3/J4 secular + periodic terms and the B* drag
// model) plus the SDP4 deep-space extension (lunar/solar periodics and
// 12h/24h resonance handling) selected automatically for periods >= 225 min.
// Output states are in the TEME frame, kilometres and km/s.
//
// Layout (DESIGN.md §16): element recovery runs exactly once per TLE and
// produces three immutable constant blocks, split by which orbit class
// consumes them — the CommonConstants / NearSpaceConstants /
// DeepSpaceConstants separation of the reference C++ ports.  Propagation is
// a pure function of (constants, tsince): every per-epoch intermediate
// lives on the stack, so one constant set may be propagated from any number
// of threads concurrently.  The deep-space resonance integrator's memo is
// an explicit caller-owned ResonanceState instead of hidden mutable state;
// passing one is purely an optimisation for ascending-time sweeps and never
// changes results (exact-memoization contract, see ResonanceState).
#pragma once

#include <string>

#include "orbit/state.hpp"
#include "tle/tle.hpp"

namespace cosmicdance::sgp4 {

/// Propagation failure modes, mirroring the reference implementation's
/// error codes (kKeplerNotConverged is ours: the reference silently keeps
/// the unconverged iterate).
enum class Sgp4Status {
  kOk = 0,
  kEccentricityOutOfRange = 1,  ///< mean eccentricity outside [0, 1)
  kMeanMotionNonPositive = 2,
  kPerturbedEccentricityOutOfRange = 3,
  kSemiLatusRectumNegative = 4,
  kDecayed = 6,             ///< satellite radius dropped below Earth's surface
  kKeplerNotConverged = 7,  ///< Kepler iteration still diverging at the bound
};

/// Human-readable description of a status code.
[[nodiscard]] std::string to_string(Sgp4Status status);

/// Constants every propagation consumes: mean elements at epoch, recovered
/// (un-Kozai'd) mean motion, secular rates and the first-order drag terms.
struct CommonConstants {
  double epoch_jd = 0.0;
  double epoch1950 = 0.0;  ///< days since 1949 Dec 31 00:00 UT
  int catalog_number = 0;
  bool deep_space = false;  ///< SDP4 path active (period >= 225 min)
  bool simple_drag = false; ///< isimp: higher-order drag terms dropped

  // Mean elements at epoch (radians, rad/min).
  double bstar = 0.0, ecco = 0.0, argpo = 0.0, inclo = 0.0, mo = 0.0,
         no = 0.0, nodeo = 0.0;

  // Secular rates and periodic coefficients.
  double aycof = 0.0, con41 = 0.0, cc1 = 0.0, cc4 = 0.0, cc5 = 0.0,
         delmo = 0.0, eta = 0.0, argpdot = 0.0, omgcof = 0.0, sinmao = 0.0,
         t2cof = 0.0, x1mth2 = 0.0, x7thm1 = 0.0, mdot = 0.0, nodedot = 0.0,
         xlcof = 0.0, xmcof = 0.0, nodecf = 0.0, gsto = 0.0;

  double recovered_a_earth_radii = 0.0;
};

/// Higher-order drag terms, used only when !simple_drag (perigee >= 220 km
/// and near-earth); all-zero otherwise so the struct is always safe to read.
struct NearSpaceConstants {
  double d2 = 0.0, d3 = 0.0, d4 = 0.0, t3cof = 0.0, t4cof = 0.0, t5cof = 0.0;
};

/// SDP4 lunar/solar periodic and resonance constants, used only when
/// deep_space; all-zero (irez == 0) otherwise.
struct DeepSpaceConstants {
  int irez = 0;  ///< 0 none, 1 synchronous (24h), 2 half-day (12h)
  double d2201 = 0.0, d2211 = 0.0, d3210 = 0.0, d3222 = 0.0, d4410 = 0.0,
         d4422 = 0.0, d5220 = 0.0, d5232 = 0.0, d5421 = 0.0, d5433 = 0.0,
         dedt = 0.0, del1 = 0.0, del2 = 0.0, del3 = 0.0, didt = 0.0,
         dmdt = 0.0, dnodt = 0.0, domdt = 0.0, e3 = 0.0, ee2 = 0.0,
         peo = 0.0, pgho = 0.0, pho = 0.0, pinco = 0.0, plo = 0.0,
         se2 = 0.0, se3 = 0.0, sgh2 = 0.0, sgh3 = 0.0, sgh4 = 0.0,
         sh2 = 0.0, sh3 = 0.0, si2 = 0.0, si3 = 0.0, sl2 = 0.0,
         sl3 = 0.0, sl4 = 0.0, xfact = 0.0, xgh2 = 0.0, xgh3 = 0.0,
         xgh4 = 0.0, xh2 = 0.0, xh3 = 0.0, xi2 = 0.0, xi3 = 0.0,
         xl2 = 0.0, xl3 = 0.0, xl4 = 0.0, xlamo = 0.0, zmol = 0.0,
         zmos = 0.0;
};

/// One TLE's full init-once constant set.
struct Sgp4Constants {
  CommonConstants common;
  NearSpaceConstants near_space;
  DeepSpaceConstants deep;
};

/// Resonance-integrator memo for the deep-space 12h/24h branches.
///
/// The integrator is a fixed-step (720 min) Euler-Maclaurin recurrence from
/// t = 0; a memo just skips recomputing the prefix of steps shared with the
/// previous call.  Resuming is *exact*: the recurrence is restarted from
/// scratch whenever the cached state is not a prefix of the requested time
/// (opposite sign, or |t| < |atime|), so results are bit-identical whether a
/// state is reused across calls, used fresh per call, or epochs are visited
/// in any order.  The zero state is the valid cold start.
struct ResonanceState {
  double atime = 0.0;  ///< minutes integrated so far (0 = cold)
  double xli = 0.0;
  double xni = 0.0;
};

/// Run the full sgp4init element recovery for one TLE.  Throws
/// ValidationError for bad elements and PropagationError when the element
/// set cannot be initialised (e.g. epoch elements below ground).
[[nodiscard]] Sgp4Constants init_constants(const tle::Tle& tle);

/// The propagation kernel: state at `tsince_minutes` minutes from the TLE
/// epoch.  Pure — safe to call concurrently on one constant set.  `resume`
/// (optional) memoises the deep-space resonance integrator across calls;
/// it never changes results (see ResonanceState) and is ignored for
/// non-resonant orbits.
[[nodiscard]] Sgp4Status propagate(const Sgp4Constants& constants,
                                   double tsince_minutes,
                                   orbit::StateVector& out,
                                   ResonanceState* resume = nullptr) noexcept;

/// Split-block variant for structure-of-arrays callers (BatchPropagator
/// stores the three blocks in separate per-kind arrays).
[[nodiscard]] Sgp4Status propagate(const CommonConstants& common,
                                   const NearSpaceConstants& near_space,
                                   const DeepSpaceConstants& deep,
                                   double tsince_minutes,
                                   orbit::StateVector& out,
                                   ResonanceState* resume = nullptr) noexcept;

namespace detail {
/// Kepler's-equation solve (Newton with the reference's 0.95-rad step clamp,
/// hard-bounded at 10 iterations).  Returns kKeplerNotConverged when the
/// final correction is still >= 1e-8 rad — near-parabolic element sets for
/// which the reference would silently emit the unconverged iterate.
/// Exposed for the regression tests.
[[nodiscard]] Sgp4Status solve_kepler(double u, double axnl, double aynl,
                                      double& eo1, double& sineo1,
                                      double& coseo1) noexcept;
}  // namespace detail

/// One initialised propagator per TLE: a thin owner of the init-once
/// constant set.  Construction runs the full sgp4init element recovery;
/// propagation is then cheap and — because the kernel is pure — thread-safe
/// even for a single instance shared across threads.
class Sgp4Propagator {
 public:
  /// Throws ValidationError for bad elements and PropagationError when the
  /// element set cannot be initialised (e.g. epoch elements below ground).
  explicit Sgp4Propagator(const tle::Tle& tle);

  /// Propagate `tsince_minutes` minutes from the TLE epoch.  Throws
  /// PropagationError (with the status in the message) on failure.
  [[nodiscard]] orbit::StateVector propagate_minutes(double tsince_minutes) const;

  /// Propagate to an absolute UTC Julian date.
  [[nodiscard]] orbit::StateVector propagate_jd(double jd) const;

  /// Non-throwing variant; returns the status and fills `out` on success.
  /// `resume` optionally carries the resonance-integrator memo between
  /// ascending-time calls (never changes results).
  [[nodiscard]] Sgp4Status try_propagate_minutes(
      double tsince_minutes, orbit::StateVector& out,
      ResonanceState* resume = nullptr) const noexcept;

  [[nodiscard]] double epoch_jd() const noexcept { return k_.common.epoch_jd; }
  [[nodiscard]] int catalog_number() const noexcept {
    return k_.common.catalog_number;
  }
  /// True when the SDP4 deep-space path is active (period >= 225 min).
  [[nodiscard]] bool deep_space() const noexcept { return k_.common.deep_space; }

  /// Brouwer mean semi-major axis recovered from the Kozai mean motion at
  /// epoch (km) — the paper's altitude proxy uses exactly this recovery.
  [[nodiscard]] double recovered_semi_major_axis_km() const noexcept;
  /// recovered_semi_major_axis_km() minus Earth's equatorial radius.
  [[nodiscard]] double recovered_altitude_km() const noexcept;

  /// The init-once constant set (immutable for the propagator's lifetime).
  [[nodiscard]] const Sgp4Constants& constants() const noexcept { return k_; }

 private:
  Sgp4Constants k_;
};

}  // namespace cosmicdance::sgp4
