// SGP4/SDP4 implementation following Vallado, Crawford, Hujsak & Kelso,
// "Revisiting Spacetrack Report #3" (AIAA 2006-6753) and the companion
// reference code.  Variable names intentionally mirror the reference so the
// math can be checked against the report term by term.
//
// Structure: init_constants() is the reference's sgp4init (plus dscom /
// dsinit for deep-space sets), run exactly once per TLE; propagate() is the
// reference's sgp4(), a pure function of the recovered constants.  The only
// cross-call state in the reference — the deep-space resonance integrator's
// atime/xli/xni memo — is hoisted into the caller-owned ResonanceState so
// the kernel itself has no mutable storage.
#include "sgp4/sgp4.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "orbit/constants.hpp"
#include "timeutil/sidereal.hpp"

namespace cosmicdance::sgp4 {
namespace {

using units::kPi;
using units::kTwoPi;

constexpr double kX2o3 = 2.0 / 3.0;
// Julian date of the 1950 reference epoch used by the deep-space theory.
constexpr double kJd1950 = 2433281.5;

/// Epoch lunar/solar geometry shared between dscom and dsinit during init;
/// never needed after init_constants returns.
struct DscomScratch {
  double snodm = 0.0, cnodm = 0.0, sinim = 0.0, cosim = 0.0, sinomm = 0.0,
         cosomm = 0.0, day = 0.0, emsq = 0.0, gam = 0.0, rtemsq = 0.0,
         s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0, s5 = 0.0, s6 = 0.0,
         s7 = 0.0, ss1 = 0.0, ss2 = 0.0, ss3 = 0.0, ss4 = 0.0, ss5 = 0.0,
         ss6 = 0.0, ss7 = 0.0, sz1 = 0.0, sz2 = 0.0, sz3 = 0.0,
         sz11 = 0.0, sz12 = 0.0, sz13 = 0.0, sz21 = 0.0, sz22 = 0.0,
         sz23 = 0.0, sz31 = 0.0, sz32 = 0.0, sz33 = 0.0, z1 = 0.0,
         z2 = 0.0, z3 = 0.0, z11 = 0.0, z12 = 0.0, z13 = 0.0, z21 = 0.0,
         z22 = 0.0, z23 = 0.0, z31 = 0.0, z32 = 0.0, z33 = 0.0;
};

// ---------------------------------------------------------------------------
// dscom: deep-space common terms (lunar & solar geometry at epoch).
// ---------------------------------------------------------------------------
void dscom(double epoch1950, double ep, double argpp, double tc, double inclp,
           double nodep, double np, DscomScratch& s, DeepSpaceConstants& deep) {
  constexpr double zes = 0.01675;
  constexpr double zel = 0.05490;
  constexpr double c1ss = 2.9864797e-6;
  constexpr double c1l = 4.7968065e-7;
  constexpr double zsinis = 0.39785416;
  constexpr double zcosis = 0.91744867;
  constexpr double zcosgs = 0.1945905;
  constexpr double zsings = -0.98088458;

  const double nm = np;
  const double em = ep;
  s.snodm = std::sin(nodep);
  s.cnodm = std::cos(nodep);
  s.sinomm = std::sin(argpp);
  s.cosomm = std::cos(argpp);
  s.sinim = std::sin(inclp);
  s.cosim = std::cos(inclp);
  s.emsq = em * em;
  const double betasq = 1.0 - s.emsq;
  s.rtemsq = std::sqrt(betasq);

  deep.peo = 0.0;
  deep.pinco = 0.0;
  deep.plo = 0.0;
  deep.pgho = 0.0;
  deep.pho = 0.0;
  s.day = epoch1950 + 18261.5 + tc / 1440.0;
  const double xnodce = std::fmod(4.5236020 - 9.2422029e-4 * s.day, kTwoPi);
  const double stem = std::sin(xnodce);
  const double ctem = std::cos(xnodce);
  const double zcosil = 0.91375164 - 0.03568096 * ctem;
  const double zsinil = std::sqrt(1.0 - zcosil * zcosil);
  const double zsinhl = 0.089683511 * stem / zsinil;
  const double zcoshl = std::sqrt(1.0 - zsinhl * zsinhl);
  s.gam = 5.8351514 + 0.0019443680 * s.day;
  double zx = 0.39785416 * stem / zsinil;
  const double zy = zcoshl * ctem + 0.91744867 * zsinhl * stem;
  zx = std::atan2(zx, zy);
  zx = s.gam + zx - xnodce;
  const double zcosgl = std::cos(zx);
  const double zsingl = std::sin(zx);

  // ------------------------- do solar terms -------------------------------
  double zcosg = zcosgs;
  double zsing = zsings;
  double zcosi = zcosis;
  double zsini = zsinis;
  double zcosh = s.cnodm;
  double zsinh = s.snodm;
  double cc = c1ss;
  const double xnoi = 1.0 / nm;

  for (int lsflg = 1; lsflg <= 2; ++lsflg) {
    const double a1 = zcosg * zcosh + zsing * zcosi * zsinh;
    const double a3 = -zsing * zcosh + zcosg * zcosi * zsinh;
    const double a7 = -zcosg * zsinh + zsing * zcosi * zcosh;
    const double a8 = zsing * zsini;
    const double a9 = zsing * zsinh + zcosg * zcosi * zcosh;
    const double a10 = zcosg * zsini;
    const double a2 = s.cosim * a7 + s.sinim * a8;
    const double a4 = s.cosim * a9 + s.sinim * a10;
    const double a5 = -s.sinim * a7 + s.cosim * a8;
    const double a6 = -s.sinim * a9 + s.cosim * a10;

    const double x1 = a1 * s.cosomm + a2 * s.sinomm;
    const double x2 = a3 * s.cosomm + a4 * s.sinomm;
    const double x3 = -a1 * s.sinomm + a2 * s.cosomm;
    const double x4 = -a3 * s.sinomm + a4 * s.cosomm;
    const double x5 = a5 * s.sinomm;
    const double x6 = a6 * s.sinomm;
    const double x7 = a5 * s.cosomm;
    const double x8 = a6 * s.cosomm;

    s.z31 = 12.0 * x1 * x1 - 3.0 * x3 * x3;
    s.z32 = 24.0 * x1 * x2 - 6.0 * x3 * x4;
    s.z33 = 12.0 * x2 * x2 - 3.0 * x4 * x4;
    s.z1 = 3.0 * (a1 * a1 + a2 * a2) + s.z31 * s.emsq;
    s.z2 = 6.0 * (a1 * a3 + a2 * a4) + s.z32 * s.emsq;
    s.z3 = 3.0 * (a3 * a3 + a4 * a4) + s.z33 * s.emsq;
    s.z11 = -6.0 * a1 * a5 + s.emsq * (-24.0 * x1 * x7 - 6.0 * x3 * x5);
    s.z12 = -6.0 * (a1 * a6 + a3 * a5) +
            s.emsq * (-24.0 * (x2 * x7 + x1 * x8) - 6.0 * (x3 * x6 + x4 * x5));
    s.z13 = -6.0 * a3 * a6 + s.emsq * (-24.0 * x2 * x8 - 6.0 * x4 * x6);
    s.z21 = 6.0 * a2 * a5 + s.emsq * (24.0 * x1 * x5 - 6.0 * x3 * x7);
    s.z22 = 6.0 * (a4 * a5 + a2 * a6) +
            s.emsq * (24.0 * (x2 * x5 + x1 * x6) - 6.0 * (x4 * x7 + x3 * x8));
    s.z23 = 6.0 * a4 * a6 + s.emsq * (24.0 * x2 * x6 - 6.0 * x4 * x8);
    s.z1 = s.z1 + s.z1 + betasq * s.z31;
    s.z2 = s.z2 + s.z2 + betasq * s.z32;
    s.z3 = s.z3 + s.z3 + betasq * s.z33;
    s.s3 = cc * xnoi;
    s.s2 = -0.5 * s.s3 / s.rtemsq;
    s.s4 = s.s3 * s.rtemsq;
    s.s1 = -15.0 * em * s.s4;
    s.s5 = x1 * x3 + x2 * x4;
    s.s6 = x2 * x3 + x1 * x4;
    s.s7 = x2 * x4 - x1 * x3;

    if (lsflg == 1) {
      s.ss1 = s.s1;
      s.ss2 = s.s2;
      s.ss3 = s.s3;
      s.ss4 = s.s4;
      s.ss5 = s.s5;
      s.ss6 = s.s6;
      s.ss7 = s.s7;
      s.sz1 = s.z1;
      s.sz2 = s.z2;
      s.sz3 = s.z3;
      s.sz11 = s.z11;
      s.sz12 = s.z12;
      s.sz13 = s.z13;
      s.sz21 = s.z21;
      s.sz22 = s.z22;
      s.sz23 = s.z23;
      s.sz31 = s.z31;
      s.sz32 = s.z32;
      s.sz33 = s.z33;
      zcosg = zcosgl;
      zsing = zsingl;
      zcosi = zcosil;
      zsini = zsinil;
      zcosh = zcoshl * s.cnodm + zsinhl * s.snodm;
      zsinh = s.snodm * zcoshl - s.cnodm * zsinhl;
      cc = c1l;
    }
  }

  deep.zmol = std::fmod(4.7199672 + 0.22997150 * s.day - s.gam, kTwoPi);
  deep.zmos = std::fmod(6.2565837 + 0.017201977 * s.day, kTwoPi);

  // ------------------------ do solar terms --------------------------------
  deep.se2 = 2.0 * s.ss1 * s.ss6;
  deep.se3 = 2.0 * s.ss1 * s.ss7;
  deep.si2 = 2.0 * s.ss2 * s.sz12;
  deep.si3 = 2.0 * s.ss2 * (s.sz13 - s.sz11);
  deep.sl2 = -2.0 * s.ss3 * s.sz2;
  deep.sl3 = -2.0 * s.ss3 * (s.sz3 - s.sz1);
  deep.sl4 = -2.0 * s.ss3 * (-21.0 - 9.0 * s.emsq) * zes;
  deep.sgh2 = 2.0 * s.ss4 * s.sz32;
  deep.sgh3 = 2.0 * s.ss4 * (s.sz33 - s.sz31);
  deep.sgh4 = -18.0 * s.ss4 * zes;
  deep.sh2 = -2.0 * s.ss2 * s.sz22;
  deep.sh3 = -2.0 * s.ss2 * (s.sz23 - s.sz21);

  // ------------------------ do lunar terms --------------------------------
  deep.ee2 = 2.0 * s.s1 * s.s6;
  deep.e3 = 2.0 * s.s1 * s.s7;
  deep.xi2 = 2.0 * s.s2 * s.z12;
  deep.xi3 = 2.0 * s.s2 * (s.z13 - s.z11);
  deep.xl2 = -2.0 * s.s3 * s.z2;
  deep.xl3 = -2.0 * s.s3 * (s.z3 - s.z1);
  deep.xl4 = -2.0 * s.s3 * (-21.0 - 9.0 * s.emsq) * zel;
  deep.xgh2 = 2.0 * s.s4 * s.z32;
  deep.xgh3 = 2.0 * s.s4 * (s.z33 - s.z31);
  deep.xgh4 = -18.0 * s.s4 * zel;
  deep.xh2 = -2.0 * s.s2 * s.z22;
  deep.xh3 = -2.0 * s.s2 * (s.z23 - s.z21);
}

// ---------------------------------------------------------------------------
// dpper: lunar-solar long-period periodic contributions.
// ---------------------------------------------------------------------------
void dpper(const DeepSpaceConstants& deep, double t, bool init_phase,
           double& ep, double& inclp, double& nodep, double& argpp,
           double& mp) noexcept {
  constexpr double zns = 1.19459e-5;
  constexpr double zes = 0.01675;
  constexpr double znl = 1.5835218e-4;
  constexpr double zel = 0.05490;

  // --------------- calculate time varying periodics ----------------------
  double zm = deep.zmos + zns * t;
  if (init_phase) zm = deep.zmos;
  double zf = zm + 2.0 * zes * std::sin(zm);
  double sinzf = std::sin(zf);
  double f2 = 0.5 * sinzf * sinzf - 0.25;
  double f3 = -0.5 * sinzf * std::cos(zf);
  const double ses = deep.se2 * f2 + deep.se3 * f3;
  const double sis = deep.si2 * f2 + deep.si3 * f3;
  const double sls = deep.sl2 * f2 + deep.sl3 * f3 + deep.sl4 * sinzf;
  const double sghs = deep.sgh2 * f2 + deep.sgh3 * f3 + deep.sgh4 * sinzf;
  const double shs = deep.sh2 * f2 + deep.sh3 * f3;

  zm = deep.zmol + znl * t;
  if (init_phase) zm = deep.zmol;
  zf = zm + 2.0 * zel * std::sin(zm);
  sinzf = std::sin(zf);
  f2 = 0.5 * sinzf * sinzf - 0.25;
  f3 = -0.5 * sinzf * std::cos(zf);
  const double sel = deep.ee2 * f2 + deep.e3 * f3;
  const double sil = deep.xi2 * f2 + deep.xi3 * f3;
  const double sll = deep.xl2 * f2 + deep.xl3 * f3 + deep.xl4 * sinzf;
  const double sghl = deep.xgh2 * f2 + deep.xgh3 * f3 + deep.xgh4 * sinzf;
  const double shll = deep.xh2 * f2 + deep.xh3 * f3;

  double pe = ses + sel;
  double pinc = sis + sil;
  double pl = sls + sll;
  double pgh = sghs + sghl;
  double ph = shs + shll;

  if (!init_phase) {
    pe -= deep.peo;
    pinc -= deep.pinco;
    pl -= deep.plo;
    pgh -= deep.pgho;
    ph -= deep.pho;
    inclp += pinc;
    ep += pe;
    const double sinip = std::sin(inclp);
    const double cosip = std::cos(inclp);

    if (inclp >= 0.2) {
      ph /= sinip;
      pgh -= cosip * ph;
      argpp += pgh;
      nodep += ph;
      mp += pl;
    } else {
      // ---- apply periodics with Lyddane modification (low inclination) ---
      const double sinop = std::sin(nodep);
      const double cosop = std::cos(nodep);
      double alfdp = sinip * sinop;
      double betdp = sinip * cosop;
      const double dalf = ph * cosop + pinc * cosip * sinop;
      const double dbet = -ph * sinop + pinc * cosip * cosop;
      alfdp += dalf;
      betdp += dbet;
      nodep = std::fmod(nodep, kTwoPi);
      if (nodep < 0.0) nodep += kTwoPi;
      double xls = mp + argpp + cosip * nodep;
      const double dls = pl + pgh - pinc * nodep * sinip;
      xls += dls;
      const double xnoh = nodep;
      nodep = std::atan2(alfdp, betdp);
      if (nodep < 0.0) nodep += kTwoPi;
      if (std::fabs(xnoh - nodep) > kPi) {
        if (nodep < xnoh) nodep += kTwoPi;
        else nodep -= kTwoPi;
      }
      mp += pl;
      argpp = xls - mp - cosip * nodep;
    }
  }
}

// ---------------------------------------------------------------------------
// dsinit: deep-space secular rates and resonance initialisation.
// ---------------------------------------------------------------------------
void dsinit(const DscomScratch& s, double tc, double xpidot, double eccsq,
            double inclm, CommonConstants& common, DeepSpaceConstants& deep) {
  constexpr double q22 = 1.7891679e-6;
  constexpr double q31 = 2.1460748e-6;
  constexpr double q33 = 2.2123015e-7;
  constexpr double root22 = 1.7891679e-6;
  constexpr double root44 = 7.3636953e-9;
  constexpr double root54 = 2.1765803e-9;
  constexpr double rptim = 4.37526908801129966e-3;  // earth rotation, rad/min
  constexpr double root32 = 3.7393792e-7;
  constexpr double root52 = 1.1428639e-7;
  constexpr double znl = 1.5835218e-4;
  constexpr double zns = 1.19459e-5;

  // -------------------- deep space resonance flags ------------------------
  const double nm_epoch = common.no;
  deep.irez = 0;
  if (nm_epoch < 0.0052359877 && nm_epoch > 0.0034906585) deep.irez = 1;
  if (nm_epoch >= 8.26e-3 && nm_epoch <= 9.24e-3 && common.ecco >= 0.5) {
    deep.irez = 2;
  }

  // ------------------------ do solar terms --------------------------------
  const double ses = s.ss1 * zns * s.ss5;
  const double sis = s.ss2 * zns * (s.sz11 + s.sz13);
  const double sls = -zns * s.ss3 * (s.sz1 + s.sz3 - 14.0 - 6.0 * s.emsq);
  const double sghs = s.ss4 * zns * (s.sz31 + s.sz33 - 6.0);
  double shs = -zns * s.ss2 * (s.sz21 + s.sz23);
  if (inclm < 5.2359877e-2 || inclm > kPi - 5.2359877e-2) shs = 0.0;
  if (s.sinim != 0.0) shs /= s.sinim;
  const double sgs = sghs - s.cosim * shs;

  // ------------------------- do lunar terms -------------------------------
  deep.dedt = ses + s.s1 * znl * s.s5;
  deep.didt = sis + s.s2 * znl * (s.z11 + s.z13);
  deep.dmdt = sls - znl * s.s3 * (s.z1 + s.z3 - 14.0 - 6.0 * s.emsq);
  const double sghl = s.s4 * znl * (s.z31 + s.z33 - 6.0);
  double shll = -znl * s.s2 * (s.z21 + s.z23);
  if (inclm < 5.2359877e-2 || inclm > kPi - 5.2359877e-2) shll = 0.0;
  deep.domdt = sgs + sghl;
  deep.dnodt = shs;
  if (s.sinim != 0.0) {
    deep.domdt -= s.cosim / s.sinim * shll;
    deep.dnodt += shll / s.sinim;
  }

  // At initialisation t = 0, so the secular updates (dedt*t etc.) vanish;
  // only theta is needed for the resonance phase angles below.
  const double theta = std::fmod(common.gsto + tc * rptim, kTwoPi);

  // -------------------- initialize the resonance terms --------------------
  if (deep.irez != 0) {
    const double aonv = std::pow(nm_epoch / orbit::wgs72().xke, kX2o3);

    // ------------- geopotential resonance for 12-hour orbits --------------
    if (deep.irez == 2) {
      const double cosisq = s.cosim * s.cosim;
      // The reference swaps in the *epoch* eccentricity for the g-table
      // evaluation; with tc = 0 the "current" values are already the epoch
      // ones, so use them directly instead of the save/restore dance.
      const double em = common.ecco;
      const double emsq = eccsq;
      const double eoc = em * emsq;
      const double g201 = -0.306 - (em - 0.64) * 0.440;

      double g211, g310, g322, g410, g422, g520, g521, g532, g533;
      if (em <= 0.65) {
        g211 = 3.616 - 13.2470 * em + 16.2900 * emsq;
        g310 = -19.302 + 117.3900 * em - 228.4190 * emsq + 156.5910 * eoc;
        g322 = -18.9068 + 109.7927 * em - 214.6334 * emsq + 146.5816 * eoc;
        g410 = -41.122 + 242.6940 * em - 471.0940 * emsq + 313.9530 * eoc;
        g422 = -146.407 + 841.8800 * em - 1629.014 * emsq + 1083.4350 * eoc;
        g520 = -532.114 + 3017.977 * em - 5740.032 * emsq + 3708.2760 * eoc;
      } else {
        g211 = -72.099 + 331.819 * em - 508.738 * emsq + 266.724 * eoc;
        g310 = -346.844 + 1582.851 * em - 2415.925 * emsq + 1246.113 * eoc;
        g322 = -342.585 + 1554.908 * em - 2366.899 * emsq + 1215.972 * eoc;
        g410 = -1052.797 + 4758.686 * em - 7193.992 * emsq + 3651.957 * eoc;
        g422 = -3581.690 + 16178.110 * em - 24462.770 * emsq + 12422.520 * eoc;
        if (em > 0.715) {
          g520 = -5149.66 + 29936.92 * em - 54087.36 * emsq + 31324.56 * eoc;
        } else {
          g520 = 1464.74 - 4664.75 * em + 3763.64 * emsq;
        }
      }
      if (em < 0.7) {
        g533 = -919.22770 + 4988.6100 * em - 9064.7700 * emsq + 5542.21 * eoc;
        g521 = -822.71072 + 4568.6173 * em - 8491.4146 * emsq + 4649.04 * eoc;
        g532 = -853.66600 + 4690.2500 * em - 8624.7700 * emsq + 5341.4 * eoc;
      } else {
        g533 = -37995.780 + 161616.52 * em - 229838.20 * emsq + 109377.94 * eoc;
        g521 = -51752.104 + 218913.95 * em - 309468.16 * emsq + 146349.42 * eoc;
        g532 = -40023.880 + 170470.89 * em - 242699.48 * emsq + 115605.82 * eoc;
      }

      const double sini2 = s.sinim * s.sinim;
      const double f220 = 0.75 * (1.0 + 2.0 * s.cosim + cosisq);
      const double f221 = 1.5 * sini2;
      const double f321 =
          1.875 * s.sinim * (1.0 - 2.0 * s.cosim - 3.0 * cosisq);
      const double f322 =
          -1.875 * s.sinim * (1.0 + 2.0 * s.cosim - 3.0 * cosisq);
      const double f441 = 35.0 * sini2 * f220;
      const double f442 = 39.3750 * sini2 * sini2;
      const double f522 =
          9.84375 * s.sinim *
          (sini2 * (1.0 - 2.0 * s.cosim - 5.0 * cosisq) +
           0.33333333 * (-2.0 + 4.0 * s.cosim + 6.0 * cosisq));
      const double f523 =
          s.sinim *
          (4.92187512 * sini2 * (-2.0 - 4.0 * s.cosim + 10.0 * cosisq) +
           6.56250012 * (1.0 + 2.0 * s.cosim - 3.0 * cosisq));
      const double f542 =
          29.53125 * s.sinim *
          (2.0 - 8.0 * s.cosim +
           cosisq * (-12.0 + 8.0 * s.cosim + 10.0 * cosisq));
      const double f543 =
          29.53125 * s.sinim *
          (-2.0 - 8.0 * s.cosim +
           cosisq * (12.0 + 8.0 * s.cosim - 10.0 * cosisq));

      const double xno2 = nm_epoch * nm_epoch;
      const double ainv2 = aonv * aonv;
      double temp1 = 3.0 * xno2 * ainv2;
      double temp = temp1 * root22;
      deep.d2201 = temp * f220 * g201;
      deep.d2211 = temp * f221 * g211;
      temp1 *= aonv;
      temp = temp1 * root32;
      deep.d3210 = temp * f321 * g310;
      deep.d3222 = temp * f322 * g322;
      temp1 *= aonv;
      temp = 2.0 * temp1 * root44;
      deep.d4410 = temp * f441 * g410;
      deep.d4422 = temp * f442 * g422;
      temp1 *= aonv;
      temp = temp1 * root52;
      deep.d5220 = temp * f522 * g520;
      deep.d5232 = temp * f523 * g532;
      temp = 2.0 * temp1 * root54;
      deep.d5421 = temp * f542 * g521;
      deep.d5433 = temp * f543 * g533;
      deep.xlamo = std::fmod(
          common.mo + common.nodeo + common.nodeo - theta - theta, kTwoPi);
      deep.xfact = common.mdot + deep.dmdt +
                   2.0 * (common.nodedot + deep.dnodt - rptim) - common.no;
    }

    // -------------------- synchronous resonance terms ---------------------
    if (deep.irez == 1) {
      const double g200 = 1.0 + s.emsq * (-2.5 + 0.8125 * s.emsq);
      const double g310 = 1.0 + 2.0 * s.emsq;
      const double g300 = 1.0 + s.emsq * (-6.0 + 6.60937 * s.emsq);
      const double f220 = 0.75 * (1.0 + s.cosim) * (1.0 + s.cosim);
      const double f311 = 0.9375 * s.sinim * s.sinim * (1.0 + 3.0 * s.cosim) -
                          0.75 * (1.0 + s.cosim);
      double f330 = 1.0 + s.cosim;
      f330 = 1.875 * f330 * f330 * f330;
      deep.del1 = 3.0 * nm_epoch * nm_epoch * aonv * aonv;
      deep.del2 = 2.0 * deep.del1 * f220 * g200 * q22;
      deep.del3 = 3.0 * deep.del1 * f330 * g300 * q33 * aonv;
      deep.del1 = deep.del1 * f311 * g310 * q31 * aonv;
      deep.xlamo =
          std::fmod(common.mo + common.nodeo + common.argpo - theta, kTwoPi);
      deep.xfact = common.mdot + xpidot - rptim + deep.dmdt + deep.domdt +
                   deep.dnodt - common.no;
    }
  }
}

// ---------------------------------------------------------------------------
// dspace: deep-space secular effects and resonance integration at time t.
// ---------------------------------------------------------------------------
void dspace(const CommonConstants& common, const DeepSpaceConstants& deep,
            double t, double tc, ResonanceState& rs, double& em, double& argpm,
            double& inclm, double& mm, double& nodem, double& nm) noexcept {
  constexpr double fasx2 = 0.13130908;
  constexpr double fasx4 = 2.8843198;
  constexpr double fasx6 = 0.37448087;
  constexpr double g22 = 5.7686396;
  constexpr double g32 = 0.95240898;
  constexpr double g44 = 1.8014998;
  constexpr double g52 = 1.0508330;
  constexpr double g54 = 4.4108898;
  constexpr double rptim = 4.37526908801129966e-3;
  constexpr double stepp = 720.0;
  constexpr double stepn = -720.0;
  constexpr double step2 = 259200.0;

  // ----------- calculate deep space resonance effects -----------
  const double theta = std::fmod(common.gsto + tc * rptim, kTwoPi);
  em += deep.dedt * t;
  inclm += deep.didt * t;
  argpm += deep.domdt * t;
  nodem += deep.dnodt * t;
  mm += deep.dmdt * t;

  // - update resonances: numerical (euler-maclaurin) integration -
  double ft = 0.0;
  if (deep.irez != 0) {
    // The memo is valid only when it holds a prefix of this integration:
    // same sign and |atime| <= |t|.  Anything else — a cold state, a sign
    // crossing, or a cached time past the target — restarts from t = 0.
    // Because the recurrence below is a pure function of (atime, xli, xni)
    // and the init-once constants, resuming from a valid prefix reproduces
    // the restart-from-scratch values bit for bit; epoch visit order can
    // never leak into the output (DESIGN.md §16).
    if (rs.atime == 0.0 || t * rs.atime <= 0.0 ||
        std::fabs(t) < std::fabs(rs.atime)) {
      rs.atime = 0.0;
      rs.xni = common.no;
      rs.xli = deep.xlamo;
    }
    const double delt = (t > 0.0) ? stepp : stepn;

    double xndt = 0.0;
    double xldot = 0.0;
    double xnddt = 0.0;
    bool integrating = true;
    while (integrating) {
      // ------------------- dot terms calculated -------------
      if (deep.irez != 2) {
        // near-synchronous resonance terms
        xndt = deep.del1 * std::sin(rs.xli - fasx2) +
               deep.del2 * std::sin(2.0 * (rs.xli - fasx4)) +
               deep.del3 * std::sin(3.0 * (rs.xli - fasx6));
        xldot = rs.xni + deep.xfact;
        xnddt = deep.del1 * std::cos(rs.xli - fasx2) +
                2.0 * deep.del2 * std::cos(2.0 * (rs.xli - fasx4)) +
                3.0 * deep.del3 * std::cos(3.0 * (rs.xli - fasx6));
        xnddt *= xldot;
      } else {
        // near half-day resonance terms
        const double xomi = common.argpo + common.argpdot * rs.atime;
        const double x2omi = xomi + xomi;
        const double x2li = rs.xli + rs.xli;
        xndt = deep.d2201 * std::sin(x2omi + rs.xli - g22) +
               deep.d2211 * std::sin(rs.xli - g22) +
               deep.d3210 * std::sin(xomi + rs.xli - g32) +
               deep.d3222 * std::sin(-xomi + rs.xli - g32) +
               deep.d4410 * std::sin(x2omi + x2li - g44) +
               deep.d4422 * std::sin(x2li - g44) +
               deep.d5220 * std::sin(xomi + rs.xli - g52) +
               deep.d5232 * std::sin(-xomi + rs.xli - g52) +
               deep.d5421 * std::sin(xomi + x2li - g54) +
               deep.d5433 * std::sin(-xomi + x2li - g54);
        xldot = rs.xni + deep.xfact;
        xnddt = deep.d2201 * std::cos(x2omi + rs.xli - g22) +
                deep.d2211 * std::cos(rs.xli - g22) +
                deep.d3210 * std::cos(xomi + rs.xli - g32) +
                deep.d3222 * std::cos(-xomi + rs.xli - g32) +
                deep.d5220 * std::cos(xomi + rs.xli - g52) +
                deep.d5232 * std::cos(-xomi + rs.xli - g52) +
                2.0 * (deep.d4410 * std::cos(x2omi + x2li - g44) +
                       deep.d4422 * std::cos(x2li - g44) +
                       deep.d5421 * std::cos(xomi + x2li - g54) +
                       deep.d5433 * std::cos(-xomi + x2li - g54));
        xnddt *= xldot;
      }

      // ----------------------- integrator -------------------
      if (std::fabs(t - rs.atime) >= stepp) {
        integrating = true;
      } else {
        ft = t - rs.atime;
        integrating = false;
      }
      if (integrating) {
        rs.xli += xldot * delt + xndt * step2;
        rs.xni += xndt * delt + xnddt * step2;
        rs.atime += delt;
      }
    }

    nm = rs.xni + xndt * ft + xnddt * ft * ft * 0.5;
    const double xl = rs.xli + xldot * ft + xndt * ft * ft * 0.5;
    double dndt = 0.0;
    if (deep.irez != 1) {
      mm = xl - 2.0 * nodem + 2.0 * theta;
      dndt = nm - common.no;
    } else {
      mm = xl - nodem - argpm + theta;
      dndt = nm - common.no;
    }
    nm = common.no + dndt;
  }
}

}  // namespace

std::string to_string(Sgp4Status status) {
  switch (status) {
    case Sgp4Status::kOk:
      return "ok";
    case Sgp4Status::kEccentricityOutOfRange:
      return "mean eccentricity out of range";
    case Sgp4Status::kMeanMotionNonPositive:
      return "mean motion non-positive";
    case Sgp4Status::kPerturbedEccentricityOutOfRange:
      return "perturbed eccentricity out of range";
    case Sgp4Status::kSemiLatusRectumNegative:
      return "semi-latus rectum negative";
    case Sgp4Status::kDecayed:
      return "satellite decayed (radius below Earth surface)";
    case Sgp4Status::kKeplerNotConverged:
      return "Kepler's equation did not converge (near-parabolic elements)";
  }
  return "unknown status";
}

namespace detail {

Sgp4Status solve_kepler(double u, double axnl, double aynl, double& eo1,
                        double& sineo1, double& coseo1) noexcept {
  eo1 = u;
  double tem5 = 9999.9;
  sineo1 = 0.0;
  coseo1 = 0.0;
  // Newton iteration with the reference's 0.95-rad step clamp and 10-step
  // bound.  For every orbit the theory is valid for, it converges in a
  // handful of steps; near-parabolic elements (|(axnl,aynl)| -> 1) can
  // cycle on the clamp forever, so the bound plus the residual check below
  // turn "loop luck" into a defined status.
  int ktr = 1;
  while (std::fabs(tem5) >= 1.0e-12 && ktr <= 10) {
    sineo1 = std::sin(eo1);
    coseo1 = std::cos(eo1);
    tem5 = 1.0 - coseo1 * axnl - sineo1 * aynl;
    tem5 = (u - aynl * coseo1 + axnl * sineo1 - eo1) / tem5;
    if (std::fabs(tem5) >= 0.95) tem5 = tem5 > 0.0 ? 0.95 : -0.95;
    eo1 += tem5;
    ++ktr;
  }
  // Anything still correcting by >= 1e-8 rad after the bound is diverging,
  // not refining: report it instead of emitting a garbage state.
  if (std::fabs(tem5) >= 1.0e-8) return Sgp4Status::kKeplerNotConverged;
  return Sgp4Status::kOk;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// propagate: the propagation kernel (Vallado's sgp4()).
// ---------------------------------------------------------------------------
Sgp4Status propagate(const CommonConstants& common,
                     const NearSpaceConstants& near_space,
                     const DeepSpaceConstants& deep, double tsince_minutes,
                     orbit::StateVector& out, ResonanceState* resume) noexcept {
  const orbit::GravityModel gravity = orbit::wgs72();
  const double temp4 = 1.5e-12;
  const double xke = gravity.xke;
  const double j2 = gravity.j2;
  const double j3oj2 = gravity.j3oj2;
  const double radiusearthkm = gravity.radius_earth_km;
  const double vkmpersec = radiusearthkm * xke / 60.0;

  const double t = tsince_minutes;

  // ------- update for secular gravity and atmospheric drag -----
  const double xmdf = common.mo + common.mdot * t;
  const double argpdf = common.argpo + common.argpdot * t;
  const double nodedf = common.nodeo + common.nodedot * t;
  double argpm = argpdf;
  double mm = xmdf;
  const double t2 = t * t;
  double nodem = nodedf + common.nodecf * t2;
  double tempa = 1.0 - common.cc1 * t;
  double tempe = common.bstar * common.cc4 * t;
  double templ = common.t2cof * t2;

  if (!common.simple_drag) {
    const double delomg = common.omgcof * t;
    const double delmtemp = 1.0 + common.eta * std::cos(xmdf);
    const double delm =
        common.xmcof * (delmtemp * delmtemp * delmtemp - common.delmo);
    const double temp = delomg + delm;
    mm = xmdf + temp;
    argpm = argpdf - temp;
    const double t3 = t2 * t;
    const double t4 = t3 * t;
    tempa = tempa - near_space.d2 * t2 - near_space.d3 * t3 - near_space.d4 * t4;
    tempe = tempe + common.bstar * common.cc5 * (std::sin(mm) - common.sinmao);
    templ = templ + near_space.t3cof * t3 +
            t4 * (near_space.t4cof + t * near_space.t5cof);
  }

  double nm = common.no;
  double em = common.ecco;
  double inclm = common.inclo;
  if (common.deep_space) {
    ResonanceState local;  // cold start when the caller keeps no memo
    ResonanceState& rs = resume != nullptr ? *resume : local;
    const double tc = t;
    dspace(common, deep, t, tc, rs, em, argpm, inclm, mm, nodem, nm);
  }

  if (nm <= 0.0) return Sgp4Status::kMeanMotionNonPositive;

  const double am = std::pow(xke / nm, kX2o3) * tempa * tempa;
  nm = xke / std::pow(am, 1.5);
  em -= tempe;

  if (em >= 1.0 || em < -0.001) return Sgp4Status::kEccentricityOutOfRange;
  if (em < 1.0e-6) em = 1.0e-6;

  mm += common.no * templ;
  double xlm = mm + argpm + nodem;

  nodem = std::fmod(nodem, kTwoPi);
  if (nodem < 0.0) nodem += kTwoPi;
  argpm = std::fmod(argpm, kTwoPi);
  xlm = std::fmod(xlm, kTwoPi);
  mm = std::fmod(xlm - argpm - nodem, kTwoPi);

  // ----------------- compute extra mean quantities -------------
  const double sinim = std::sin(inclm);
  const double cosim = std::cos(inclm);

  // -------------------- add lunar-solar periodics --------------
  double ep = em;
  double xincp = inclm;
  double argpp = argpm;
  double nodep = nodem;
  double mp = mm;
  double sinip = sinim;
  double cosip = cosim;
  double aycof = common.aycof;
  double xlcof = common.xlcof;
  double con41 = common.con41;
  double x1mth2 = common.x1mth2;
  double x7thm1 = common.x7thm1;

  if (common.deep_space) {
    dpper(deep, t, /*init_phase=*/false, ep, xincp, nodep, argpp, mp);
    if (xincp < 0.0) {
      xincp = -xincp;
      nodep += kPi;
      argpp -= kPi;
    }
    if (ep < 0.0 || ep > 1.0) {
      return Sgp4Status::kPerturbedEccentricityOutOfRange;
    }
    // ------------ update the long-period coefficients -----------
    sinip = std::sin(xincp);
    cosip = std::cos(xincp);
    aycof = -0.5 * j3oj2 * sinip;
    if (std::fabs(cosip + 1.0) > 1.5e-12) {
      xlcof = -0.25 * j3oj2 * sinip * (3.0 + 5.0 * cosip) / (1.0 + cosip);
    } else {
      xlcof = -0.25 * j3oj2 * sinip * (3.0 + 5.0 * cosip) / temp4;
    }
  }

  // --------------------- long period periodics -----------------
  const double axnl = ep * std::cos(argpp);
  double temp = 1.0 / (am * (1.0 - ep * ep));
  const double aynl = ep * std::sin(argpp) + temp * aycof;
  const double xl = mp + argpp + nodep + temp * xlcof * axnl;

  // ------------------------ solve kepler's equation ------------
  const double u = std::fmod(xl - nodep, kTwoPi);
  double eo1 = 0.0;
  double sineo1 = 0.0;
  double coseo1 = 0.0;
  const Sgp4Status kepler = detail::solve_kepler(u, axnl, aynl, eo1, sineo1,
                                                 coseo1);
  if (kepler != Sgp4Status::kOk) return kepler;

  // ------------- short period preliminary quantities -----------
  const double ecose = axnl * coseo1 + aynl * sineo1;
  const double esine = axnl * sineo1 - aynl * coseo1;
  const double el2 = axnl * axnl + aynl * aynl;
  const double pl = am * (1.0 - el2);
  if (pl < 0.0) return Sgp4Status::kSemiLatusRectumNegative;

  const double rl = am * (1.0 - ecose);
  const double rdotl = std::sqrt(am) * esine / rl;
  const double rvdotl = std::sqrt(pl) / rl;
  const double betal = std::sqrt(1.0 - el2);
  temp = esine / (1.0 + betal);
  const double sinu = am / rl * (sineo1 - aynl - axnl * temp);
  const double cosu = am / rl * (coseo1 - axnl + aynl * temp);
  double su = std::atan2(sinu, cosu);
  const double sin2u = (cosu + cosu) * sinu;
  const double cos2u = 1.0 - 2.0 * sinu * sinu;
  temp = 1.0 / pl;
  const double temp1 = 0.5 * j2 * temp;
  const double temp2 = temp1 * temp;

  // -------------- update for short period periodics ------------
  if (common.deep_space) {
    const double cosisq = cosip * cosip;
    con41 = 3.0 * cosisq - 1.0;
    x1mth2 = 1.0 - cosisq;
    x7thm1 = 7.0 * cosisq - 1.0;
  }
  const double mrt =
      rl * (1.0 - 1.5 * temp2 * betal * con41) + 0.5 * temp1 * x1mth2 * cos2u;
  su -= 0.25 * temp2 * x7thm1 * sin2u;
  const double xnode = nodep + 1.5 * temp2 * cosip * sin2u;
  const double xinc = xincp + 1.5 * temp2 * cosip * sinip * cos2u;
  const double mvt = rdotl - nm * temp1 * x1mth2 * sin2u / xke;
  const double rvdot =
      rvdotl + nm * temp1 * (x1mth2 * cos2u + 1.5 * con41) / xke;

  // --------------------- orientation vectors -------------------
  const double sinsu = std::sin(su);
  const double cossu = std::cos(su);
  const double snod = std::sin(xnode);
  const double cnod = std::cos(xnode);
  const double sini = std::sin(xinc);
  const double cosi = std::cos(xinc);
  const double xmx = -snod * cosi;
  const double xmy = cnod * cosi;
  const double ux = xmx * sinsu + cnod * cossu;
  const double uy = xmy * sinsu + snod * cossu;
  const double uz = sini * sinsu;
  const double vx = xmx * cossu - cnod * sinsu;
  const double vy = xmy * cossu - snod * sinsu;
  const double vz = sini * cossu;

  // ------------------- position and velocity (km, km/s) --------
  out.position_km = {mrt * ux * radiusearthkm, mrt * uy * radiusearthkm,
                     mrt * uz * radiusearthkm};
  out.velocity_kms = {(mvt * ux + rvdot * vx) * vkmpersec,
                      (mvt * uy + rvdot * vy) * vkmpersec,
                      (mvt * uz + rvdot * vz) * vkmpersec};

  if (mrt < 1.0) return Sgp4Status::kDecayed;
  return Sgp4Status::kOk;
}

Sgp4Status propagate(const Sgp4Constants& constants, double tsince_minutes,
                     orbit::StateVector& out, ResonanceState* resume) noexcept {
  return propagate(constants.common, constants.near_space, constants.deep,
                   tsince_minutes, out, resume);
}

// ---------------------------------------------------------------------------
// init_constants: the element recovery (Vallado's sgp4init).
// ---------------------------------------------------------------------------
Sgp4Constants init_constants(const tle::Tle& tle) {
  tle.validate();

  const orbit::GravityModel gravity = orbit::wgs72();
  Sgp4Constants k;
  CommonConstants& c = k.common;
  c.catalog_number = tle.catalog_number;
  c.epoch_jd = tle.epoch_jd;
  c.epoch1950 = c.epoch_jd - kJd1950;

  c.bstar = tle.bstar;
  c.ecco = tle.eccentricity;
  c.inclo = units::deg2rad(tle.inclination_deg);
  c.nodeo = units::deg2rad(tle.raan_deg);
  c.argpo = units::deg2rad(tle.arg_perigee_deg);
  c.mo = units::deg2rad(tle.mean_anomaly_deg);
  c.no = tle.mean_motion_revday * kTwoPi / units::kMinutesPerDay;  // rad/min

  const double j2 = gravity.j2;
  const double j4 = gravity.j4;
  const double j3oj2 = gravity.j3oj2;
  const double xke = gravity.xke;
  const double radiusearthkm = gravity.radius_earth_km;
  const double temp4 = 1.5e-12;

  const double ss = 78.0 / radiusearthkm + 1.0;
  const double qzms2t = std::pow((120.0 - 78.0) / radiusearthkm, 4.0);

  // ---------------------- initl: recover original mean motion -------------
  const double eccsq = c.ecco * c.ecco;
  const double omeosq = 1.0 - eccsq;
  const double rteosq = std::sqrt(omeosq);
  const double cosio = std::cos(c.inclo);
  const double cosio2 = cosio * cosio;

  const double ak = std::pow(xke / c.no, kX2o3);
  const double d1 = 0.75 * j2 * (3.0 * cosio2 - 1.0) / (rteosq * omeosq);
  double del = d1 / (ak * ak);
  const double adel =
      ak * (1.0 - del * del - del * (1.0 / 3.0 + 134.0 * del * del / 81.0));
  del = d1 / (adel * adel);
  c.no = c.no / (1.0 + del);  // un-Kozai the mean motion

  const double ao = std::pow(xke / c.no, kX2o3);
  const double sinio = std::sin(c.inclo);
  const double po = ao * omeosq;
  const double con42 = 1.0 - 5.0 * cosio2;
  c.con41 = -con42 - cosio2 - cosio2;
  const double posq = po * po;
  const double rp = ao * (1.0 - c.ecco);
  c.gsto = timeutil::gmst_radians(c.epoch_jd);
  c.recovered_a_earth_radii = ao;

  if (rp < 1.0) {
    throw PropagationError("element set has epoch perigee below Earth surface"
                           " (catalog " + std::to_string(c.catalog_number) +
                           ")");
  }

  // ------------------------- near-earth constants -------------------------
  c.simple_drag = rp < 220.0 / radiusearthkm + 1.0;
  double sfour = ss;
  double qzms24 = qzms2t;
  const double perige = (rp - 1.0) * radiusearthkm;
  if (perige < 156.0) {
    sfour = perige - 78.0;
    if (perige < 98.0) sfour = 20.0;
    qzms24 = std::pow((120.0 - sfour) / radiusearthkm, 4.0);
    sfour = sfour / radiusearthkm + 1.0;
  }
  const double pinvsq = 1.0 / posq;

  const double tsi = 1.0 / (ao - sfour);
  c.eta = ao * c.ecco * tsi;
  const double etasq = c.eta * c.eta;
  const double eeta = c.ecco * c.eta;
  const double psisq = std::fabs(1.0 - etasq);
  const double coef = qzms24 * std::pow(tsi, 4.0);
  const double coef1 = coef / std::pow(psisq, 3.5);
  const double cc2 =
      coef1 * c.no *
      (ao * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq)) +
       0.375 * j2 * tsi / psisq * c.con41 *
           (8.0 + 3.0 * etasq * (8.0 + etasq)));
  c.cc1 = c.bstar * cc2;
  double cc3 = 0.0;
  if (c.ecco > 1.0e-4) cc3 = -2.0 * coef * tsi * j3oj2 * c.no * sinio / c.ecco;
  c.x1mth2 = 1.0 - cosio2;
  c.cc4 = 2.0 * c.no * coef1 * ao * omeosq *
          (c.eta * (2.0 + 0.5 * etasq) + c.ecco * (0.5 + 2.0 * etasq) -
           j2 * tsi / (ao * psisq) *
               (-3.0 * c.con41 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta)) +
                0.75 * c.x1mth2 * (2.0 * etasq - eeta * (1.0 + etasq)) *
                    std::cos(2.0 * c.argpo)));
  c.cc5 = 2.0 * coef1 * ao * omeosq *
          (1.0 + 2.75 * (etasq + eeta) + eeta * etasq);

  const double cosio4 = cosio2 * cosio2;
  const double temp1 = 1.5 * j2 * pinvsq * c.no;
  const double temp2 = 0.5 * temp1 * j2 * pinvsq;
  const double temp3 = -0.46875 * j4 * pinvsq * pinvsq * c.no;
  c.mdot = c.no + 0.5 * temp1 * rteosq * c.con41 +
           0.0625 * temp2 * rteosq * (13.0 - 78.0 * cosio2 + 137.0 * cosio4);
  c.argpdot = -0.5 * temp1 * con42 +
              0.0625 * temp2 * (7.0 - 114.0 * cosio2 + 395.0 * cosio4) +
              temp3 * (3.0 - 36.0 * cosio2 + 49.0 * cosio4);
  const double xhdot1 = -temp1 * cosio;
  c.nodedot = xhdot1 + (0.5 * temp2 * (4.0 - 19.0 * cosio2) +
                        2.0 * temp3 * (3.0 - 7.0 * cosio2)) *
                           cosio;
  const double xpidot = c.argpdot + c.nodedot;
  c.omgcof = c.bstar * cc3 * std::cos(c.argpo);
  c.xmcof = 0.0;
  if (c.ecco > 1.0e-4) c.xmcof = -kX2o3 * coef * c.bstar / eeta;
  c.nodecf = 3.5 * omeosq * xhdot1 * c.cc1;
  c.t2cof = 1.5 * c.cc1;
  if (std::fabs(cosio + 1.0) > 1.5e-12) {
    c.xlcof = -0.25 * j3oj2 * sinio * (3.0 + 5.0 * cosio) / (1.0 + cosio);
  } else {
    c.xlcof = -0.25 * j3oj2 * sinio * (3.0 + 5.0 * cosio) / temp4;
  }
  c.aycof = -0.5 * j3oj2 * sinio;
  c.delmo = std::pow(1.0 + c.eta * std::cos(c.mo), 3.0);
  c.sinmao = std::sin(c.mo);
  c.x7thm1 = 7.0 * cosio2 - 1.0;

  // --------------------- deep space initialization ------------------------
  if (kTwoPi / c.no >= 225.0) {
    c.deep_space = true;
    c.simple_drag = true;
    const double tc = 0.0;
    const double inclm = c.inclo;

    DscomScratch scratch;
    dscom(c.epoch1950, c.ecco, c.argpo, tc, c.inclo, c.nodeo, c.no, scratch,
          k.deep);
    // The init-phase dpper call applies nothing (reference behaviour); the
    // stored long-period offsets peo..pho stay zero.
    double ep = c.ecco;
    double inclp = c.inclo;
    double nodep = c.nodeo;
    double argpp = c.argpo;
    double mp = c.mo;
    dpper(k.deep, 0.0, /*init_phase=*/true, ep, inclp, nodep, argpp, mp);

    dsinit(scratch, tc, xpidot, eccsq, inclm, c, k.deep);
  }

  // ------------------------ higher-order drag terms -----------------------
  if (!c.simple_drag) {
    NearSpaceConstants& n = k.near_space;
    const double cc1sq = c.cc1 * c.cc1;
    n.d2 = 4.0 * ao * tsi * cc1sq;
    const double temp = n.d2 * tsi * c.cc1 / 3.0;
    n.d3 = (17.0 * ao + sfour) * temp;
    n.d4 = 0.5 * temp * ao * tsi * (221.0 * ao + 31.0 * sfour) * c.cc1;
    n.t3cof = n.d2 + 2.0 * cc1sq;
    n.t4cof = 0.25 * (3.0 * n.d3 + c.cc1 * (12.0 * n.d2 + 10.0 * cc1sq));
    n.t5cof = 0.2 * (3.0 * n.d4 + 12.0 * c.cc1 * n.d3 + 6.0 * n.d2 * n.d2 +
                     15.0 * cc1sq * (2.0 * n.d2 + cc1sq));
  }

  // Exercise the model once at epoch so bad element sets fail fast.
  orbit::StateVector probe;
  const Sgp4Status status = propagate(k, 0.0, probe);
  if (status != Sgp4Status::kOk) {
    throw PropagationError("sgp4 init failed for catalog " +
                           std::to_string(c.catalog_number) + ": " +
                           to_string(status));
  }
  return k;
}

// ---------------------------------------------------------------------------
// Sgp4Propagator: thin owner of one init-once constant set.
// ---------------------------------------------------------------------------
Sgp4Propagator::Sgp4Propagator(const tle::Tle& tle)
    : k_(init_constants(tle)) {}

double Sgp4Propagator::recovered_semi_major_axis_km() const noexcept {
  return k_.common.recovered_a_earth_radii * orbit::wgs72().radius_earth_km;
}

double Sgp4Propagator::recovered_altitude_km() const noexcept {
  return recovered_semi_major_axis_km() - orbit::wgs72().radius_earth_km;
}

orbit::StateVector Sgp4Propagator::propagate_minutes(double tsince_minutes) const {
  orbit::StateVector out;
  const Sgp4Status status = try_propagate_minutes(tsince_minutes, out);
  if (status != Sgp4Status::kOk) {
    throw PropagationError("sgp4 failed for catalog " +
                           std::to_string(k_.common.catalog_number) +
                           " at tsince " + std::to_string(tsince_minutes) +
                           " min: " + to_string(status));
  }
  return out;
}

orbit::StateVector Sgp4Propagator::propagate_jd(double jd) const {
  return propagate_minutes((jd - k_.common.epoch_jd) * units::kMinutesPerDay);
}

Sgp4Status Sgp4Propagator::try_propagate_minutes(
    double tsince_minutes, orbit::StateVector& out,
    ResonanceState* resume) const noexcept {
  return propagate(k_, tsince_minutes, out, resume);
}

}  // namespace cosmicdance::sgp4
