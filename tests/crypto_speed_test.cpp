// Speed sanity gate: a regression that silently drops ec_mul back onto the
// naive ladder (or wrecks the wNAF engine's constant factor) fails fast in
// CI. Only asserts in optimized, unsanitized builds; skipped under Debug,
// TSan, or a time-scaled environment (DDEMOS_TEST_TIME_SCALE is set by the
// sanitizer CI jobs), where timing ratios are meaningless.
#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "crypto/ec.hpp"
#include "crypto/rng.hpp"
#include "crypto/zkp.hpp"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define DDEMOS_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define DDEMOS_SANITIZED_BUILD 1
#endif
#endif
#ifndef DDEMOS_SANITIZED_BUILD
#define DDEMOS_SANITIZED_BUILD 0
#endif

namespace ddemos::crypto {
namespace {

bool skip_reason(const char** why) {
#ifndef NDEBUG
  *why = "unoptimized (Debug) build";
  return true;
#else
  if (DDEMOS_SANITIZED_BUILD) {
    *why = "sanitizer build";
    return true;
  }
  if (std::getenv("DDEMOS_TEST_TIME_SCALE") != nullptr) {
    *why = "time-scaled environment (sanitizer CI)";
    return true;
  }
  return false;
#endif
}

// CPU time consumed by the calling thread, in nanoseconds. The timed
// kernels are single-threaded, so this is their cost without the time
// the thread spent preempted (ctest -j runs other suites alongside).
double thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// Best-of-9 thread CPU time per op for `iters` evaluations of each of
// `fast` and `slow`. Passes alternate between the two, so both sides see
// the same background load (shared-cache pressure from suites running
// alongside varies over a run); returns {fast ns/op, slow ns/op}.
template <typename F, typename S>
std::pair<double, double> best_ns_per_op(int iters, F&& fast, S&& slow) {
  auto ns_per_op = [iters](auto& fn) {
    double t0 = thread_cpu_ns();
    for (int i = 0; i < iters; ++i) fn(i);
    return (thread_cpu_ns() - t0) / iters;
  };
  std::pair<double, double> best{1e18, 1e18};
  for (int pass = 0; pass < 9; ++pass) {
    best.first = std::min(best.first, ns_per_op(fast));
    best.second = std::min(best.second, ns_per_op(slow));
  }
  return best;
}

TEST(CryptoSpeed, WnafGlvMulBeatsNaiveLadderTwofold) {
  const char* why = nullptr;
  if (skip_reason(&why)) GTEST_SKIP() << "speed gate skipped: " << why;

  Rng rng(991);
  Point p = ec_mul_g(random_scalar(rng));
  constexpr int kIters = 40;
  std::vector<Fn> ks;
  for (int i = 0; i < kIters; ++i) ks.push_back(random_scalar(rng));

  // Warm up both paths (and the engine's static tables) while checking
  // agreement, so the timed loops measure steady-state arithmetic only.
  Point fast_last = Point::infinity();
  Point naive_last = Point::infinity();
  ASSERT_TRUE(ec_eq(ec_mul(ks[0], p), ec_mul_naive(ks[0], p)));

  auto [fast_ns, naive_ns] = best_ns_per_op(
      kIters,
      [&](int i) { fast_last = ec_mul(ks[static_cast<std::size_t>(i)], p); },
      [&](int i) {
        naive_last = ec_mul_naive(ks[static_cast<std::size_t>(i)], p);
      });
  ASSERT_TRUE(ec_eq(fast_last, naive_last));  // same final scalar, same point

  double ratio = naive_ns / fast_ns;
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\",\"name\":\"ec_mul\","
      "\"ns_per_op\":%.1f}\n",
      fast_ns);
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\",\"name\":\"ec_mul_naive\","
      "\"ns_per_op\":%.1f}\n",
      naive_ns);
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\",\"name\":\"ec_mul_speedup\","
      "\"ratio\":%.2f}\n",
      ratio);
  EXPECT_GE(ratio, 2.0) << "wNAF/GLV ec_mul regressed to within 2x of the "
                           "naive double-and-add ladder";
}

TEST(CryptoSpeed, MsmAutoBeatsStraussAtAuditScale) {
  const char* why = nullptr;
  if (skip_reason(&why)) GTEST_SKIP() << "speed gate skipped: " << why;

  // At n = 1024 (the working set of one chunked-batch audit MSM) the auto
  // front door must route to Pippenger and clearly beat Strauss. The 1.5x
  // floor sits well under the ~1.8x measured on the calibration box, so
  // the gate trips on a broken dispatch (crossover regressed above 1024)
  // or a wrecked bucket engine, not on machine-to-machine noise.
  Rng rng(993);
  constexpr std::size_t kN = 1024;
  std::vector<Fn> ks;
  std::vector<Point> ps;
  for (std::size_t i = 0; i < kN; ++i) {
    ks.push_back(random_scalar(rng));
    ps.push_back(ec_mul_g(random_scalar(rng)));
  }
  ASSERT_TRUE(ec_eq(ec_msm(ks, ps), ec_msm_strauss(ks, ps)));

  Point auto_last = Point::infinity();
  Point strauss_last = Point::infinity();
  auto [auto_ns, strauss_ns] = best_ns_per_op(
      3, [&](int) { auto_last = ec_msm(ks, ps); },
      [&](int) { strauss_last = ec_msm_strauss(ks, ps); });
  ASSERT_TRUE(ec_eq(auto_last, strauss_last));

  double ratio = strauss_ns / auto_ns;
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\",\"name\":\"ec_msm_1024\","
      "\"ns_per_op\":%.1f}\n",
      auto_ns);
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\","
      "\"name\":\"ec_msm_strauss_1024\",\"ns_per_op\":%.1f}\n",
      strauss_ns);
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\",\"name\":\"ec_msm_speedup\","
      "\"ratio\":%.2f}\n",
      ratio);
  EXPECT_GE(ratio, 1.5) << "ec_msm auto-select no longer beats Strauss at "
                           "n=1024; Pippenger dispatch or bucket engine "
                           "regressed";
}

TEST(CryptoSpeed, BitProofVerifySpeedupReported) {
  const char* why = nullptr;
  if (skip_reason(&why)) GTEST_SKIP() << "speed gate skipped: " << why;

  Rng rng(992);
  Point key = ec_mul_g(random_scalar(rng));
  Fn r = random_scalar(rng);
  ElGamalCipher c = eg_commit(key, Fn::one(), r);
  BitProof p = prove_bit(key, c, true, r, rng);
  Fn ch = random_scalar(rng);
  BitProofResponse resp = p.secrets.at(ch);
  ASSERT_TRUE(verify_bit(key, c, p.first_move, ch, resp));

  bool sink = false;
  auto [fast_ns, naive_ns] = best_ns_per_op(
      20, [&](int) { sink ^= verify_bit(key, c, p.first_move, ch, resp); },
      [&](int) { sink ^= verify_bit_naive(key, c, p.first_move, ch, resp); });
  ASSERT_FALSE(!sink && sink);  // keep `sink` alive
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\",\"name\":\"bit_proof_verify\","
      "\"ns_per_op\":%.1f}\n",
      fast_ns);
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\","
      "\"name\":\"bit_proof_verify_naive\",\"ns_per_op\":%.1f}\n",
      naive_ns);
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\","
      "\"name\":\"bit_proof_verify_speedup\",\"ratio\":%.2f}\n",
      naive_ns / fast_ns);
  // The hard gate lives on ec_mul above; the verifier ratio is tracked in
  // the bench artifact (target >= 1.8x, see EXPERIMENTS.md).
  EXPECT_GE(naive_ns / fast_ns, 1.2);
}

}  // namespace
}  // namespace ddemos::crypto
