// Crypto kernel panel for the crypto.* per-layer metrics: fixed inputs,
// handler-thread CPU time, best of N rounds, run inside the benchmark
// process so the figures share its build and host stamp.
#include "workloads.hpp"

#include <algorithm>
#include <limits>

#include "core/messages.hpp"
#include "crypto/ec.hpp"
#include "crypto/pedersen.hpp"
#include "crypto/rng.hpp"
#include "crypto/schnorr.hpp"

namespace perfbench {

using namespace ddemos;

namespace {

volatile bool g_sink = false;  // keeps results observable to the compiler

// Thread-CPU microseconds per call: best round of `rounds`, each round
// `calls` calls.
template <typename Fn>
double best_of(std::size_t rounds, std::size_t calls, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::int64_t t0 = thread_cpu_ns();
    for (std::size_t i = 0; i < calls; ++i) fn();
    best = std::min(best, static_cast<double>(thread_cpu_ns() - t0) / 1e3 /
                              static_cast<double>(calls));
  }
  return best;
}

}  // namespace

void crypto_panel(Result& out) {
  crypto::Rng rng(0xc0ffee);
  const Bytes msg = to_bytes("perfbench fixed message");

  std::vector<crypto::KeyPair> keys;
  for (int i = 0; i < 4; ++i) keys.push_back(crypto::schnorr_keygen(rng));
  const Bytes sig = crypto::schnorr_sign(keys[0].sk, msg);

  out.metric("crypto.schnorr_sign_us", best_of(9, 40, [&] {
               g_sink = crypto::schnorr_sign(keys[0].sk, msg).size() > 0;
             }),
             "us");
  out.metric("crypto.schnorr_verify_us", best_of(9, 40, [&] {
               g_sink = crypto::schnorr_verify(keys[0].pk, msg, sig);
             }),
             "us");

  // A threshold certificate as the VCs form it: Nv - fv = 3 of 4 keys.
  const Bytes eid = to_bytes("perfbench");
  const core::Serial serial = 12345;
  core::Ucert cert;
  cert.vote_code = rng.bytes(20);
  const Bytes digest = core::endorsement_digest(eid, serial, cert.vote_code);
  std::vector<Bytes> pks;
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    pks.push_back(keys[i].pk);
    if (i < 3) {
      cert.signatures.emplace_back(i, crypto::schnorr_sign(keys[i].sk, digest));
    }
  }
  out.metric("crypto.ucert_valid_us", best_of(9, 15, [&] {
               g_sink = cert.valid(eid, serial, pks, 3);
             }),
             "us");

  // A trustee share under the tally election's threshold (ht = 2 of 3).
  crypto::PedersenDeal deal =
      crypto::pedersen_vss_deal(crypto::random_scalar(rng), 2, 3, rng);
  out.metric("crypto.vss_verify_us", best_of(9, 40, [&] {
               g_sink = crypto::pedersen_vss_verify(deal.shares[1],
                                                    deal.coefficient_comms);
             }),
             "us");

  std::vector<crypto::Fn> ks;
  std::vector<crypto::Point> ps;
  for (int i = 0; i < 1024; ++i) {
    ks.push_back(crypto::random_scalar(rng));
    ps.push_back(crypto::ec_mul_g(crypto::random_scalar(rng)));
  }
  out.metric("crypto.msm_1024_us", best_of(7, 2, [&] {
               g_sink = crypto::ec_encode(crypto::ec_msm(ks, ps)).size() > 0;
             }),
             "us");
}

}  // namespace perfbench
