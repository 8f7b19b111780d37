// Schnorr signatures over secp256k1 with deterministic nonces. The EA
// generates all key pairs at setup (the paper avoids external PKI); VC nodes
// sign ENDORSEMENT messages with these keys, trustees sign BB writes.
#pragma once

#include <vector>

#include "crypto/ec.hpp"

namespace ddemos::crypto {

struct KeyPair {
  Fn sk;
  Bytes pk;  // compressed point encoding, 33 bytes
};

// A verification key decoded once: the encoding (hashed into every
// challenge) next to its curve point, so repeated verifies against the
// same key skip ec_decode's field square root. `valid` is false when the
// encoding does not decode; every verify against such a key fails.
struct PublicKey {
  Bytes enc;
  Point point;
  bool valid = false;
};
PublicKey decode_public_key(BytesView pk);
std::vector<PublicKey> decode_public_keys(const std::vector<Bytes>& pks);

KeyPair schnorr_keygen(Rng& rng);
// Signature = R (33 bytes) || s (32 bytes).
Bytes schnorr_sign(const Fn& sk, BytesView msg);
// Same signature, byte for byte, for a signer that already holds its
// public key encoding pk = ec_encode(sk*G): skips recomputing it.
Bytes schnorr_sign(const Fn& sk, BytesView pk, BytesView msg);
bool schnorr_verify(BytesView pk, BytesView msg, BytesView sig);
// Verification against a pre-decoded key; agrees with the BytesView form
// on every input.
bool schnorr_verify(const PublicKey& pk, BytesView msg, BytesView sig);
// Pre-refactor verifier (two independent full multiplications + ec_eq),
// kept for cross-check tests and the speed-regression gate.
bool schnorr_verify_naive(BytesView pk, BytesView msg, BytesView sig);
// Fiat-Shamir challenge e = H(R || pk || msg); exposed for the batch
// verifier in batch.hpp.
Fn schnorr_challenge(BytesView r_enc, BytesView pk, BytesView msg);

}  // namespace ddemos::crypto
