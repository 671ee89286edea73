// Embedded deterministic 1024-bit parameters for benchmarks and examples.
//
// Generated once with this library's own `setup`/`keygen` (tools/gen_params)
// so that benchmark runs skip multi-second key generation. Production
// deployments must generate fresh parameters offline — including the
// safe-prime accumulator setup — and keep the trapdoor secret key with the
// data owner only.
#pragma once

#include "adscrypto/accumulator.hpp"
#include "adscrypto/trapdoor.hpp"

namespace slicer::adscrypto {

/// 1024-bit RSA accumulator parameters (modulus from two 512-bit safe-prime
/// candidates; see params.cpp for provenance).
const AccumulatorParams& default_accumulator_params();

/// 1024-bit RSA trapdoor-permutation key pair; the secret key is the
/// modulus factorization {p, q}. It is embedded deliberately: benchmarks
/// model the data owner, who holds it.
const TrapdoorPublicKey& default_trapdoor_public_key();
const TrapdoorSecretKey& default_trapdoor_secret_key();

}  // namespace slicer::adscrypto
