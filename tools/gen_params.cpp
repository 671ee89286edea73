// One-time parameter generation for adscrypto/params.cpp.
#include <cstdio>
#include <string>
#include "adscrypto/accumulator.hpp"
#include "adscrypto/trapdoor.hpp"
#include "bigint/primes.hpp"

using namespace slicer;
using namespace slicer::adscrypto;

int main(int argc, char** argv) {
  const bool safe = argc > 1 && std::string(argv[1]) == "safe";
  crypto::Drbg rng(str_bytes("slicer-embedded-params-v1"));
  auto [acc_params, acc_td] = RsaAccumulator::setup(rng, 1024, safe);
  std::printf("ACC_N %s\n", acc_params.modulus.to_hex().c_str());
  std::printf("ACC_G %s\n", acc_params.generator.to_hex().c_str());
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 1024);
  std::printf("TD_N %s\n", pk.n.to_hex().c_str());
  std::printf("TD_E %s\n", pk.e.to_hex().c_str());
  std::printf("TD_P %s\n", sk.p.to_hex().c_str());
  std::printf("TD_Q %s\n", sk.q.to_hex().c_str());
  return 0;
}
