// SHA-256 compression kernels behind crypto::Sha256 (internal).
//
// Sha256 runs every block through the kernel chosen once per process: the
// SHA-NI kernel when the CPU has the SHA extensions, the portable one
// otherwise. Both are declared here so the tests can run them side by side
// and the micro-benchmark can time the portable one on any host; library
// code outside sha256.cpp should use Sha256.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace slicer::crypto::detail {

/// H(0), the SHA-256 initial hash value (FIPS 180-4 §5.3.3).
inline constexpr std::array<std::uint32_t, 8> kSha256Init = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Compresses `count` consecutive 64-byte blocks into `state`.
using Sha256Kernel = void (*)(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* blocks, std::size_t count);

/// Plain C++ kernel; runs on every host.
void sha256_blocks_portable(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* blocks, std::size_t count);

/// True when this CPU can run sha256_blocks_shani.
bool sha256_shani_supported();

/// SHA-NI kernel (x86-64 SHA extensions). Call only when
/// sha256_shani_supported(); elsewhere it is not built and aborts.
void sha256_blocks_shani(std::array<std::uint32_t, 8>& state,
                         const std::uint8_t* blocks, std::size_t count);

/// The kernel Sha256 uses, chosen on first call.
Sha256Kernel sha256_kernel();

}  // namespace slicer::crypto::detail
