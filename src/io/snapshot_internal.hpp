// Pieces of snapshot.cpp that tests reach directly.  Not part of the io
// API: production code calls io::crc32c, which picks the path itself.
#pragma once

#include <cstdint>
#include <string_view>

namespace cosmicdance::io::internal {

/// The portable slice-by-8 CRC32C that io::crc32c falls back to on CPUs
/// without SSE4.2.  Exposed so a test can hold it to the hardware path on
/// hosts where io::crc32c never reaches it.
[[nodiscard]] std::uint32_t crc32c_portable(std::string_view bytes);

}  // namespace cosmicdance::io::internal
