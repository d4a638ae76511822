// The .cdsnap v11 layout as the format tests read and forge it (the format
// doc is in src/io/snapshot.hpp): the header's field offsets, the section
// table's entries, little-endian reads and writes, a head reseal and a
// catalog-stripe locator.  One copy, so a format change edits one place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "io/snapshot.hpp"

namespace cosmicdance::test_support::cdsnap {

inline constexpr std::size_t kVersionAt = 8;
inline constexpr std::size_t kTleHashAt = 24;
inline constexpr std::size_t kSectionCountAt = 32;
/// XXH64 of bytes 0-35 followed by the table.
inline constexpr std::size_t kHeadHashAt = 36;
inline constexpr std::size_t kHeaderBytes = 44;
/// A table entry: u64 length, then u64 XXH64 of the section.
inline constexpr std::size_t kEntryBytes = 16;
inline constexpr std::size_t kEntryHashField = 8;

// The format is little-endian, and so is every supported build.
template <typename T>
T read_le(std::string_view bytes, std::size_t at) {
  T value{};
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

template <typename T>
void write_le(std::string& bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

inline std::uint32_t section_count(std::string_view bytes) {
  return read_le<std::uint32_t>(bytes, kSectionCountAt);
}

/// Where section `i`'s table entry starts.
inline std::size_t entry_at(std::size_t i) { return kHeaderBytes + i * kEntryBytes; }

/// The bytes of header and table: where the first section starts.
inline std::size_t head_bytes(std::string_view bytes) {
  return entry_at(section_count(bytes));
}

inline std::uint64_t section_length(std::string_view bytes, std::size_t i) {
  return read_le<std::uint64_t>(bytes, entry_at(i));
}

/// Where section `i` starts: each one where the one before it ends.
inline std::size_t section_begin(std::string_view bytes, std::size_t i) {
  std::size_t begin = head_bytes(bytes);
  for (std::size_t k = 0; k < i; ++k) begin += section_length(bytes, k);
  return begin;
}

/// Recompute the head hash, so only the checks after it can reject a
/// hand-edited header or table.
inline void reseal_head(std::string& bytes) {
  const std::string hashed =
      bytes.substr(0, kHeadHashAt) +
      bytes.substr(kHeaderBytes, head_bytes(bytes) - kHeaderBytes);
  write_le(bytes, kHeadHashAt, io::xxh64(hashed));
}

/// Recompute section `i`'s hash in the table, then the head hash, so only
/// the decoder's checks on the section's contents can reject it.
inline void reseal_section(std::string& bytes, std::size_t i) {
  const std::string_view section = std::string_view(bytes).substr(
      section_begin(bytes, i), section_length(bytes, i));
  write_le(bytes, entry_at(i) + kEntryHashField, io::xxh64(section));
  reseal_head(bytes);
}

/// Catalog stripe `i` (stripes come first, so it is section `i`): where
/// it starts, its designator table's count and its column blocks, and its
/// record count.
struct StripeAt {
  std::size_t begin = 0;
  std::size_t length = 0;
  std::size_t designators_at = 0;  // the u32 designator count
  std::size_t columns_at = 0;
  std::size_t records = 0;
};

inline StripeAt stripe_at(std::string_view bytes, std::size_t i) {
  StripeAt stripe;
  stripe.begin = section_begin(bytes, i);
  stripe.length = section_length(bytes, i);
  std::size_t at = stripe.begin;
  const auto sats = read_le<std::uint64_t>(bytes, at);
  at += 8;
  for (std::uint64_t s = 0; s < sats; ++s) {
    stripe.records += read_le<std::uint64_t>(bytes, at + 4);
    at += 12;
  }
  stripe.designators_at = at;
  const auto designators = read_le<std::uint32_t>(bytes, at);
  at += 4;
  for (std::uint32_t d = 0; d < designators; ++d) {
    at += 4 + read_le<std::uint32_t>(bytes, at);
  }
  stripe.columns_at = at;
  return stripe;
}

}  // namespace cosmicdance::test_support::cdsnap
