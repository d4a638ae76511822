// Small file helpers shared by catalog loaders and format readers.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace cosmicdance::io {

/// Read a whole file as text.  Throws IoError when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

/// Write text to a file, replacing its contents.  Throws IoError on failure.
void write_file(const std::string& path, const std::string& content);

/// Append bytes to the end of an existing file (created if missing).
/// Throws IoError on failure.  Not atomic: a reader can see a torn tail,
/// so a file that must be read whole (a snapshot) is written with
/// write-and-rename instead.  examples/live_monitor grows its TLE and
/// Dst text files this way.
void append_file(const std::string& path, std::string_view content);

/// A read-only view of a whole file, preferring mmap (zero-copy) with a
/// portable read-whole-file fallback.  The ingestion fast path parses
/// std::string_view slices of the mapping directly, so no per-line or
/// per-record strings are materialised; `view()` stays valid for the
/// lifetime of the MappedFile.
///
/// The fallback (and `Mode::kFallbackRead`, which forces it — differential
/// tests prove both readers byte-identical) pre-sizes one buffer from the
/// file length, so even without mmap the file is read with a single
/// allocation.  Throws IoError when the file cannot be opened or read.
class MappedFile {
 public:
  enum class Mode {
    kAuto,          ///< mmap a regular file, else read the whole file
    kFallbackRead,  ///< always use the portable read path
  };

  explicit MappedFile(const std::string& path, Mode mode = Mode::kAuto);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// The file's bytes.  Valid for the lifetime of this object.
  [[nodiscard]] std::string_view view() const noexcept { return view_; }
  [[nodiscard]] std::size_t size() const noexcept { return view_.size(); }
  /// True when the view is backed by an actual memory mapping.
  [[nodiscard]] bool is_mapped() const noexcept { return map_ != nullptr; }

  /// Unmap this process's pages of the whole pages in [begin, end), rounding
  /// both ends down, so a page straddling `end` stays for the next range.
  /// The bytes stay readable: the next access faults them back in from the
  /// page cache.  A streaming reader calls this behind itself to hold only
  /// a window of the file resident.  No-op on the fallback path.
  void drop_pages(std::size_t begin, std::size_t end) const noexcept;

 private:
  void release() noexcept;

  void* map_ = nullptr;          ///< mmap base (nullptr on the fallback path)
  std::size_t map_size_ = 0;     ///< mapped length (may exceed view size)
  std::string fallback_;         ///< owning buffer on the fallback path
  std::string_view view_;
};

}  // namespace cosmicdance::io
