#include "io/file.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/error.hpp"

namespace cosmicdance::io {
namespace {

/// Read a whole file into a pre-sized string (one allocation, sized from
/// the stream length instead of growing through an ostringstream).
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open file: " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::string content;
  if (size > 0) {
    content.resize(static_cast<std::size_t>(size));
    in.read(content.data(), size);
    content.resize(static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) throw IoError("failed reading file: " + path);
  return content;
}

}  // namespace

std::string read_file(const std::string& path) { return slurp(path); }

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open file for writing: " + path);
  out << content;
  if (!out) throw IoError("failed writing file: " + path);
}

void append_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) throw IoError("cannot open file for appending: " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) throw IoError("failed appending to file: " + path);
}

MappedFile::MappedFile(const std::string& path, Mode mode) {
  if (mode == Mode::kAuto) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw IoError("cannot open file: " + path);
    struct stat st {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0 || !S_ISREG(st.st_mode)) {
      ::close(fd);
      // Not a regular file (pipe, device...): the read path handles it.
      fallback_ = slurp(path);
      view_ = fallback_;
      return;
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      view_ = std::string_view{};
      return;
    }
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (base != MAP_FAILED) {
      map_ = base;
      map_size_ = size;
      view_ = std::string_view(static_cast<const char*>(base), size);
      return;
    }
    // mmap refused (e.g. special filesystem): fall through to the read path.
  }
  fallback_ = slurp(path);
  view_ = fallback_;
}

MappedFile::~MappedFile() { release(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      fallback_(std::move(other.fallback_)) {
  view_ = map_ != nullptr
              ? std::string_view(static_cast<const char*>(map_), map_size_)
              : std::string_view(fallback_);
  other.view_ = {};
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    release();
    map_ = std::exchange(other.map_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
    fallback_ = std::move(other.fallback_);
    view_ = map_ != nullptr
                ? std::string_view(static_cast<const char*>(map_), map_size_)
                : std::string_view(fallback_);
    other.view_ = {};
  }
  return *this;
}

void MappedFile::drop_pages(std::size_t begin, std::size_t end) const noexcept {
  if (map_ == nullptr) return;
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  end = std::min(end, map_size_);
  begin -= begin % page;
  end -= end % page;
  if (begin >= end) return;
  // The mapping is read-only and private, so no page was ever copied on
  // write: MADV_DONTNEED only drops page table entries, and the file
  // still backs every byte.  Best-effort; a failure leaves them resident.
  static_cast<void>(::madvise(static_cast<char*>(map_) + begin, end - begin,
                              MADV_DONTNEED));
}

void MappedFile::release() noexcept {
  if (map_ != nullptr) ::munmap(map_, map_size_);
  map_ = nullptr;
  map_size_ = 0;
  view_ = {};
}

}  // namespace cosmicdance::io
