// A temporary directory a test owns for exactly its own scope.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

namespace cosmicdance::test_support {

/// `<gtest temp dir><name>_<pid>`, created empty, and removed with
/// everything in it when the object goes out of scope: on an early return
/// from a failed ASSERT too.  The pid keeps concurrent test processes
/// (ctest -j runs each test as its own) out of each other's directories.
/// Moving hands the directory over; the moved-from object owns none.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name)
      : path_(::testing::TempDir() + name + "_" +
              std::to_string(static_cast<long>(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ScopedTempDir(ScopedTempDir&& other) noexcept
      : path_(std::exchange(other.path_, {})) {}
  ~ScopedTempDir() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(ScopedTempDir&&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace cosmicdance::test_support
