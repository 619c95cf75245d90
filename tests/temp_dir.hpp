// A fresh scratch directory for one test, under the system temp directory
// and named by mkdtemp, so two test processes running at once on one host
// never share a path: neither can delete, truncate or read the other's
// files.  Removed with its contents on scope exit.
#pragma once

#include <stdlib.h>  // mkdtemp (POSIX)

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace lcdc::test {

struct TempDir {
  explicit TempDir(const std::string& tag) {
    std::string name = (std::filesystem::temp_directory_path() /
                        ("lcdc_" + tag + "_XXXXXX"))
                           .string();
    if (::mkdtemp(name.data()) == nullptr) {
      throw std::runtime_error("cannot create scratch directory '" + name +
                               "': " + std::strerror(errno));
    }
    path = name;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string path;
};

}  // namespace lcdc::test
