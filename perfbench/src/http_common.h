// Request mix and expected replies shared by the miniginx workloads.
#pragma once

#include <string>
#include <string_view>

#include "apps/server.h"

namespace perfbench {

/// Small static pages of the default docroot; the GET mix picks uniformly.
inline constexpr const char* kPages[] = {"/index.html", "/about.txt",
                                         "/style.css", "/api.json"};
inline constexpr int kPageCount = 4;
/// The faulting request: a Range GET, which reaches the range_request
/// marker. Unarmed it is answered 206 with the first kRangeBytes bytes.
inline constexpr const char* kRangeTarget = "/index.html";
inline constexpr const char* kRangeHeader = "Range: bytes=0-9\r\n";
inline constexpr std::size_t kRangeBytes = 10;
/// The documented outcome of a persistent crash at range_request: the
/// crash rolls back to the enclosing stat() gate, which is diverted to -1,
/// so the request is answered as not found and the connection stays open.
inline constexpr int kDivertedStatus = 404;
inline constexpr std::string_view kDivertedBody = "<h1>404 Not Found</h1>";

/// A docroot file's bytes as the server's Vfs holds them.
inline std::string docroot_file(fir::Server& server, const char* path) {
  const auto inode =
      server.fx().env().vfs().lookup(std::string("/www") + path);
  return inode == nullptr ? std::string()
                          : std::string(inode->data.begin(), inode->data.end());
}

}  // namespace perfbench
