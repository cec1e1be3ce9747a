// The synthetic site as the live cluster serves it: URL <-> FileId
// mapping over an existing trace::FileTable plus deterministic payload
// materialization (the workers have no filesystem — "disk" content is
// generated on demand and cached in memory).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "trace/workload.h"

namespace prord::net {

class SiteStore {
 public:
  /// Borrows `files` (the workload's table); it must outlive the store
  /// and not grow while the live cluster runs.
  explicit SiteStore(const trace::FileTable& files) : files_(files) {}

  const trace::FileTable& files() const noexcept { return files_; }

  trace::FileId lookup(std::string_view url) const {
    return files_.lookup(url);
  }
  const std::string& url(trace::FileId id) const { return files_.url(id); }
  std::uint32_t size_bytes(trace::FileId id) const {
    return files_.size_bytes(id);
  }
  std::size_t count() const noexcept { return files_.count(); }
  /// The file's class as the workload builder recorded it, so the live
  /// distributor and workers label a request exactly as the sim does.
  bool is_embedded(trace::FileId id) const { return files_.is_embedded(id); }
  bool is_dynamic(trace::FileId id) const { return files_.is_dynamic(id); }

  /// Deterministic body of size_bytes(id): the url followed by filler.
  /// Thread-safe (reads only the const table).
  std::string make_payload(trace::FileId id) const;

 private:
  const trace::FileTable& files_;
};

}  // namespace prord::net
