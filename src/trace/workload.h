// Workload construction: turns a raw LogRecord stream into the request
// stream the cluster simulator consumes.
//
// Responsibilities:
//   - intern URLs into dense FileIds, learn file sizes and classify each
//     file once as main page, embedded object or dynamic content (by
//     extension, the same heuristic real front-ends use),
//   - attribute each embedded object to the main page that pulled it in,
//   - split each client's request stream into persistent HTTP/1.1
//     connections using a keep-alive timeout.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "trace/log_record.h"

namespace prord::trace {

/// Dense URL <-> FileId mapping with byte sizes and each file's class.
/// The one place that knows what a file is: the workload builder, the
/// live front end and the live workers all classify by FileId here, so
/// the sim and the live cluster cannot label a request differently.
class FileTable {
 public:
  /// Returns the id for `url`, creating it (and classifying its URL) on
  /// first sight. Size is updated to the max observed (logs may carry
  /// truncated transfers).
  FileId intern(std::string_view url, std::uint32_t bytes);

  /// Id for a known URL or kInvalidFile. Builds no temporary string.
  FileId lookup(std::string_view url) const;

  std::uint32_t size_bytes(FileId id) const { return sizes_.at(id); }
  const std::string& url(FileId id) const { return urls_.at(id); }
  std::size_t count() const noexcept { return urls_.size(); }

  /// is_embedded_url of the file's URL.
  bool is_embedded(FileId id) const { return kinds_.at(id) == Kind::kEmbedded; }
  /// CPU-generated and uncacheable: is_dynamic_url of a URL that is not
  /// embedded (an embedded object under /cgi-bin/ is still static).
  bool is_dynamic(FileId id) const { return kinds_.at(id) == Kind::kDynamic; }

  /// Sum of sizes over all known files — the site footprint as seen in the
  /// trace.
  std::uint64_t total_bytes() const noexcept;

 private:
  enum class Kind : std::uint8_t { kPage, kEmbedded, kDynamic };
  /// Transparent hash: find() takes a string_view as is.
  struct UrlHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view url) const noexcept {
      return std::hash<std::string_view>{}(url);
    }
  };

  std::vector<std::string> urls_;
  std::vector<std::uint32_t> sizes_;
  std::vector<Kind> kinds_;
  std::unordered_map<std::string, FileId, UrlHash, std::equal_to<>> ids_;
};

/// One request as the cluster front-end sees it.
struct Request {
  sim::SimTime at = 0;            ///< arrival at the front-end
  std::uint32_t client = 0;
  std::uint32_t conn = 0;         ///< persistent-connection id
  FileId file = kInvalidFile;
  std::uint32_t bytes = 0;
  // The file's class, copied from FileTable::is_embedded/is_dynamic.
  bool is_embedded = false;
  bool is_dynamic = false;            ///< CPU-generated, uncacheable
  FileId parent_page = kInvalidFile;  ///< main page of an embedded object
  bool starts_connection = false;     ///< first request on its connection
};

struct WorkloadOptions {
  /// Requests from the same client separated by more than this ride on
  /// different persistent connections (typical server keep-alive).
  sim::SimTime keepalive_timeout = sim::sec(15.0);
  /// Embedded-object attribution window: an embedded request is bound to
  /// the client's most recent main page within this span.
  sim::SimTime bundle_window = sim::sec(10.0);
  /// Drop records with non-2xx/3xx status.
  bool keep_errors = false;
};

/// The simulator's input: interned requests plus the file universe.
struct Workload {
  FileTable files;
  std::vector<Request> requests;  ///< sorted by arrival time
  std::size_t num_connections = 0;
  std::size_t num_clients = 0;
  std::size_t num_main_pages = 0;  ///< count of main-page requests

  sim::SimTime span() const {
    return requests.empty() ? 0 : requests.back().at - requests.front().at;
  }
};

/// True if the URL looks like an embedded object (image/style/script/etc.).
bool is_embedded_url(std::string_view url);

/// True if the URL looks like dynamically generated content (CGI/script
/// extensions or a /cgi-bin/ path) — served from CPU, never cached.
bool is_dynamic_url(std::string_view url);

/// Builds a workload from a time-sorted record stream. `seed_table`, when
/// given, pre-populates the file table so ids stay consistent across
/// multiple traces of the same site (e.g. a training log mined offline and
/// the evaluation log played through the cluster).
Workload build_workload(std::span<const LogRecord> records,
                        const WorkloadOptions& options = {},
                        FileTable seed_table = {});

}  // namespace prord::trace
