#include "trace/workload.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

#include "util/string_util.h"

namespace prord::trace {

FileId FileTable::intern(std::string_view url, std::uint32_t bytes) {
  auto it = ids_.find(url);
  if (it != ids_.end()) {
    sizes_[it->second] = std::max(sizes_[it->second], bytes);
    return it->second;
  }
  const auto id = static_cast<FileId>(urls_.size());
  urls_.emplace_back(url);
  sizes_.push_back(bytes);
  kinds_.push_back(is_embedded_url(url)  ? Kind::kEmbedded
                   : is_dynamic_url(url) ? Kind::kDynamic
                                         : Kind::kPage);
  ids_.emplace(urls_.back(), id);
  return id;
}

FileId FileTable::lookup(std::string_view url) const {
  auto it = ids_.find(url);
  return it == ids_.end() ? kInvalidFile : it->second;
}

std::uint64_t FileTable::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (std::uint32_t s : sizes_) total += s;
  return total;
}

bool is_embedded_url(std::string_view url) {
  static constexpr std::array<std::string_view, 14> kEmbedded{
      "gif", "jpg", "jpeg", "png", "bmp", "ico", "css", "js",
      "swf", "class", "mp3", "wav", "avi", "mid"};
  const std::string ext = util::url_extension(url);
  return std::find(kEmbedded.begin(), kEmbedded.end(), ext) != kEmbedded.end();
}

bool is_dynamic_url(std::string_view url) {
  static constexpr std::array<std::string_view, 5> kDynamic{
      "cgi", "php", "asp", "jsp", "pl"};
  const std::string ext = util::url_extension(url);
  if (std::find(kDynamic.begin(), kDynamic.end(), ext) != kDynamic.end())
    return true;
  return util::url_path(url).find("/cgi-bin/") != std::string_view::npos;
}

Workload build_workload(std::span<const LogRecord> records,
                        const WorkloadOptions& options, FileTable seed_table) {
  Workload w;
  w.files = std::move(seed_table);
  w.requests.reserve(records.size());

  struct ClientState {
    sim::SimTime last_seen = -1;
    std::uint32_t conn = 0;
    FileId last_page = kInvalidFile;
    sim::SimTime last_page_time = -1;
    bool seen = false;
  };
  std::unordered_map<std::uint32_t, ClientState> clients;

  sim::SimTime prev_time = std::numeric_limits<sim::SimTime>::min();
  for (const auto& rec : records) {
    if (rec.time < prev_time)
      throw std::invalid_argument("build_workload: records not time-sorted");
    prev_time = rec.time;
    if (!options.keep_errors && !rec.ok()) continue;

    auto& st = clients[rec.client];
    Request req;
    req.at = rec.time;
    req.client = rec.client;
    req.file = w.files.intern(rec.url, rec.bytes);
    req.bytes = rec.bytes;
    req.is_embedded = w.files.is_embedded(req.file);
    req.is_dynamic = w.files.is_dynamic(req.file);

    if (!st.seen) {
      st.seen = true;
      st.conn = static_cast<std::uint32_t>(w.num_connections++);
      req.starts_connection = true;
      ++w.num_clients;
    } else if (rec.time - st.last_seen > options.keepalive_timeout) {
      st.conn = static_cast<std::uint32_t>(w.num_connections++);
      req.starts_connection = true;
    }
    st.last_seen = rec.time;
    req.conn = st.conn;

    if (req.is_embedded) {
      if (st.last_page != kInvalidFile &&
          rec.time - st.last_page_time <= options.bundle_window)
        req.parent_page = st.last_page;
    } else {
      st.last_page = req.file;
      st.last_page_time = rec.time;
      ++w.num_main_pages;
    }

    w.requests.push_back(req);
  }
  return w;
}

}  // namespace prord::trace
