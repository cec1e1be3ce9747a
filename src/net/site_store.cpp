#include "net/site_store.h"

#include <algorithm>
#include <array>

namespace prord::net {
namespace {

// Filler byte i of file `id`'s payload is 'a' + id % 26 + i % 13. Row b of
// kFill holds that sequence for base b from phase 0; kBlock is a multiple
// of the period, so copying kBlock bytes from any phase p < 13 ends at
// phase p again and successive copies continue the sequence.
constexpr std::size_t kPeriod = 13;
constexpr std::size_t kBases = 26;
constexpr std::size_t kBlock = kPeriod * 128;

constexpr auto kFill = [] {
  std::array<std::array<char, kBlock + kPeriod>, kBases> rows{};
  for (std::size_t b = 0; b < kBases; ++b)
    for (std::size_t j = 0; j < rows[b].size(); ++j)
      rows[b][j] = static_cast<char>('a' + b + j % kPeriod);
  return rows;
}();

}  // namespace

std::string SiteStore::make_payload(trace::FileId id) const {
  const std::size_t n = size_bytes(id);
  std::string body;
  body.reserve(n);
  // Leading marker so a reader (or a debugging tcpdump) can tell which
  // file a payload is; filler is a rotating pattern keyed on the id so
  // different files differ byte-wise beyond the prefix. Both are block
  // copies into the reserved buffer: nothing is written twice.
  const std::string& u = url(id);
  body.append(u, 0, std::min(u.size(), n));
  const char* fill = kFill[id % kBases].data() + body.size() % kPeriod;
  while (body.size() < n) body.append(fill, std::min(kBlock, n - body.size()));
  return body;
}

}  // namespace prord::net
