#include "logmining/bundle.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace prord::logmining {

BundleMiner::BundleMiner(double min_cooccurrence)
    : min_cooccurrence_(min_cooccurrence) {
  if (min_cooccurrence <= 0.0 || min_cooccurrence > 1.0)
    throw std::invalid_argument("BundleMiner: min_cooccurrence in (0,1]");
}

BundleMiner::Page& BundleMiner::page_slot(trace::FileId page) {
  const auto [slot, inserted] =
      index_.insert(page, static_cast<std::uint32_t>(pages_.size()));
  if (inserted) pages_.push_back(Page{page});
  return pages_[slot];
}

void BundleMiner::count_object(Page& page, trace::FileId object,
                               std::uint64_t n) {
  for (std::uint32_t e = page.objects; e != kNoSlot; e = arena_[e].next) {
    if (arena_[e].id == object) {
      arena_[e].count += n;
      return;
    }
  }
  arena_.push_back(ArenaEntry{object, page.objects, n});
  page.objects = static_cast<std::uint32_t>(arena_.size() - 1);
}

void BundleMiner::observe(std::span<const trace::Request> requests) {
  for (const auto& req : requests) {
    if (req.is_embedded) {
      if (req.parent_page != trace::kInvalidFile)
        count_object(page_slot(req.parent_page), req.file, 1);
    } else {
      ++page_slot(req.file).views;
    }
  }
}

void BundleMiner::finalize() {
  members_.clear();
  num_bundles_ = 0;
  for (Page& pc : pages_) {
    pc.bundle_begin = static_cast<std::uint32_t>(members_.size());
    if (pc.views != 0) {
      for (std::uint32_t e = pc.objects; e != kNoSlot; e = arena_[e].next) {
        const double frac = static_cast<double>(arena_[e].count) /
                            static_cast<double>(pc.views);
        if (frac >= min_cooccurrence_) members_.push_back(arena_[e].id);
      }
      std::sort(members_.begin() + pc.bundle_begin, members_.end());
    }
    pc.bundle_end = static_cast<std::uint32_t>(members_.size());
    num_bundles_ += pc.bundle_end != pc.bundle_begin;
  }
}

std::span<const trace::FileId> BundleMiner::bundle_of(
    trace::FileId page) const {
  const std::uint32_t slot = index_.find(page);
  if (slot == kNoSlot) return {};
  const Page& pc = pages_[slot];
  return {members_.data() + pc.bundle_begin, members_.data() + pc.bundle_end};
}

bool BundleMiner::in_bundle(trace::FileId page, trace::FileId object) const {
  const auto members = bundle_of(page);
  return std::binary_search(members.begin(), members.end(), object);
}

std::uint64_t BundleMiner::bundle_bytes(trace::FileId page,
                                        const trace::FileTable& files) const {
  std::uint64_t total = 0;
  for (trace::FileId f : bundle_of(page)) total += files.size_bytes(f);
  return total;
}

void BundleMiner::save(std::ostream& out) const {
  out << "bundles " << pages_.size() << '\n';
  std::vector<const Page*> ordered;
  ordered.reserve(pages_.size());
  for (const Page& pc : pages_) ordered.push_back(&pc);
  std::sort(ordered.begin(), ordered.end(),
            [](const Page* a, const Page* b) { return a->page < b->page; });
  std::vector<std::pair<trace::FileId, std::uint64_t>> objects;
  for (const Page* pc : ordered) {
    objects.clear();
    for (std::uint32_t e = pc->objects; e != kNoSlot; e = arena_[e].next)
      objects.emplace_back(arena_[e].id, arena_[e].count);
    std::sort(objects.begin(), objects.end());
    out << pc->page << ' ' << pc->views << ' ' << objects.size();
    for (const auto& [obj, cnt] : objects) out << ' ' << obj << ' ' << cnt;
    out << '\n';
  }
  out << "end\n";
}

bool BundleMiner::load(std::istream& in) {
  std::string tag;
  std::size_t n = 0;
  if (!(in >> tag >> n) || tag != "bundles") return false;
  // Staged: a malformed stream leaves this miner as it was. A repeated
  // page keeps its first record (save() writes none).
  BundleMiner staged(min_cooccurrence_);
  for (std::size_t i = 0; i < n; ++i) {
    trace::FileId page = 0;
    std::uint64_t views = 0;
    std::size_t objects = 0;
    if (!(in >> page >> views >> objects)) return false;
    const bool fresh = staged.index_.find(page) == kNoSlot;
    Page& pc = staged.page_slot(page);
    if (fresh) pc.views = views;
    for (std::size_t o = 0; o < objects; ++o) {
      trace::FileId obj = 0;
      std::uint64_t cnt = 0;
      if (!(in >> obj >> cnt)) return false;
      if (fresh) staged.count_object(pc, obj, cnt);
    }
  }
  if (!(in >> tag) || tag != "end") return false;
  staged.finalize();
  *this = std::move(staged);
  return true;
}

}  // namespace prord::logmining
