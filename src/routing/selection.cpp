#include "routing/selection.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace wormsim::routing {

SelectionPolicy parse_selection(std::string_view name) {
  if (name == "max-free" || name == "maxfree") {
    return SelectionPolicy::MaxFreeVcs;
  }
  if (name == "first-fit" || name == "firstfit") {
    return SelectionPolicy::FirstFit;
  }
  if (name == "round-robin" || name == "roundrobin") {
    return SelectionPolicy::RoundRobin;
  }
  throw std::invalid_argument("unknown selection policy: " +
                              std::string(name));
}

std::string_view selection_name(SelectionPolicy p) {
  switch (p) {
    case SelectionPolicy::MaxFreeVcs: return "max-free";
    case SelectionPolicy::FirstFit: return "first-fit";
    case SelectionPolicy::RoundRobin: return "round-robin";
  }
  return "unknown";
}

namespace {

std::uint8_t lowest_vc(std::uint32_t mask) {
  return static_cast<std::uint8_t>(std::countr_zero(mask));
}

/// Scan candidates in [begin, end) with the given policy; all candidates
/// in the range have the same escape flag.
std::optional<Pick> select_range(const RouteResult& route, std::size_t begin,
                                 std::size_t end, const std::uint8_t* free_row,
                                 SelectionPolicy policy,
                                 std::uint32_t rr_state) {
  const std::size_t count = end - begin;
  if (count == 0) return std::nullopt;
  // RoundRobin and MaxFreeVcs scan in rotated order: candidate
  // begin + (j + rr_state) % count at step j. The start is computed
  // once; the scan then advances with increment-with-wrap.
  const std::size_t start = begin + rr_state % count;
  const auto next = [begin, end](std::size_t i) {
    return i + 1 == end ? begin : i + 1;
  };

  switch (policy) {
    case SelectionPolicy::FirstFit: {
      for (std::size_t i = begin; i < end; ++i) {
        const Candidate& c = route.candidates[i];
        const std::uint32_t usable = free_row[c.channel] & c.vc_mask;
        if (usable) return Pick{c.channel, lowest_vc(usable), c.escape};
      }
      return std::nullopt;
    }
    case SelectionPolicy::RoundRobin: {
      for (std::size_t j = 0, i = start; j < count; ++j, i = next(i)) {
        const Candidate& c = route.candidates[i];
        const std::uint32_t usable = free_row[c.channel] & c.vc_mask;
        if (usable) return Pick{c.channel, lowest_vc(usable), c.escape};
      }
      return std::nullopt;
    }
    case SelectionPolicy::MaxFreeVcs: {
      std::optional<Pick> best;
      int best_free = -1;
      // The rotated start makes ties rotate across channels instead of
      // always favouring low channel indices.
      for (std::size_t j = 0, i = start; j < count; ++j, i = next(i)) {
        const Candidate& c = route.candidates[i];
        const std::uint32_t usable = free_row[c.channel] & c.vc_mask;
        if (!usable) continue;
        const int free = std::popcount(usable);
        if (free > best_free) {
          best_free = free;
          best = Pick{c.channel, lowest_vc(usable), c.escape};
        }
      }
      return best;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Pick> Selector::select(const RouteResult& route,
                                     const std::uint8_t* free_row,
                                     std::uint32_t rr_state) const {
  // Candidates are ordered adaptive-first by the routing functions; find
  // the adaptive/escape boundary.
  std::size_t escape_begin = route.candidates.size();
  for (std::size_t i = 0; i < route.candidates.size(); ++i) {
    if (route.candidates[i].escape) {
      escape_begin = i;
      break;
    }
  }
  if (auto pick =
          select_range(route, 0, escape_begin, free_row, policy_, rr_state)) {
    return pick;
  }
  return select_range(route, escape_begin, route.candidates.size(), free_row,
                      policy_, rr_state);
}

}  // namespace wormsim::routing
