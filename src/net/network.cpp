#include "net/network.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace hepvine::net {

LinkId Network::add_link(std::string name, Bandwidth capacity) {
  const auto id = static_cast<LinkId>(links_.size());
  Link link;
  link.spec = LinkSpec{std::move(name), capacity};
  links_.push_back(std::move(link));
  return id;
}

Network::Flow* Network::find_flow(FlowId id) {
  if (id < window_base_) return nullptr;
  const auto idx = static_cast<std::size_t>(id - window_base_);
  if (idx >= window_.size()) return nullptr;
  const std::int32_t slot = window_[idx];
  return slot < 0 ? nullptr : &slots_[static_cast<std::size_t>(slot)];
}

const Network::Flow* Network::find_flow(FlowId id) const {
  return const_cast<Network*>(this)->find_flow(id);
}

Network::Flow& Network::create_flow(FlowId id) {
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::int32_t>(slots_.size());
    slots_.emplace_back();
  }
  assert(window_base_ + static_cast<FlowId>(window_.size()) == id);
  window_.push_back(slot);
  live_flows_ += 1;
  Flow& flow = slots_[static_cast<std::size_t>(slot)];
  flow.id = id;
  return flow;
}

void Network::destroy_flow(FlowId id) {
  const auto idx = static_cast<std::size_t>(id - window_base_);
  const std::int32_t slot = window_[idx];
  assert(slot >= 0);
  // Move the flow out so the recycled slot starts clean, and finish the
  // table bookkeeping before the dead flow releases its captures (at the
  // end of this function, not at slot reuse). Destroying the done
  // callback can drop a gate token whose next starter calls create_flow,
  // which may grow slots_: nothing here may touch the table after that.
  const Flow dead = std::exchange(slots_[static_cast<std::size_t>(slot)],
                                  Flow{});
  free_slots_.push_back(slot);
  window_[idx] = -1;
  live_flows_ -= 1;
  while (!window_.empty() && window_.front() < 0) {
    window_.pop_front();
    window_base_ += 1;
  }
}

void Network::mark_dirty(LinkId id) {
  Link& link = links_[static_cast<std::size_t>(id)];
  if (!link.dirty) {
    link.dirty = true;
    dirty_links_.push_back(id);
  }
}

void Network::warn(FlowId id, const char* detail) {
  if (on_warn_) on_warn_(engine_.now(), id, detail);
}

FlowId Network::start_flow(std::vector<LinkId> path, std::uint64_t bytes,
                           Tick latency, std::function<void(FlowId)> done) {
  const FlowId id = next_flow_id_++;
  Flow& flow = create_flow(id);
  flow.path = std::move(path);
  flow.total_bytes = bytes;
  flow.remaining = static_cast<double>(bytes);
  flow.done = std::move(done);
  flow.created_at = engine_.now();
  flow.last_update = engine_.now();
  for (LinkId link : flow.path) {
    assert(link >= 0 && static_cast<std::size_t>(link) < links_.size());
    links_[static_cast<std::size_t>(link)].stats.flows_carried += 1;
  }
  flow.setup = engine_.schedule_after(
      latency, [this, id] { begin_transfer(id); });
  return id;
}

void Network::begin_transfer(FlowId id) {
  Flow* flow = find_flow(id);
  if (flow == nullptr) return;
  if (flow->remaining <= 0.0) {
    finish_flow(id);
    return;
  }
  flow->transferring = true;
  flow->last_update = engine_.now();
  for (LinkId link : flow->path) {
    Link& l = links_[static_cast<std::size_t>(link)];
    l.active += 1;
    l.flows.push_back(id);
    mark_dirty(link);
  }
  request_recompute();
}

void Network::release_links(Flow& flow) {
  if (!flow.transferring) return;
  for (LinkId link : flow.path) {
    Link& l = links_[static_cast<std::size_t>(link)];
    l.active -= 1;
    auto it = std::find(l.flows.begin(), l.flows.end(), flow.id);
    assert(it != l.flows.end());
    *it = l.flows.back();
    l.flows.pop_back();
    mark_dirty(link);
  }
  flow.transferring = false;
  request_recompute();
}

void Network::cancel_flow(FlowId id) {
  Flow* flow = find_flow(id);
  if (flow == nullptr) return;
  flow->setup.cancel();
  flow->completion.cancel();
  flow->failure.cancel();
  if (flow->transferring) settle_flow(*flow);
  release_links(*flow);
  flows_cancelled_ += 1;
  bytes_abandoned_ += flow->attributed;
  const Tick created = flow->created_at;
  const std::uint64_t total = flow->total_bytes;
  const std::uint64_t carried = flow->attributed;
  destroy_flow(id);
  if (on_span_) on_span_(created, engine_.now(), id, total, carried, 'C');
}

void Network::fail_flow(FlowId id) {
  Flow* flow = find_flow(id);
  if (flow == nullptr) return;
  flow->setup.cancel();
  flow->completion.cancel();
  flow->failure.cancel();
  if (flow->transferring) settle_flow(*flow);
  release_links(*flow);
  flows_failed_ += 1;
  bytes_abandoned_ += flow->attributed;
  const Tick created = flow->created_at;
  const std::uint64_t total = flow->total_bytes;
  const std::uint64_t carried = flow->attributed;
  destroy_flow(id);
  if (on_span_) on_span_(created, engine_.now(), id, total, carried, 'F');
  if (on_fail_) on_fail_(id);
}

void Network::arm_flow_fault(FlowId id, std::uint64_t fail_after_bytes) {
  Flow* flow = find_flow(id);
  if (flow == nullptr) return;
  if (flow->total_bytes == 0) return;  // no mid-stream byte to fail on
  flow->fail_at =
      std::clamp<std::uint64_t>(fail_after_bytes, 1, flow->total_bytes);
  // If the flow is live, rates are already assigned and no recompute may be
  // coming; dirty its path and (re)schedule the failure from here. Flows
  // still in setup pick up their failure event in the next recompute.
  if (flow->transferring) {
    for (LinkId link : flow->path) mark_dirty(link);
    request_recompute();
  }
}

Bandwidth Network::flow_rate(FlowId id) const {
  const Flow* flow = find_flow(id);
  return flow == nullptr ? 0.0 : flow->rate;
}

void Network::set_link_scale(LinkId id, double factor) {
  Link& l = links_[static_cast<std::size_t>(id)];
  if (l.scale == factor) return;
  l.scale = factor;
  mark_dirty(id);
  request_recompute();
}

void Network::attribute_bytes(Flow& flow, std::uint64_t bytes) {
  if (bytes == 0) return;
  flow.attributed += bytes;
  for (LinkId link : flow.path) {
    links_[static_cast<std::size_t>(link)].stats.bytes_carried += bytes;
  }
}

void Network::finish_flow(FlowId id) {
  Flow* flow = find_flow(id);
  if (flow == nullptr) return;
  // Charge this flow's progress up to now so link statistics include the
  // final stretch (settling is per-flow: each flow has its own last_update).
  settle_flow(*flow);
  flow->setup.cancel();
  flow->completion.cancel();
  flow->failure.cancel();
  if (flow->transferring) {
    // Attribute whatever rounding left behind so a completed flow charges
    // its links exactly total_bytes, no more and no less.
    assert(flow->attributed <= flow->total_bytes);
    attribute_bytes(*flow, flow->total_bytes - flow->attributed);
    release_links(*flow);
  }
  bytes_completed_ += flow->total_bytes;
  auto done = std::move(flow->done);
  const Tick created = flow->created_at;
  const std::uint64_t total = flow->total_bytes;
  destroy_flow(id);
  flows_completed_ += 1;
  if (on_span_) on_span_(created, engine_.now(), id, total, total, 'D');
  if (done) done(id);
  request_recompute();
}

void Network::request_recompute() {
  if (recompute_scheduled_) return;
  recompute_scheduled_ = true;
  // Batch all same-tick arrivals/departures into one recompute.
  engine_.schedule_after(0, [this] {
    recompute_scheduled_ = false;
    recompute_now();
  });
}

void Network::settle_flow(Flow& flow) {
  const Tick now = engine_.now();
  if (!flow.transferring) {
    flow.last_update = now;
    return;
  }
  const Tick elapsed = now - flow.last_update;
  if (elapsed > 0 && flow.rate > 0) {
    const double moved = flow.rate * util::to_seconds(elapsed);
    const double applied = std::min(moved, flow.remaining);
    flow.remaining -= applied;
    // Attribute whole bytes only; the sub-byte remainder carries over to the
    // next settle so long-lived slow flows never under-report bytes_carried.
    flow.carry += applied;
    const auto whole = static_cast<std::uint64_t>(flow.carry);
    flow.carry -= static_cast<double>(whole);
    attribute_bytes(flow, whole);
  }
  flow.last_update = now;
}

void Network::reach_link(LinkId id) {
  Link& link = links_[static_cast<std::size_t>(id)];
  if (link.local >= 0) return;
  link.local = static_cast<std::int32_t>(comp_links_.size());
  comp_links_.push_back(id);
}

bool Network::collect_component() {
  // Collect the recompute set: the links and transferring flows whose rates
  // this pass may change. The reference path takes everything; the
  // incremental path walks the link<->flow graph from the links dirtied
  // since the last pass, which reaches exactly the flows whose max-min
  // allocation can have moved (a flow's rate depends only on its connected
  // component, and every mutation dirties the links it touches).
  comp_links_.clear();
  comp_flows_.clear();
  if (options_.incremental_recompute) {
    if (dirty_links_.empty()) return false;
    collect_touched();
  } else {
    for (LinkId id : dirty_links_) {
      links_[static_cast<std::size_t>(id)].dirty = false;
    }
    dirty_links_.clear();
    for (std::size_t i = 0; i < links_.size(); ++i) {
      if (links_[i].active > 0) reach_link(static_cast<LinkId>(i));
    }
    for (const std::int32_t slot : window_) {
      if (slot < 0) continue;
      Flow& flow = slots_[static_cast<std::size_t>(slot)];
      if (flow.transferring) comp_flows_.push_back(&flow);  // id order
    }
  }
  return true;
}

void Network::collect_touched() {
  // comp_links_ doubles as the walk's queue.
  for (LinkId id : dirty_links_) {
    links_[static_cast<std::size_t>(id)].dirty = false;
    reach_link(id);
  }
  dirty_links_.clear();
  // Flows are marked by window index, which is id order, so the marks are
  // also the sort key.
  const std::size_t words = (window_.size() + 63) / 64;
  if (id_bits_.size() < words) id_bits_.resize(words, 0);
  std::size_t lo = window_.size();
  std::size_t hi = 0;
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    for (FlowId fid : links_[static_cast<std::size_t>(comp_links_[i])].flows) {
      const auto idx = static_cast<std::size_t>(fid - window_base_);
      std::uint64_t& word = id_bits_[idx / 64];
      const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
      if ((word & bit) != 0) continue;
      word |= bit;
      lo = std::min(lo, idx);
      hi = std::max(hi, idx);
      Flow* flow = find_flow(fid);
      assert(flow != nullptr && flow->transferring);
      comp_flows_.push_back(flow);
      for (LinkId pl : flow->path) reach_link(pl);
    }
  }
  // Discovery order depends on link lists; the contract below is id order.
  // A handful of flows sorts faster than a walk over the marked id range.
  constexpr std::size_t kSortMax = 16;
  if (comp_flows_.size() <= kSortMax) {
    std::sort(comp_flows_.begin(), comp_flows_.end(),
              [](const Flow* a, const Flow* b) { return a->id < b->id; });
    for (const Flow* flow : comp_flows_) {
      const auto idx = static_cast<std::size_t>(flow->id - window_base_);
      id_bits_[idx / 64] = 0;
    }
    return;
  }
  comp_flows_.clear();
  for (std::size_t w = lo / 64; w <= hi / 64; ++w) {
    std::uint64_t bits = std::exchange(id_bits_[w], 0);
    while (bits != 0) {
      const std::size_t idx =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      comp_flows_.push_back(&slots_[static_cast<std::size_t>(window_[idx])]);
    }
  }
}

void Network::enqueue_candidates(std::int32_t link, std::int32_t after) {
  WaterFill& wf = wf_;
  wf.enqueued[static_cast<std::size_t>(link)] = waterfill_passes_;
  // The link's flows are in ascending index order: walk down to `after`.
  const std::int32_t begin = wf.link_begin[static_cast<std::size_t>(link)];
  for (std::int32_t p = wf.link_begin[static_cast<std::size_t>(link) + 1];
       p > begin;) {
    const std::int32_t k = wf.link_flows[static_cast<std::size_t>(--p)];
    if (k <= after) break;
    if (wf.frozen[static_cast<std::size_t>(k)] == 0) {
      wf.candidates[static_cast<std::size_t>(k) / 64] |=
          std::uint64_t{1} << (k % 64);
    }
  }
}

std::size_t Network::water_fill(bool starve) {
  // Progressive water-filling over the recompute set. Each pass finds the
  // most-contended link, freezes its flows at that link's fair share, and
  // removes the consumed capacity; repeats until every flow has a rate.
  // The freeze comparison is exact (no tolerance): that makes per-
  // component water-filling bit-identical to the global pass — a link
  // merely *near* another component's bottleneck must not freeze early.
  WaterFill& wf = wf_;
  const std::size_t nl = comp_links_.size();
  const std::size_t nf = comp_flows_.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // The arrays only grow, so a recompute resizes nothing in steady state.
  // Stale `enqueued` entries hold earlier, smaller passes; the candidate
  // bitmap is all zero between passes.
  const auto fit = [](auto& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
  };
  fit(wf.capacity, nl);
  fit(wf.unfrozen, nl);
  fit(wf.share, nl);
  fit(wf.enqueued, nl);
  fit(wf.live, nl);
  fit(wf.link_begin, nl + 1);
  std::int32_t total = 0;  // path entries: each flow's path, summed
  for (std::size_t j = 0; j < nl; ++j) {
    const Link& link = links_[static_cast<std::size_t>(comp_links_[j])];
    wf.capacity[j] = link.spec.capacity * link.scale;
    wf.unfrozen[j] = link.active;
    wf.share[j] = link.active > 0 ? wf.capacity[j] / wf.unfrozen[j] : kInf;
    wf.live[j] = static_cast<std::int32_t>(j);
    total += link.active;
    wf.link_begin[j] = total;  // end of link j; the fill below rewinds it
  }
  wf.link_begin[nl] = total;
  const std::size_t words = (nf + 63) / 64;
  fit(wf.flow_begin, nf + 1);
  fit(wf.flow_links, static_cast<std::size_t>(total));
  fit(wf.link_flows, static_cast<std::size_t>(total));
  fit(wf.frozen, nf);
  fit(wf.candidates, words);
  std::int32_t entry = 0;
  for (std::size_t k = 0; k < nf; ++k) {
    wf.flow_begin[k] = entry;
    wf.frozen[k] = 0;
    for (LinkId id : comp_flows_[k]->path) {
      wf.flow_links[static_cast<std::size_t>(entry++)] =
          links_[static_cast<std::size_t>(id)].local;
    }
  }
  wf.flow_begin[nf] = entry;
  assert(entry == total);
  // Fill each link's flow list back to front in descending flow index, so
  // the lists come out ascending and link_begin[j] ends at link j's start.
  for (std::size_t k = nf; k-- > 0;) {
    for (std::int32_t p = wf.flow_begin[k]; p < wf.flow_begin[k + 1]; ++p) {
      const auto j = static_cast<std::size_t>(wf.flow_links[
          static_cast<std::size_t>(p)]);
      wf.link_flows[static_cast<std::size_t>(--wf.link_begin[j])] =
          static_cast<std::int32_t>(k);
    }
  }

  std::size_t pending = nf;
  std::size_t live = nl;  // wf.live's prefix still in use
  while (!starve && pending > 0) {
    double bottleneck_share = kInf;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < live; ++i) {
      const std::int32_t j = wf.live[i];
      if (wf.unfrozen[static_cast<std::size_t>(j)] == 0) continue;
      wf.live[kept++] = j;
      bottleneck_share =
          std::min(bottleneck_share, wf.share[static_cast<std::size_t>(j)]);
    }
    live = kept;
    if (!std::isfinite(bottleneck_share)) break;  // defensive: no load
    waterfill_passes_ += 1;  // also the pass's stamp in wf.enqueued

    // Only a flow on a link at the bottleneck share can pass the freeze
    // test. Those links' flows are the candidates; a link that drops to
    // the share mid-pass adds its later flows, which a scan in id order
    // would still reach. Earlier flows were already passed over.
    for (std::size_t i = 0; i < live; ++i) {
      const std::int32_t j = wf.live[i];
      if (wf.share[static_cast<std::size_t>(j)] <= bottleneck_share) {
        enqueue_candidates(j, -1);
      }
    }
    std::size_t froze = 0;
    for (std::size_t w = 0; w < words; ++w) {
      // Re-read the word each time: freezing adds later candidates.
      while (wf.candidates[w] != 0) {
        const std::size_t k =
            w * 64 + static_cast<std::size_t>(
                         std::countr_zero(wf.candidates[w]));
        wf.candidates[w] &= wf.candidates[w] - 1;
        const auto links_begin = wf.flow_begin[k];
        const auto links_end = wf.flow_begin[k + 1];
        bool frozen = false;
        for (std::int32_t p = links_begin; p < links_end; ++p) {
          const auto j = static_cast<std::size_t>(
              wf.flow_links[static_cast<std::size_t>(p)]);
          if (wf.share[j] <= bottleneck_share) {
            frozen = true;
            break;
          }
        }
        if (!frozen) continue;
        wf.frozen[k] = 1;
        comp_flows_[k]->rate = bottleneck_share;
        froze += 1;
        for (std::int32_t p = links_begin; p < links_end; ++p) {
          const std::int32_t j = wf.flow_links[static_cast<std::size_t>(p)];
          const auto u = static_cast<std::size_t>(j);
          wf.capacity[u] -= bottleneck_share;
          if (wf.capacity[u] < 0) wf.capacity[u] = 0;
          wf.unfrozen[u] -= 1;
          wf.share[u] =
              wf.unfrozen[u] > 0 ? wf.capacity[u] / wf.unfrozen[u] : kInf;
          if (wf.share[u] <= bottleneck_share &&
              wf.enqueued[u] != waterfill_passes_) {
            enqueue_candidates(j, static_cast<std::int32_t>(k));
          }
        }
      }
    }
    if (froze == 0) break;  // defensive
    pending -= froze;
  }
  return pending;
}

void Network::recompute_now() {
  if (!collect_component()) return;
  recomputes_ += 1;
  recompute_flow_visits_ += comp_flows_.size();

  if (!comp_flows_.empty()) {
    old_rates_.clear();
    for (Flow* flow : comp_flows_) {
      old_rates_.push_back(flow->rate);
      flow->rate = 0.0;
    }
    const bool starve_seam = debug_starve_once_;
    debug_starve_once_ = false;
    if (water_fill(starve_seam) > 0) {
      // Water-filling failed to rate a transferring flow (a defensive break
      // fired). An unrated flow schedules no completion, so on a quiet
      // network the run would hang. Self-heal: warn, re-dirty the flow's
      // links, and retry one tick later (not this tick, which would loop);
      // the assert makes an organic occurrence loud in debug builds.
      for (std::size_t k = 0; k < comp_flows_.size(); ++k) {
        if (wf_.frozen[k] != 0) continue;
        const Flow* flow = comp_flows_[k];
        starvation_rescues_ += 1;
        warn(flow->id, "water-filling left flow unrated; rescue recompute");
        for (LinkId id : flow->path) mark_dirty(id);
      }
      assert(starve_seam &&
             "water-filling left a transferring flow unrated");
      engine_.schedule_after(1, [this] { request_recompute(); });
    }

    // Reschedule completions at the new rates, in ascending flow id. Flows
    // whose allocation did not change keep their existing completion event
    // and are NOT settled — settle instants are thus a function of rate
    // changes alone, which is what makes the incremental and reference
    // paths produce identical floating-point progress chunking.
    for (std::size_t i = 0; i < comp_flows_.size(); ++i) {
      Flow& flow = *comp_flows_[i];
      const double old_rate = old_rates_[i];
      const double new_rate = flow.rate;
      const bool rate_unchanged =
          old_rate > 0.0 &&
          std::abs(new_rate - old_rate) <= old_rate * 1e-12;
      const bool failure_current =
          flow.fail_at == 0 || (rate_unchanged && flow.failure.pending());
      if (rate_unchanged && flow.completion.pending() && failure_current) {
        continue;  // completion (and failure) times are still exact
      }
      flow.rate = old_rate;
      settle_flow(flow);
      flow.rate = new_rate;
      const FlowId fid = flow.id;
      // Completion/failure moves use Engine::reschedule_after — the
      // callbacks are per-flow constants, so a pending event's slot (and
      // its stored std::function) is reused rather than reconstructed for
      // every rate change. The fired-event order matches cancel+schedule
      // exactly (one seq either way).
      if (flow.remaining <= 0.5) {
        // Fractional residue from settling. An armed failure inside the
        // residual bytes still wins — the flow was injected to die in its
        // last bytes, so it must not slip through as a completion.
        if (flow.fail_at > 0) {
          flow.completion.cancel();
          flow.failure = engine_.reschedule_after(
              flow.failure, 0, [this, fid] { fail_flow(fid); });
        } else {
          flow.failure.cancel();
          flow.completion = engine_.reschedule_after(
              flow.completion, 0, [this, fid] { finish_flow(fid); });
        }
        continue;
      }
      if (flow.rate <= 0.0) {  // stalled (outage) or rescue pending
        flow.completion.cancel();
        flow.failure.cancel();
        continue;
      }
      if (flow.fail_at > 0) {
        const double carried =
            static_cast<double>(flow.total_bytes) - flow.remaining;
        const double left = static_cast<double>(flow.fail_at) - carried;
        if (left <= 0.5) {
          // The armed byte already crossed; fail now.
          flow.completion.cancel();
          flow.failure = engine_.reschedule_after(
              flow.failure, 0, [this, fid] { fail_flow(fid); });
          continue;  // no completion: the failure removes the flow first
        }
        const Tick fail_eta = util::transfer_time(
            static_cast<std::uint64_t>(std::ceil(left)), flow.rate);
        flow.failure = engine_.reschedule_after(
            flow.failure, fail_eta, [this, fid] { fail_flow(fid); });
        // Scheduled before completion: on an exact tie the failure wins.
      } else {
        flow.failure.cancel();
      }
      const Tick eta = util::transfer_time(
          static_cast<std::uint64_t>(std::ceil(flow.remaining)), flow.rate);
      flow.completion = engine_.reschedule_after(
          flow.completion, eta, [this, fid] { finish_flow(fid); });
    }
  }

  for (LinkId id : comp_links_) links_[static_cast<std::size_t>(id)].local = -1;
}

void Network::register_stats(obs::StatsRegistry& registry,
                             const std::string& prefix) const {
  registry.gauge(prefix + ".active_flows",
                 [this] { return static_cast<double>(live_flows_); });
  registry.gauge(prefix + ".flows_completed",
                 [this] { return static_cast<double>(flows_completed_); });
  registry.gauge(prefix + ".bytes_completed",
                 [this] { return static_cast<double>(bytes_completed_); });
  registry.gauge(prefix + ".flows_cancelled", [this] {
    return static_cast<double>(flows_cancelled_ + flows_failed_);
  });
  registry.gauge(prefix + ".bytes_abandoned",
                 [this] { return static_cast<double>(bytes_abandoned_); });
}

}  // namespace hepvine::net
