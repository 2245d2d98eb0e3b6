// Concurrency gate for transfer admission.
//
// Schedulers use gates to bound how many flows they keep simultaneously
// open against a contended endpoint (the manager's NIC, the shared
// filesystem's stream slots). This mirrors reality — managers serve
// transfers over a bounded socket set, filesystems over bounded stream
// slots — and keeps the flow-level network model efficient: rate
// recomputation costs O(active flows) per change.
//
// Usage: submit() a starter callback. When a slot frees, the starter runs
// and receives an opaque slot token (shared_ptr). The slot is held as long
// as any copy of the token lives; capture it in the flow's completion
// callback and the slot releases automatically on completion — or on
// cancellation, because cancelling a flow destroys its callback. Tokens
// co-own the gate's state, so they remain safe even if the FlowGate object
// itself is destroyed first.
//
// A closed gate never calls a starter again: a token released into it
// only gives its slot back, and its queued starters are dropped uncalled
// when the gate is destroyed. Destroying a gate closes it, so a token that
// outlives its gate (held by a flow the network destroys later) can never
// run a starter that captured its dead owner.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

namespace hepvine::net {

class FlowGate {
 public:
  using SlotToken = std::shared_ptr<void>;
  using Starter = std::function<void(SlotToken)>;

  /// A limit of 0 means unbounded.
  explicit FlowGate(std::uint32_t limit)
      : state_(std::make_shared<State>(limit)) {}
  FlowGate(const FlowGate&) = delete;
  FlowGate& operator=(const FlowGate&) = delete;
  ~FlowGate() {
    close();
    // Dropping a starter can release another token (its own gate's or
    // another's); with this gate closed that only returns the slot.
    std::deque<Starter> dropped;
    dropped.swap(state_->queue);
  }

  /// Stop admitting for good. Close every gate a run owns before any of
  /// them is destroyed: a starter queued on one may hold another's token.
  void close() { state_->closed = true; }

  /// Run `fn` now if a slot is free, else queue it. `fn` receives the slot
  /// token; dropping all copies of the token frees the slot.
  void submit(Starter fn) {
    if (state_->closed) return;
    if (state_->limit == 0) {
      fn(SlotToken{});
      return;
    }
    state_->queue.push_back(std::move(fn));
    pump(state_);
  }

  [[nodiscard]] std::uint32_t active() const noexcept {
    return state_->active;
  }
  [[nodiscard]] std::size_t queued() const noexcept {
    return state_->queue.size();
  }

 private:
  struct State {
    explicit State(std::uint32_t lim) : limit(lim) {}
    std::uint32_t limit;
    std::uint32_t active = 0;
    bool pumping = false;
    bool closed = false;
    std::deque<Starter> queue;
  };

  /// Admit starters while slots are free. Iterative with a reentrancy
  /// guard: a starter that drops its token synchronously (e.g. its fetch
  /// vanished) frees the slot mid-pump, and the loop condition simply
  /// re-admits — no recursion, no stack growth on long queues.
  static void pump(const std::shared_ptr<State>& state) {
    if (state->pumping || state->closed) return;
    state->pumping = true;
    while (!state->queue.empty() && state->active < state->limit) {
      Starter next = std::move(state->queue.front());
      state->queue.pop_front();
      ++state->active;
      // The token co-owns the state and returns the slot on destruction
      // (flow completion, or cancellation destroying the callback).
      auto token = SlotToken(static_cast<void*>(state.get()),
                             [state](void*) {
                               --state->active;
                               pump(state);
                             });
      next(std::move(token));
    }
    state->pumping = false;
  }

  std::shared_ptr<State> state_;
};

}  // namespace hepvine::net
