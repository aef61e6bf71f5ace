#include "stream/user_state.h"

#include "support/error.h"

namespace mood::stream {

UserStateStore::UserStateStore(StoreConfig config) : config_(config) {
  support::expects(config_.shards > 0,
                   "UserStateStore: shard count must be > 0");
  telemetry::MetricsRegistry* registry = config_.registry;
  if (registry == nullptr) {
    own_registry_ =
        std::make_unique<telemetry::MetricsRegistry>(config_.shards);
    registry = own_registry_.get();
  }
  evictions_ = &registry->counter("mood_store_evicted_users_total");
  shards_ = std::vector<Shard>(config_.shards);
}

std::size_t UserStateStore::shard_of(const mobility::UserId& user) const {
  return std::hash<mobility::UserId>{}(user) % shards_.size();
}

void UserStateStore::evict_one(Shard& shard, std::size_t shard_index) {
  auto victim = shard.states.end();
  bool victim_clean = false;
  for (auto it = shard.states.begin(); it != shard.states.end(); ++it) {
    const bool clean = it->second.pending.empty();
    if (victim == shard.states.end() || (clean && !victim_clean) ||
        (clean == victim_clean &&
         it->second.last_touch < victim->second.last_touch)) {
      victim = it;
      victim_clean = clean;
    }
  }
  if (victim == shard.states.end()) return;
  shard.states.erase(victim);
  evictions_->add(1, shard_index);
}

UserState* UserStateStore::admit_locked(Shard& shard, std::size_t shard_index,
                                        const StreamEvent& event,
                                        BadRecordPolicy policy, bool poisoned,
                                        const char* poison_reason,
                                        AdmitResult& result) {
  result.shard = shard_index;
  auto it = shard.states.find(event.user);

  if (it != shard.states.end() && it->second.quarantined) {
    it->second.dead_letters += 1;
    it->second.last_touch = ++shard.clock;
    result.status = AdmitResult::Status::kDeadLettered;
    result.reason = to_string(AdmissionFault::kDecideFault);
    result.dead_letters = 1;
    return nullptr;
  }

  // Stateful classification: the engine flags statelessly detectable
  // poison; the store adds the per-user monotonicity check (strict
  // regressions only — equal timestamps are legal).
  const char* fault = poisoned ? poison_reason : nullptr;
  if (fault == nullptr && it != shard.states.end() &&
      it->second.has_last_time && event.record.time < it->second.last_time) {
    fault = to_string(AdmissionFault::kNonMonotonicTime);
  }

  if (fault != nullptr && policy != BadRecordPolicy::kQuarantine) {
    // kFail / kSkip: drop without creating state; the engine decides
    // whether the drop aborts the run.
    result.status = AdmitResult::Status::kRejected;
    result.reason = fault;
    return nullptr;
  }

  if (it == shard.states.end()) {
    if (config_.max_users_per_shard > 0 &&
        shard.states.size() >= config_.max_users_per_shard) {
      evict_one(shard, shard_index);
    }
    it = shard.states.emplace(event.user, UserState{}).first;
    it->second.user = event.user;
    // The window must carry the owner's id: the kernel keys its noise
    // streams and targeted attack queries on window.user().
    it->second.kernel.window.set_user(event.user);
  }
  UserState& state = it->second;
  state.last_touch = ++shard.clock;

  if (fault != nullptr) {
    // Quarantine trips on the poisoned event: freeze the kernel state and
    // dead-letter the event plus any pending points (they share the
    // compromised source).
    state.quarantined = true;
    state.quarantine_reason = fault;
    const std::uint64_t flushed = state.pending.size() + 1;
    state.pending.clear();
    state.dead_letters += flushed;
    result.status = AdmitResult::Status::kQuarantined;
    result.reason = fault;
    result.dead_letters = flushed;
    return nullptr;
  }

  state.pending.push_back(event.record);
  state.has_last_time = true;
  state.last_time = event.record.time;
  result.status = AdmitResult::Status::kAdmitted;
  return &state;
}

AdmitResult UserStateStore::admit_and_process(
    const StreamEvent& event, BadRecordPolicy policy, bool poisoned,
    const char* poison_reason, const std::function<void(UserState&)>& fn) {
  const std::size_t shard_index = shard_of(event.user);
  Shard& shard = shards_[shard_index];
  const std::lock_guard lock(shard.mutex);
  AdmitResult result;
  UserState* state = admit_locked(shard, shard_index, event, policy,
                                  poisoned, poison_reason, result);
  if (state != nullptr) fn(*state);
  return result;
}

void UserStateStore::for_each(const std::function<void(UserState&)>& fn) {
  for (Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    for (auto& [user, state] : shard.states) fn(state);
  }
}

void UserStateStore::for_each(
    const std::function<void(const UserState&)>& fn) const {
  for (const Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    for (const auto& [user, state] : shard.states) fn(state);
  }
}

std::size_t UserStateStore::user_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    n += shard.states.size();
  }
  return n;
}

void UserStateStore::restore_user(UserState state) {
  Shard& shard = shards_[shard_of(state.user)];
  const std::lock_guard lock(shard.mutex);
  const mobility::UserId user = state.user;
  shard.states.insert_or_assign(user, std::move(state));
}

std::vector<std::uint64_t> UserStateStore::shard_clocks() const {
  std::vector<std::uint64_t> clocks;
  clocks.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    clocks.push_back(shard.clock);
  }
  return clocks;
}

void UserStateStore::restore_shard_clocks(
    const std::vector<std::uint64_t>& clocks) {
  support::expects(clocks.size() == shards_.size(),
                   "UserStateStore::restore_shard_clocks: shard count "
                   "mismatch");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::lock_guard lock(shards_[i].mutex);
    shards_[i].clock = clocks[i];
  }
}

std::uint64_t UserStateStore::eviction_count() const {
  return evictions_->value();
}

}  // namespace mood::stream
