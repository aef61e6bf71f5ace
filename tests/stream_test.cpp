// Tests for the online MooD gateway (src/stream): sharded user-state
// store semantics, incremental-vs-full profile equivalence (the AP
// heatmap exactly, PIT/POI under the staleness-rebuild policy), and the
// StreamEngine/Replay pipeline's headline invariant — final streamed
// decisions are bit-identical to the batch evaluators, independent of
// the shard count and the worker interleaving.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attacks/ap_attack.h"
#include "attacks/pit_attack.h"
#include "attacks/poi_attack.h"
#include "clustering/incremental_stays.h"
#include "clustering/poi_extraction.h"
#include "core/experiment.h"
#include "geo/geo.h"
#include "profiles/heatmap.h"
#include "profiles/markov_profile.h"
#include "profiles/poi_profile.h"
#include "simulation/generator.h"
#include "stream/engine.h"
#include "stream/event.h"
#include "stream/replay.h"
#include "stream/resilience.h"
#include "stream/snapshot.h"
#include "stream/user_state.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/logging.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace mood::stream {
namespace {

/// Compact population in the integration-test mold: routine users with
/// mostly-private POIs, so both expose and protect verdicts appear.
simulation::GeneratorParams population_params() {
  simulation::GeneratorParams p;
  p.users = 10;
  p.days = 6;
  p.records_per_user_per_day = 120.0;
  p.p_private_poi = 0.75;
  p.p_private_leisure = 0.8;
  p.private_poi_spread_m = 4000.0;
  p.relocation_prob = 0.1;
  p.seed = 4321;
  return p;
}

class StreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    support::set_log_level(support::LogLevel::kWarn);
    dataset_ = new mobility::Dataset(
        simulation::generate(population_params()));
    core::ExperimentConfig config;
    config.min_records = 8;
    harness_ = new core::ExperimentHarness(*dataset_, config, /*seed=*/11);
    events_ = new std::vector<StreamEvent>(
        make_event_stream(harness_->pairs()));
  }
  static void TearDownTestSuite() {
    delete events_;
    delete harness_;
    delete dataset_;
    events_ = nullptr;
    harness_ = nullptr;
    dataset_ = nullptr;
  }

  void TearDown() override { testing::FailPoint::disarm_all(); }

  /// Replays the shared event stream through a fresh gateway and returns
  /// (decisions, result).
  static ReplayResult replay_with(StreamConfig config,
                                  ReplayOptions options = {}) {
    StreamEngine engine(harness_->make_engine(), config);
    return run_replay(engine, *events_, options);
  }

  static mobility::Dataset* dataset_;
  static core::ExperimentHarness* harness_;
  static std::vector<StreamEvent>* events_;
};

mobility::Dataset* StreamTest::dataset_ = nullptr;
core::ExperimentHarness* StreamTest::harness_ = nullptr;
std::vector<StreamEvent>* StreamTest::events_ = nullptr;

// ------------------------------------------------------ event stream --

TEST_F(StreamTest, EventStreamIsTimeOrderedAndComplete) {
  std::size_t expected = 0;
  for (const auto& pair : harness_->pairs()) expected += pair.test.size();
  ASSERT_EQ(events_->size(), expected);
  for (std::size_t i = 1; i < events_->size(); ++i) {
    EXPECT_LE((*events_)[i - 1].record.time, (*events_)[i].record.time);
    EXPECT_EQ((*events_)[i].seq, i);
  }
}

TEST_F(StreamTest, EventStreamReassemblesEachUsersTestTrace) {
  std::unordered_map<mobility::UserId, std::vector<mobility::Record>> rebuilt;
  for (const auto& event : *events_) {
    rebuilt[event.user].push_back(event.record);
  }
  for (const auto& pair : harness_->pairs()) {
    const auto it = rebuilt.find(pair.test.user());
    ASSERT_NE(it, rebuilt.end());
    EXPECT_EQ(it->second, pair.test.records());
  }
}

// -------------------------------------------------------------- store --

/// Store callbacks: fold (consume the pending queue, as the engine's
/// worker does) or keep (leave the admitted points pending).
void fold_all(UserState& state) { state.pending.clear(); }
void keep_pending(UserState&) {}

AdmitResult admit(UserStateStore& store, const std::string& user,
                  mobility::Timestamp time,
                  void (*fn)(UserState&) = fold_all) {
  return store.admit_and_process(StreamEvent{user, {{45.0, 5.0}, time}, 0},
                                 BadRecordPolicy::kSkip, false, nullptr, fn);
}

TEST(UserStateStore, ShardingIsStableAndAdmitRunsTheUserCallback) {
  UserStateStore store(StoreConfig{4, 0});
  EXPECT_EQ(store.shard_count(), 4u);
  EXPECT_EQ(store.shard_of("alice"), store.shard_of("alice"));

  // Each admitted event runs the callback once, on its own user's state,
  // with exactly that event pending.
  std::vector<std::pair<std::string, std::size_t>> calls;
  const auto record = [&](UserState& state) {
    calls.emplace_back(state.user, state.pending.size());
    state.pending.clear();
  };
  for (const auto& [user, time] :
       std::vector<std::pair<std::string, mobility::Timestamp>>{
           {"alice", 100}, {"alice", 200}, {"bob", 150}}) {
    const AdmitResult result = store.admit_and_process(
        StreamEvent{user, {{45.0, 5.0}, time}, 0}, BadRecordPolicy::kSkip,
        false, nullptr, record);
    EXPECT_EQ(result.status, AdmitResult::Status::kAdmitted);
    EXPECT_EQ(result.shard, store.shard_of(user));
  }
  EXPECT_EQ(store.user_count(), 2u);
  EXPECT_EQ(calls, (std::vector<std::pair<std::string, std::size_t>>{
                       {"alice", 1}, {"alice", 1}, {"bob", 1}}));

  // A rejected event (alice's clock regressed) never reaches the callback.
  const AdmitResult rejected = store.admit_and_process(
      StreamEvent{"alice", {{45.0, 5.0}, 50}, 0}, BadRecordPolicy::kSkip,
      false, nullptr, record);
  EXPECT_EQ(rejected.status, AdmitResult::Status::kRejected);
  EXPECT_EQ(calls.size(), 3u);
}

TEST(UserStateStore, LruEvictionPrefersLeastRecentlyTouchedCleanUser) {
  // One shard so every user competes for the same capacity.
  UserStateStore store(StoreConfig{1, 2});
  admit(store, "a", 100);
  admit(store, "b", 200);
  // Touch "a" again, leaving a point pending, so "b" is the clean LRU
  // candidate.
  admit(store, "a", 300, keep_pending);

  admit(store, "c", 400);
  EXPECT_EQ(store.user_count(), 2u);
  EXPECT_EQ(store.eviction_count(), 1u);

  std::vector<std::string> resident;
  store.for_each([&](UserState& state) { resident.push_back(state.user); });
  std::sort(resident.begin(), resident.end());
  EXPECT_EQ(resident, (std::vector<std::string>{"a", "c"}));
}

TEST(UserStateStore, RejectsZeroShards) {
  EXPECT_THROW(UserStateStore(StoreConfig{0, 0}), support::PreconditionError);
}

/// The exact --max-users boundary with *every* resident state holding
/// unfolded points: the store must still admit the newcomer by evicting
/// the least-recently-touched user and lose no pending point of the
/// survivors.
TEST(UserStateStore, EvictionAtExactCapacityWhenEveryResidentIsDirty) {
  UserStateStore store(StoreConfig{1, 2});
  admit(store, "a", 100, keep_pending);
  admit(store, "b", 200, keep_pending);
  admit(store, "b", 250, keep_pending);
  ASSERT_EQ(store.user_count(), 2u);  // at the exact capacity bound

  // Both residents hold unfolded points. Admitting "c" must evict "a"
  // (least-recently-touched; the all-dirty fallback).
  admit(store, "c", 300, keep_pending);
  EXPECT_EQ(store.user_count(), 2u);
  EXPECT_EQ(store.eviction_count(), 1u);

  // Re-admitting a resident at the bound must NOT evict anyone.
  admit(store, "b", 350, keep_pending);
  EXPECT_EQ(store.user_count(), 2u);
  EXPECT_EQ(store.eviction_count(), 1u);

  // The survivors keep their queues intact.
  std::unordered_map<std::string, std::size_t> pending;
  store.for_each([&](UserState& state) {
    pending[state.user] = state.pending.size();
  });
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending.at("b"), 3u);
  EXPECT_EQ(pending.at("c"), 1u);
}

// ------------------------------- incremental profile equivalence --------

/// The satellite property test: stream a real test trace point by point;
/// after every point the incrementally maintained profiles must be
/// decision-identical to a one-shot compile for all three attacks (and
/// the AP heatmap bit-identical cell for cell).
TEST_F(StreamTest, IncrementalProfilesAreDecisionIdenticalPointByPoint) {
  const attacks::ApAttack* ap = nullptr;
  const attacks::PitAttack* pit = nullptr;
  const attacks::PoiAttack* poi = nullptr;
  for (const auto& attack : harness_->attacks()) {
    if (ap == nullptr) ap = dynamic_cast<const attacks::ApAttack*>(attack.get());
    if (pit == nullptr) {
      pit = dynamic_cast<const attacks::PitAttack*>(attack.get());
    }
    if (poi == nullptr) {
      poi = dynamic_cast<const attacks::PoiAttack*>(attack.get());
    }
  }
  ASSERT_NE(ap, nullptr);
  ASSERT_NE(pit, nullptr);
  ASSERT_NE(poi, nullptr);

  const auto& pair = harness_->pairs().front();
  const mobility::UserId owner = pair.test.user();

  mobility::Trace window;
  window.set_user(owner);
  auto heatmap =
      profiles::CompiledHeatmap::incremental(window, ap->grid());
  for (const auto& record : pair.test.records()) {
    window.append(record);
    heatmap.apply_update({record}, {}, ap->grid());

    // AP: the folded heatmap is bit-identical to a from-scratch compile.
    const auto fresh =
        profiles::CompiledHeatmap::from_trace(window, ap->grid());
    ASSERT_EQ(heatmap.cell_count(), fresh.cell_count());
    for (std::size_t c = 0; c < fresh.cell_count(); ++c) {
      ASSERT_EQ(heatmap.cells()[c].cell, fresh.cells()[c].cell);
      ASSERT_EQ(heatmap.cells()[c].probability,
                fresh.cells()[c].probability);
      ASSERT_EQ(heatmap.cells()[c].self_term, fresh.cells()[c].self_term);
      ASSERT_EQ(heatmap.cells()[c].solo_term, fresh.cells()[c].solo_term);
    }
    ASSERT_EQ(ap->reidentifies_compiled(heatmap, owner),
              ap->reidentifies_target(window, owner));

    // PIT / POI: the compiled-anonymous path equals the trace-based path.
    ASSERT_EQ(pit->reidentifies_compiled(pit->compile_anonymous(window),
                                         owner),
              pit->reidentifies_target(window, owner));
    ASSERT_EQ(poi->reidentifies_compiled(poi->compile_anonymous(window),
                                         owner),
              poi->reidentifies_target(window, owner));
  }
}

TEST_F(StreamTest, IncrementalHeatmapSurvivesSlidingWindowEviction) {
  const auto* ap = dynamic_cast<const attacks::ApAttack*>(
      harness_->attacks()[harness_->ap_attack_index()].get());
  ASSERT_NE(ap, nullptr);
  const auto& pair = harness_->pairs().front();
  const auto& records = pair.test.records();
  const std::size_t cap = 40;

  mobility::Trace window;
  window.set_user(pair.test.user());
  auto heatmap =
      profiles::CompiledHeatmap::incremental(window, ap->grid());
  for (std::size_t i = 0; i < records.size(); ++i) {
    window.append(records[i]);
    std::vector<mobility::Record> evicted;
    if (window.size() > cap) {
      evicted.assign(window.records().begin(),
                     window.records().begin() +
                         static_cast<std::ptrdiff_t>(window.size() - cap));
      window.drop_front(window.size() - cap);
    }
    heatmap.apply_update({records[i]}, evicted, ap->grid());
  }
  const auto fresh =
      profiles::CompiledHeatmap::from_trace(window, ap->grid());
  ASSERT_EQ(heatmap.cell_count(), fresh.cell_count());
  for (std::size_t c = 0; c < fresh.cell_count(); ++c) {
    EXPECT_EQ(heatmap.cells()[c].cell, fresh.cells()[c].cell);
    EXPECT_EQ(heatmap.cells()[c].probability, fresh.cells()[c].probability);
  }
}

void expect_same_markov(const profiles::CompiledMarkovProfile& actual,
                        const profiles::CompiledMarkovProfile& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t s = 0; s < expected.size(); ++s) {
    ASSERT_EQ(actual.states()[s].weight, expected.states()[s].weight);
    ASSERT_EQ(actual.states()[s].center.lat_rad,
              expected.states()[s].center.lat_rad);
    ASSERT_EQ(actual.states()[s].center.lon_deg,
              expected.states()[s].center.lon_deg);
    ASSERT_EQ(actual.states()[s].center.cos_lat,
              expected.states()[s].center.cos_lat);
  }
}

void expect_same_poi(const profiles::CompiledPoiProfile& actual,
                     const profiles::CompiledPoiProfile& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t c = 0; c < expected.size(); ++c) {
    ASSERT_EQ(actual.centers()[c].lat_rad, expected.centers()[c].lat_rad);
    ASSERT_EQ(actual.centers()[c].lon_deg, expected.centers()[c].lon_deg);
    ASSERT_EQ(actual.centers()[c].cos_lat, expected.centers()[c].cos_lat);
  }
}

/// from_states (the decision kernel's shared-tracker compile path) must
/// be bit-identical to routing through the full legacy profile pipeline.
TEST_F(StreamTest, FromStatesMatchesLegacyCompiledProfiles) {
  const auto* pit = dynamic_cast<const attacks::PitAttack*>(
      harness_->attacks()[1].get());
  const auto* poi = dynamic_cast<const attacks::PoiAttack*>(
      harness_->attacks()[0].get());
  ASSERT_NE(pit, nullptr);
  ASSERT_NE(poi, nullptr);
  const auto params = pit->params();
  for (const auto& pair : harness_->pairs()) {
    const auto seq = clustering::build_visit_sequence(
        clustering::extract_pois(pair.test, params), params.max_diameter_m);
    expect_same_markov(profiles::CompiledMarkovProfile::from_states(seq.states),
                       pit->compile_anonymous(pair.test));
    expect_same_poi(profiles::CompiledPoiProfile::from_states(seq.states),
                    poi->compile_anonymous(pair.test));
  }
}

/// The PR 5 tentpole property: the incrementally maintained PIT and POI
/// compiled profiles are bit-identical to a from-scratch compile after
/// every single appended point (no eviction, so the pinned origin equals
/// the window front and the oracle is the attacks' own compile path).
TEST_F(StreamTest, IncrementalMarkovAndPoiMatchFromScratchPointByPoint) {
  const auto* pit = dynamic_cast<const attacks::PitAttack*>(
      harness_->attacks()[1].get());
  const auto* poi = dynamic_cast<const attacks::PoiAttack*>(
      harness_->attacks()[0].get());
  ASSERT_NE(pit, nullptr);
  ASSERT_NE(poi, nullptr);
  const auto& pair = harness_->pairs().front();
  const auto params = pit->params();

  mobility::Trace window;
  window.set_user(pair.test.user());
  auto markov = profiles::CompiledMarkovProfile::incremental(window, params);
  auto poi_profile = profiles::CompiledPoiProfile::incremental(window, params);
  ASSERT_TRUE(markov.updatable());
  ASSERT_TRUE(poi_profile.updatable());
  for (const auto& record : pair.test.records()) {
    window.append(record);
    markov.apply_update(window, 1, 0);
    poi_profile.apply_update(window, 1, 0);
    expect_same_markov(markov, pit->compile_anonymous(window));
    expect_same_poi(poi_profile, poi->compile_anonymous(window));
  }
  // The targeted queries therefore agree with the trace-based entry points.
  EXPECT_EQ(pit->reidentifies_compiled(markov, pair.test.user()),
            pit->reidentifies_target(pair.test, pair.test.user()));
  EXPECT_EQ(poi->reidentifies_compiled(poi_profile, pair.test.user()),
            poi->reidentifies_target(pair.test, pair.test.user()));
}

/// Same property under a sliding window: per-point add + front eviction.
/// Once the front has been evicted the oracle is the same pipeline with
/// the projection pinned at the first-ever record (extract_pois' origin
/// overload) — clean prefix drops and the bounded rebuild fallback must
/// both land exactly there.
TEST_F(StreamTest, IncrementalMarkovAndPoiSurviveSlidingWindowEviction) {
  const auto* pit = dynamic_cast<const attacks::PitAttack*>(
      harness_->attacks()[1].get());
  ASSERT_NE(pit, nullptr);
  const auto& pair = harness_->pairs().front();
  const auto& records = pair.test.records();
  const auto params = pit->params();
  const geo::GeoPoint origin = records.front().position;
  const std::size_t cap = 60;

  mobility::Trace window;
  window.set_user(pair.test.user());
  auto markov = profiles::CompiledMarkovProfile::incremental(window, params);
  auto poi_profile = profiles::CompiledPoiProfile::incremental(window, params);
  const auto oracle_states = [&] {
    return clustering::build_visit_sequence(
               clustering::extract_pois(window, params, origin),
               params.max_diameter_m)
        .states;
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    window.append(records[i]);
    std::size_t evicted = 0;
    if (window.size() > cap) {
      evicted = window.size() - cap;
      window.drop_front(evicted);
    }
    markov.apply_update(window, 1, evicted);
    poi_profile.apply_update(window, 1, evicted);
    if (i % 16 == 0 || i + 1 == records.size()) {
      const auto states = oracle_states();
      expect_same_markov(markov,
                         profiles::CompiledMarkovProfile::from_states(states));
      expect_same_poi(poi_profile,
                      profiles::CompiledPoiProfile::from_states(states));
    }
  }
  // The window slid, so the tracker really exercised the eviction paths.
  EXPECT_GT(markov.tracker().updates(), 0u);
  EXPECT_EQ(markov.tracker().origin().lat, origin.lat);
  EXPECT_EQ(markov.tracker().origin().lon, origin.lon);
}

TEST_F(StreamTest, ApplyUpdateOnNonUpdatableProfilesThrows) {
  const auto* pit = dynamic_cast<const attacks::PitAttack*>(
      harness_->attacks()[1].get());
  ASSERT_NE(pit, nullptr);
  const auto& pair = harness_->pairs().front();
  auto markov = pit->compile_anonymous(pair.test);
  EXPECT_FALSE(markov.updatable());
  EXPECT_THROW(markov.apply_update(pair.test, 0, 0),
               support::PreconditionError);
  profiles::CompiledPoiProfile poi_profile;
  EXPECT_THROW(poi_profile.apply_update(pair.test, 0, 0),
               support::PreconditionError);
}

// ----------------------------------------- gateway vs batch harness ----

/// Shared oracle: the batch evaluators' answers on the same harness.
struct BatchOracle {
  std::unordered_map<mobility::UserId, bool> exposed;
  std::unordered_map<mobility::UserId, std::string> winner;
};

BatchOracle batch_oracle(const core::ExperimentHarness& harness) {
  BatchOracle oracle;
  const auto no_lppm = harness.evaluate_no_lppm();
  const auto engine = harness.make_engine();
  for (const auto& user : no_lppm.users) {
    oracle.exposed[user.user] = user.is_protected;
  }
  for (const auto& pair : harness.pairs()) {
    if (oracle.exposed.at(pair.test.user())) continue;
    const auto candidate = engine.search(pair.test);
    oracle.winner[pair.test.user()] = candidate ? candidate->lppm : "";
  }
  return oracle;
}

void expect_matches_batch(const std::vector<UserDecision>& decisions,
                          const BatchOracle& oracle) {
  ASSERT_EQ(decisions.size(), oracle.exposed.size());
  for (const auto& decision : decisions) {
    const bool exposed = decision.decision == Decision::kExpose;
    ASSERT_TRUE(oracle.exposed.contains(decision.user)) << decision.user;
    EXPECT_EQ(exposed, oracle.exposed.at(decision.user)) << decision.user;
    if (!exposed) {
      EXPECT_EQ(decision.winner, oracle.winner.at(decision.user))
          << decision.user;
    } else {
      EXPECT_TRUE(decision.winner.empty()) << decision.user;
    }
  }
}

/// A gateway config with `shards` shards and every other knob at its
/// default.
StreamConfig sharded(std::size_t shards) {
  StreamConfig config;
  config.shards = shards;
  return config;
}

/// Final decisions (user, verdict, winner, folded events) agree.
void expect_same_decisions(const std::vector<UserDecision>& actual,
                           const std::vector<UserDecision>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].user, expected[i].user);
    EXPECT_EQ(actual[i].decision, expected[i].decision) << actual[i].user;
    EXPECT_EQ(actual[i].winner, expected[i].winner) << actual[i].user;
    EXPECT_EQ(actual[i].events, expected[i].events) << actual[i].user;
  }
}

TEST_F(StreamTest, FinalDecisionsMatchBatchEvaluators) {
  const BatchOracle oracle = batch_oracle(*harness_);
  const auto result = replay_with(sharded(1));
  expect_matches_batch(result.decisions, oracle);
  EXPECT_EQ(result.stats.exposed_events + result.stats.protected_events,
            result.events);
}

TEST_F(StreamTest, DecisionsAreIndependentOfShardsBatchAndParallelism) {
  // One worker per shard: 1, 3 and 7 shards interleave the users'
  // sub-streams across threads differently, and must not move a verdict.
  const auto reference = replay_with(sharded(4));
  for (const std::size_t shards : {1u, 3u, 7u}) {
    expect_same_decisions(replay_with(sharded(shards)).decisions,
                          reference.decisions);
  }
}

TEST_F(StreamTest, StalenessBoundIsRepairedByFinish) {
  const BatchOracle oracle = batch_oracle(*harness_);
  StreamConfig config;
  config.shards = 4;
  config.staleness_points = 150;  // serve stale PIT/POI profiles mid-stream
  const auto result = replay_with(config);
  expect_matches_batch(result.decisions, oracle);

  // The bound must actually have saved refresh work relative to the
  // always-fresh default.
  StreamConfig fresh = config;
  fresh.staleness_points = 0;
  EXPECT_LT(result.stats.profile_refreshes,
            replay_with(fresh).stats.profile_refreshes);
}

TEST_F(StreamTest, WindowCapsBoundTheResidentWindow) {
  StreamConfig config;
  config.shards = 2;
  config.max_points = 50;
  const auto result = replay_with(config);
  EXPECT_GT(result.stats.evicted_points, 0u);
  for (const auto& decision : result.decisions) {
    EXPECT_LE(decision.window_points, 50u);
  }
}

TEST_F(StreamTest, LruCapEvictsUsers) {
  StreamConfig config;
  config.shards = 1;
  config.max_users_per_shard = 3;
  const auto result = replay_with(config);
  EXPECT_GT(result.stats.evicted_users, 0u);
  EXPECT_LE(result.decisions.size(), 3u);
}

// -------------------------------------------------------------- replay --

TEST_F(StreamTest, ReplayMeasuresThroughputAndOrderedLatencies) {
  const auto result = replay_with(sharded(4));

  EXPECT_EQ(result.events, events_->size());
  EXPECT_EQ(result.session_events, events_->size());
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.events_per_second, 0.0);
  EXPECT_GE(result.latency.p50, 0.0);
  EXPECT_LE(result.latency.p50, result.latency.p95);
  EXPECT_LE(result.latency.p95, result.latency.p99);
  EXPECT_LE(result.latency.p99, result.latency.max);
}

TEST_F(StreamTest, ReplayLatencyHistogramCoversEveryEvent) {
  const StreamConfig config = sharded(4);
  const auto result = replay_with(config);

  // Every ingested event records exactly one latency sample on its
  // owning shard's lane; the merged histogram is the lane sum.
  EXPECT_EQ(result.latency_histogram.count, result.events);
  ASSERT_EQ(result.latency_per_shard.size(), config.shards);
  std::uint64_t lane_total = 0;
  for (const auto& lane : result.latency_per_shard) lane_total += lane.count;
  EXPECT_EQ(lane_total, result.latency_histogram.count);

  // The summary is derived from the histogram, not a sample vector.
  EXPECT_DOUBLE_EQ(result.latency.p50,
                   result.latency_histogram.percentile(0.50));
  EXPECT_DOUBLE_EQ(result.latency.p95,
                   result.latency_histogram.percentile(0.95));
  EXPECT_DOUBLE_EQ(result.latency.p99,
                   result.latency_histogram.percentile(0.99));
  EXPECT_DOUBLE_EQ(result.latency.mean, result.latency_histogram.mean());
}

TEST_F(StreamTest, StageTimersOffChangesNoDecision) {
  const StreamConfig timed = sharded(4);
  const auto reference = replay_with(timed);

  StreamConfig untimed = timed;
  untimed.telemetry.stage_timers = false;
  const auto result = replay_with(untimed);
  expect_same_decisions(result.decisions, reference.decisions);
  // Replay latency is always on (it is the report's headline metric);
  // only the per-stage histograms go quiet.
  EXPECT_EQ(result.latency_histogram.count, result.events);
  StreamEngine probe(harness_->make_engine(), untimed);
  probe.ingest((*events_)[0]);
  probe.quiesce();
  for (const auto& entry : probe.metrics_snapshot().histograms) {
    if (entry.name.rfind("mood_stage_", 0) == 0) {
      EXPECT_TRUE(entry.merged.empty()) << entry.name;
    }
  }
}

TEST_F(StreamTest, MetricsSnapshotMirrorsGatewayCounters) {
  StreamEngine engine(harness_->make_engine(), sharded(2));
  const auto result = run_replay(engine, *events_, {});

  const telemetry::MetricsSnapshot snapshot = engine.metrics_snapshot();
  const auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& [n, v] : snapshot.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  const auto gauge = [&](std::string_view name) -> double {
    for (const auto& [n, v] : snapshot.gauges) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing gauge " << name;
    return -1.0;
  };
  EXPECT_EQ(counter("mood_stream_events_total"), result.events);
  EXPECT_DOUBLE_EQ(gauge("mood_gateway_events"), double(result.stats.events));
  EXPECT_DOUBLE_EQ(gauge("mood_gateway_searches"),
                   double(result.stats.searches));
  // finish() retired the workers with every ring empty.
  EXPECT_DOUBLE_EQ(gauge("mood_queue_depth"), 0.0);
  // Names are sorted, and the exposition of a live engine renders.
  EXPECT_TRUE(std::is_sorted(
      snapshot.counters.begin(), snapshot.counters.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  const std::string text = telemetry::render_exposition(snapshot);
  EXPECT_NE(text.find("# TYPE mood_replay_latency_seconds histogram"),
            std::string::npos);
}

TEST_F(StreamTest, TelemetryOnRestoredReplayDiffsCleanAgainstStraight) {
  // Stage timers + an active trace session must not perturb the
  // restart drill: a restored gateway's decisions and continued stats
  // stay byte-identical to an uninterrupted run's.
  telemetry::TraceSession::instance().start(1 << 12);
  const StreamConfig config = sharded(2);

  StreamEngine straight(harness_->make_engine(), config);
  const auto reference = run_replay(straight, *events_, {});

  const std::size_t cut = 512;
  StreamEngine first(harness_->make_engine(), config);
  for (std::size_t i = 0; i < cut; ++i) first.ingest((*events_)[i]);
  first.quiesce();
  const SnapshotData snap =
      decode_snapshot(encode_snapshot(first.capture_snapshot()));
  StreamEngine second(harness_->make_engine(), config);
  second.restore_snapshot(snap);
  ReplayOptions options;
  options.resume_events = cut;
  const auto resumed = run_replay(second, *events_, options);
  telemetry::TraceSession::instance().stop();

  expect_same_decisions(resumed.decisions, reference.decisions);
  EXPECT_EQ(resumed.stats.events, reference.stats.events);
  EXPECT_EQ(resumed.stats.decisions, reference.stats.decisions);
  // The latency histogram is session-scoped: the resumed process only
  // measured the events it replayed itself.
  EXPECT_EQ(resumed.latency_histogram.count, events_->size() - cut);
}

TEST_F(StreamTest, ReplayOfEmptyStreamIsWellFormed) {
  StreamEngine engine(harness_->make_engine(), StreamConfig{});
  const auto result = run_replay(engine, {});
  EXPECT_EQ(result.events, 0u);
  EXPECT_TRUE(result.decisions.empty());
}

TEST_F(StreamTest, ReplayRejectsMisalignedOrOverlongResume) {
  // Every quiesced cut is a valid resume position, so the only misaligned
  // resume is one past the stream end; bad pacing knobs are refused too.
  StreamEngine engine(harness_->make_engine(), StreamConfig{});
  ReplayOptions options;
  options.resume_events = events_->size() + 1;
  EXPECT_THROW(run_replay(engine, *events_, options),
               support::PreconditionError);
  options.resume_events = 0;
  options.target_rate = -1.0;
  EXPECT_THROW(run_replay(engine, *events_, options),
               support::PreconditionError);
}

// ---------------------------------------------------------- resilience --

TEST(BadRecordPolicyTest, ParsesSpellingsAndRejectsUnknowns) {
  EXPECT_EQ(parse_bad_record_policy("fail"), BadRecordPolicy::kFail);
  EXPECT_EQ(parse_bad_record_policy("skip"), BadRecordPolicy::kSkip);
  EXPECT_EQ(parse_bad_record_policy("quarantine"),
            BadRecordPolicy::kQuarantine);
  EXPECT_THROW(parse_bad_record_policy("explode"), support::UsageError);
  EXPECT_EQ(to_string(BadRecordPolicy::kQuarantine), "quarantine");
}

TEST_F(StreamTest, StrictAdmissionThrowsTypedBadRecordError) {
  const StreamConfig config = sharded(1);

  // An unattributable id is classified on the producer: ingest throws.
  StreamEngine id_engine(harness_->make_engine(), config);
  StreamEvent huge = (*events_)[0];
  huge.user = std::string(kMaxUserIdBytes + 1, 'x');
  EXPECT_THROW(id_engine.ingest(huge), BadRecordError);

  // A finite coordinate outside the legal band is flagged on the producer
  // and rejected by the shard worker; the typed error surfaces no later
  // than the quiesce barrier.
  StreamEngine off_planet(harness_->make_engine(), config);
  StreamEvent bad = (*events_)[0];
  bad.record.position.lat = 95.0;
  EXPECT_EQ(off_planet.ingest(bad), IngestStatus::kAdmitted);
  EXPECT_THROW(off_planet.quiesce(), BadRecordError);

  // Per-user timestamp regression; an exact tie stays legal (real exports
  // carry same-second fixes routinely).
  StreamEngine time_engine(harness_->make_engine(), config);
  const StreamEvent first = (*events_)[0];
  EXPECT_EQ(time_engine.ingest(first), IngestStatus::kAdmitted);
  EXPECT_EQ(time_engine.ingest(first), IngestStatus::kAdmitted);
  EXPECT_NO_THROW(time_engine.quiesce());
  StreamEvent regressed = first;
  regressed.record.time -= 100;
  time_engine.ingest(regressed);
  EXPECT_THROW(time_engine.quiesce(), BadRecordError);
}

TEST_F(StreamTest, SkipPolicyDropsBadRecordsAndCounts) {
  StreamConfig config = sharded(1);
  config.resilience.on_bad_record = BadRecordPolicy::kSkip;
  StreamEngine engine(harness_->make_engine(), config);

  // The worker dispositions the flagged event: ingest admits it to the
  // ring, the outcome shows in the counters.
  StreamEvent bad = (*events_)[0];
  bad.record.position.lon = std::numeric_limits<double>::infinity();
  EXPECT_EQ(engine.ingest(bad), IngestStatus::kAdmitted);
  EXPECT_EQ(engine.ingest((*events_)[0]), IngestStatus::kAdmitted);
  engine.finish();

  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.bad_records, 1u);
  EXPECT_EQ(stats.quarantined_users, 0u);
  EXPECT_EQ(stats.dead_letters, 0u);
  // Every presented event advances the stream position, rejected or not,
  // so checkpoint/resume indices stay aligned with the replay stream.
  EXPECT_EQ(stats.events, 2u);
  const auto decisions = engine.decisions();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_FALSE(decisions[0].quarantined);
  EXPECT_EQ(decisions[0].events, 1u);
}

/// The first user id in sorted order — inject_poison's first victim.
mobility::UserId first_user(const std::vector<StreamEvent>& events) {
  mobility::UserId victim = events.front().user;
  for (const StreamEvent& event : events) victim = std::min(victim, event.user);
  return victim;
}

TEST_F(StreamTest, QuarantineIsolatesPoisonedUserFromHealthyDecisions) {
  const StreamConfig config = sharded(4);
  const auto clean = replay_with(config);

  std::vector<StreamEvent> poisoned_events = *events_;
  PoisonSpec spec;
  spec.users = 1;
  spec.stride = 3;
  ASSERT_GT(inject_poison(poisoned_events, spec), 0u);
  const mobility::UserId victim = first_user(*events_);

  StreamConfig quarantine = config;
  quarantine.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
  StreamEngine engine(harness_->make_engine(), quarantine);
  const auto result = run_replay(engine, poisoned_events, {});

  EXPECT_EQ(result.stats.quarantined_users, 1u);
  EXPECT_GT(result.stats.bad_records, 0u);
  EXPECT_GT(result.stats.dead_letters, 0u);
  ASSERT_EQ(result.decisions.size(), clean.decisions.size());
  for (std::size_t i = 0; i < clean.decisions.size(); ++i) {
    const UserDecision& a = result.decisions[i];
    const UserDecision& e = clean.decisions[i];
    ASSERT_EQ(a.user, e.user);
    if (a.user == victim) {
      EXPECT_TRUE(a.quarantined);
      EXPECT_FALSE(a.quarantine_reason.empty());
      EXPECT_GT(a.dead_letters, 0u);
      continue;
    }
    // The headline isolation property: one poisoned neighbour must not
    // perturb a healthy user's outcome in any observable way.
    EXPECT_FALSE(a.quarantined) << a.user;
    EXPECT_EQ(a.decision, e.decision) << a.user;
    EXPECT_EQ(a.winner, e.winner) << a.user;
    EXPECT_EQ(a.events, e.events) << a.user;
    EXPECT_EQ(a.risk_transitions, e.risk_transitions) << a.user;
    EXPECT_EQ(a.searches, e.searches) << a.user;
    EXPECT_EQ(a.window_points, e.window_points) << a.user;
  }
}

TEST_F(StreamTest, ShedHysteresisEngagesBetweenWatermarksAndReleases) {
  // One shard, workers held back, N events pre-filled: the ring depth the
  // worker reads at its k-th dequeue (0-based) is exactly N - k, so the
  // latch's whole life is a function of N and the watermarks.
  constexpr std::size_t kN = 200;
  constexpr std::size_t kHigh = 64;
  constexpr std::size_t kLow = 16;
  StreamConfig config = sharded(1);
  config.loop_autostart = false;
  config.resilience.shed_high_watermark = kHigh;
  config.resilience.shed_low_watermark = kLow;
  StreamEngine engine(harness_->make_engine(), config);
  for (std::size_t i = 0; i < kN; ++i) engine.ingest((*events_)[i]);
  engine.start_loop();
  engine.quiesce();

  // Engage at depth N >= high (k = 0), hold while the depth falls through
  // the band between the watermarks, release at depth == low. So the
  // first N - low dequeues shed — except each user's first-ever verdict,
  // which shedding never degrades (fail-closed).
  std::set<mobility::UserId> first_seen;
  for (std::size_t k = 0; k < kN - kLow; ++k) {
    first_seen.insert((*events_)[k].user);
  }
  const StreamStats engaged = engine.stats();
  EXPECT_EQ(engaged.degraded_batches, 1u);
  EXPECT_EQ(engaged.shed_decisions, kN - kLow - first_seen.size());
  std::uint64_t degraded = 0;
  for (const auto& decision : engine.decisions()) degraded += decision.degraded;
  EXPECT_EQ(degraded, engaged.shed_decisions);
  EXPECT_EQ(engine.capture_snapshot().shard_shedding,
            (std::vector<std::uint8_t>{0}));

  // Below the high watermark the latch stays released: a running worker
  // never sees more than the 32 events pushed here.
  for (std::size_t i = kN; i < kN + 32; ++i) engine.ingest((*events_)[i]);
  engine.quiesce();
  EXPECT_EQ(engine.stats().degraded_batches, 1u);
  EXPECT_EQ(engine.stats().shed_decisions, engaged.shed_decisions);
}

TEST_F(StreamTest, ShedDecisionsAreRepairedByFinish) {
  // Three pre-filled shards: each latch engages on its own first dequeue
  // when its ring holds at least the high watermark, and releases once,
  // independently of the other shards'.
  const BatchOracle oracle = batch_oracle(*harness_);
  StreamConfig config = sharded(3);
  config.loop_autostart = false;
  config.resilience.shed_high_watermark = 48;
  config.resilience.shed_low_watermark = 12;
  StreamEngine engine(harness_->make_engine(), config);
  std::vector<std::size_t> depth(config.shards, 0);
  for (const StreamEvent& event : *events_) {
    engine.ingest(event);
    ++depth[engine.shard_of(event.user)];
  }
  const auto loaded = static_cast<std::uint64_t>(
      std::count_if(depth.begin(), depth.end(),
                    [](std::size_t d) { return d >= 48; }));
  ASSERT_GT(loaded, 0u);
  engine.start_loop();
  engine.quiesce();
  EXPECT_EQ(engine.stats().degraded_batches, loaded);
  EXPECT_GT(engine.stats().shed_decisions, 0u);

  engine.finish();
  expect_matches_batch(engine.decisions(), oracle);
}

TEST_F(StreamTest, BackpressureSignalsWithoutChangingDecisions) {
  const auto reference = replay_with(sharded(2));

  // Workers held back, bound 8 (ring capacity 16): pushes 1-8 are plain
  // admissions, pushes 9-16 cross the bound and signal.
  StreamConfig probe_config = sharded(1);
  probe_config.loop_autostart = false;
  probe_config.resilience.max_pending_per_shard = 8;
  StreamEngine probe(harness_->make_engine(), probe_config);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(probe.ingest((*events_)[i]), i < 8
                                               ? IngestStatus::kAdmitted
                                               : IngestStatus::kAdmittedSlow)
        << i;
  }
  probe.start_loop();
  probe.quiesce();
  EXPECT_EQ(probe.stats().backpressure_events, 8u);

  // Backpressure is a *signal* to the producer, never a decision input.
  StreamConfig bounded = sharded(2);
  bounded.resilience.max_pending_per_shard = 8;
  StreamEngine engine(harness_->make_engine(), bounded);
  expect_same_decisions(run_replay(engine, *events_, {}).decisions,
                        reference.decisions);
}

TEST_F(StreamTest, InjectedDecideFaultQuarantinesExactlyOneUser) {
  const StreamConfig config = sharded(4);
  const auto clean = replay_with(config);

  // Under the strict default the injected fault propagates out of the
  // replay (rethrown on the producer).
  testing::FailPoint::arm("stream.decide.user", testing::FailAction::kThrow);
  StreamEngine strict(harness_->make_engine(), config);
  EXPECT_THROW(run_replay(strict, *events_, {}), testing::InjectedFault);

  // Under quarantine the faulting user is isolated and every worker
  // survives; the one-shot fault hits exactly one user across 4 shards.
  StreamConfig quarantine = config;
  quarantine.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
  testing::FailPoint::arm("stream.decide.user", testing::FailAction::kThrow);
  StreamEngine engine(harness_->make_engine(), quarantine);
  const auto result = run_replay(engine, *events_, {});

  EXPECT_EQ(result.stats.quarantined_users, 1u);
  std::size_t quarantined = 0;
  ASSERT_EQ(result.decisions.size(), clean.decisions.size());
  for (std::size_t i = 0; i < clean.decisions.size(); ++i) {
    const UserDecision& a = result.decisions[i];
    if (a.quarantined) {
      ++quarantined;
      EXPECT_NE(a.quarantine_reason.find("injected a fault"),
                std::string::npos);
      EXPECT_GT(a.dead_letters, 0u);
      continue;
    }
    EXPECT_EQ(a.decision, clean.decisions[i].decision) << a.user;
    EXPECT_EQ(a.winner, clean.decisions[i].winner) << a.user;
    EXPECT_EQ(a.events, clean.decisions[i].events) << a.user;
  }
  EXPECT_EQ(quarantined, 1u);
}

TEST_F(StreamTest, CorruptFailPointIsCaughtByTheFoldPoisonScan) {
  StreamConfig config = sharded(1);
  config.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
  testing::FailPoint::arm("stream.fold.corrupt",
                          testing::FailAction::kCorrupt);
  StreamEngine engine(harness_->make_engine(), config);
  const auto result = run_replay(engine, *events_, {});

  // The corrupted point was never folded: exactly its user is frozen,
  // with the scan's reason on record.
  EXPECT_EQ(result.stats.quarantined_users, 1u);
  EXPECT_EQ(result.stats.bad_records, 0u);
  std::size_t found = 0;
  for (const auto& decision : result.decisions) {
    if (!decision.quarantined) continue;
    ++found;
    EXPECT_NE(decision.quarantine_reason.find("poisoned pending record"),
              std::string::npos);
    EXPECT_GT(decision.dead_letters, 0u);
  }
  EXPECT_EQ(found, 1u);
}

TEST_F(StreamTest, QuarantineStateRoundTripsThroughSnapshotAndResume) {
  std::vector<StreamEvent> poisoned_events = *events_;
  PoisonSpec spec;
  spec.users = 2;
  spec.stride = 3;
  ASSERT_GT(inject_poison(poisoned_events, spec), 0u);

  StreamConfig config = sharded(2);
  config.resilience.on_bad_record = BadRecordPolicy::kQuarantine;

  StreamEngine straight(harness_->make_engine(), config);
  const auto reference = run_replay(straight, poisoned_events, {});
  ASSERT_EQ(reference.stats.quarantined_users, 2u);

  // Any quiesced position is a valid cut; 500 is deliberately not a
  // multiple of a power of two.
  const std::size_t cut = 500;
  StreamEngine first(harness_->make_engine(), config);
  for (std::size_t i = 0; i < cut; ++i) first.ingest(poisoned_events[i]);
  first.quiesce();
  const SnapshotData snap =
      decode_snapshot(encode_snapshot(first.capture_snapshot()));
  bool any_quarantined = false;
  for (const UserSnapshot& u : snap.users) any_quarantined |= u.quarantined;
  EXPECT_TRUE(any_quarantined);

  StreamEngine second(harness_->make_engine(), config);
  second.restore_snapshot(snap);
  ReplayOptions options;
  options.resume_events = cut;
  const auto resumed = run_replay(second, poisoned_events, options);

  ASSERT_EQ(resumed.decisions.size(), reference.decisions.size());
  for (std::size_t i = 0; i < reference.decisions.size(); ++i) {
    const UserDecision& a = resumed.decisions[i];
    const UserDecision& e = reference.decisions[i];
    EXPECT_EQ(a.user, e.user);
    EXPECT_EQ(a.decision, e.decision) << a.user;
    EXPECT_EQ(a.winner, e.winner) << a.user;
    EXPECT_EQ(a.events, e.events) << a.user;
    EXPECT_EQ(a.quarantined, e.quarantined) << a.user;
    EXPECT_EQ(a.quarantine_reason, e.quarantine_reason) << a.user;
    EXPECT_EQ(a.dead_letters, e.dead_letters) << a.user;
  }
  EXPECT_EQ(resumed.stats.bad_records, reference.stats.bad_records);
  EXPECT_EQ(resumed.stats.dead_letters, reference.stats.dead_letters);
  EXPECT_EQ(resumed.stats.quarantined_users,
            reference.stats.quarantined_users);
}

TEST_F(StreamTest, ReplayResumeAtStreamEndOnlyFinishes) {
  // The degenerate restore: the snapshot already covered the full stream,
  // so the resumed session ingests nothing and just finalizes.
  StreamEngine engine(harness_->make_engine(), StreamConfig{});
  ReplayOptions options;
  options.resume_events = events_->size();
  const auto result = run_replay(engine, *events_, options);
  EXPECT_EQ(result.session_events, 0u);
  EXPECT_EQ(result.events_per_second, 0.0);
  EXPECT_TRUE(result.decisions.empty());  // fresh engine held no users
}

// ------------------------------------------------- serving-loop tiers --

TEST_F(StreamTest, LoopFinalDecisionsMatchBatchEvaluators) {
  const BatchOracle oracle = batch_oracle(*harness_);
  const auto result = replay_with(sharded(4));
  expect_matches_batch(result.decisions, oracle);
  EXPECT_EQ(result.stats.exposed_events + result.stats.protected_events,
            result.events);
  // Every presented event leaves exactly one end-to-end sample in the
  // replay histogram.
  EXPECT_EQ(result.latency_histogram.count, result.events);
  // A clean strict run must leave the resilience counters untouched —
  // the held/recheck admission tiers are cheap paths, not degradations.
  EXPECT_EQ(result.stats.bad_records, 0u);
  EXPECT_EQ(result.stats.quarantined_users, 0u);
  EXPECT_EQ(result.stats.degraded_batches, 0u);
  EXPECT_EQ(result.stats.shed_decisions, 0u);
}

TEST_F(StreamTest, LoopDecisionsMatchBatchAcrossShardsSlackAndRecheck) {
  const BatchOracle oracle = batch_oracle(*harness_);
  const auto reference = replay_with(sharded(4));
  expect_matches_batch(reference.decisions, oracle);

  std::vector<StreamConfig> variants;
  variants.push_back(sharded(8));
  StreamConfig eager = sharded(4);  // full decision on every event
  eager.loop_slack = 0;
  variants.push_back(eager);
  StreamConfig lazy = sharded(4);  // mostly held, odd cadences
  lazy.loop_slack = 7;
  lazy.loop_recheck = 3;
  variants.push_back(lazy);
  StreamConfig no_recheck = sharded(4);
  no_recheck.loop_recheck = 0;
  variants.push_back(no_recheck);

  for (const StreamConfig& config : variants) {
    expect_same_decisions(replay_with(config).decisions, reference.decisions);
  }
}

TEST_F(StreamTest, LoopCheckpointRestoreRoundTripsMidStream) {
  const StreamConfig config = sharded(2);
  StreamEngine straight(harness_->make_engine(), config);
  const auto reference = run_replay(straight, *events_, {});

  const std::size_t cut = 333;
  StreamEngine first(harness_->make_engine(), config);
  for (std::size_t i = 0; i < cut; ++i) first.ingest((*events_)[i]);
  first.quiesce();
  const SnapshotData snap =
      decode_snapshot(encode_snapshot(first.capture_snapshot()));
  EXPECT_EQ(snap.stream_position, cut);

  StreamEngine second(harness_->make_engine(), config);
  second.restore_snapshot(snap);
  ReplayOptions options;
  options.resume_events = cut;
  const auto resumed = run_replay(second, *events_, options);

  expect_same_decisions(resumed.decisions, reference.decisions);
  // The decision tier is a pure function of per-user event ordinals, so
  // the continued counters line up exactly with the straight run's.
  EXPECT_EQ(resumed.stats.events, reference.stats.events);
  EXPECT_EQ(resumed.stats.decisions, reference.stats.decisions);
  EXPECT_EQ(resumed.latency_histogram.count, events_->size() - cut);
}

TEST_F(StreamTest, LoopRestoreRefusesEngineModeMismatch) {
  const StreamConfig config = sharded(2);
  StreamEngine first(harness_->make_engine(), config);
  for (std::size_t i = 0; i < 100; ++i) first.ingest((*events_)[i]);
  first.quiesce();
  const SnapshotData snap = first.capture_snapshot();

  // The decision cadences shape the mid-stream decision sequence, so a
  // snapshot must not restore under different ones.
  StreamConfig other_slack = config;
  other_slack.loop_slack = 5;
  StreamEngine slack_engine(harness_->make_engine(), other_slack);
  EXPECT_THROW(slack_engine.restore_snapshot(snap), SnapshotError);

  StreamConfig other_recheck = config;
  other_recheck.loop_recheck = 2;
  StreamEngine recheck_engine(harness_->make_engine(), other_recheck);
  EXPECT_THROW(recheck_engine.restore_snapshot(snap), SnapshotError);

  // loop_autostart is timing-only: it never blocks a restore.
  StreamConfig manual = config;
  manual.loop_autostart = false;
  StreamEngine manual_engine(harness_->make_engine(), manual);
  EXPECT_NO_THROW(manual_engine.restore_snapshot(snap));
}

TEST_F(StreamTest, LoopStrictFaultSurfacesOnTheProducer) {
  // Unattributable events never reach a worker: the producer classifies
  // and throws synchronously.
  StreamEngine id_engine(harness_->make_engine(), sharded(1));
  StreamEvent huge = (*events_)[0];
  huge.user = std::string(kMaxUserIdBytes + 1, 'x');
  EXPECT_THROW(id_engine.ingest(huge), BadRecordError);

  // A bad coordinate is flagged at ingest but dispositioned by the shard
  // worker; under the strict default its BadRecordError is rethrown on
  // the producer no later than the quiesce barrier.
  StreamEngine nan_engine(harness_->make_engine(), sharded(1));
  StreamEvent bad = (*events_)[0];
  bad.record.position.lat = std::numeric_limits<double>::quiet_NaN();
  nan_engine.ingest(bad);
  EXPECT_THROW(nan_engine.quiesce(), BadRecordError);

  // Same for the stateful per-user monotonicity check, which only the
  // worker (owner of the user state) can evaluate.
  StreamEngine time_engine(harness_->make_engine(), sharded(1));
  const StreamEvent first = (*events_)[0];
  time_engine.ingest(first);
  StreamEvent regressed = first;
  regressed.record.time -= 100;
  time_engine.ingest(regressed);
  EXPECT_THROW(time_engine.quiesce(), BadRecordError);
}

TEST_F(StreamTest, LoopQuarantineIsolatesPoisonedUserFromHealthyDecisions) {
  const auto clean = replay_with(sharded(4));

  std::vector<StreamEvent> poisoned_events = *events_;
  PoisonSpec spec;
  spec.users = 1;
  spec.stride = 3;
  ASSERT_GT(inject_poison(poisoned_events, spec), 0u);
  const mobility::UserId victim = first_user(*events_);

  // One shard: the victim shares its worker and ring with every healthy
  // user, the worst case for isolation.
  StreamConfig quarantine = sharded(1);
  quarantine.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
  StreamEngine engine(harness_->make_engine(), quarantine);
  const auto result = run_replay(engine, poisoned_events, {});

  EXPECT_EQ(result.stats.quarantined_users, 1u);
  EXPECT_GT(result.stats.bad_records, 0u);
  EXPECT_GT(result.stats.dead_letters, 0u);
  ASSERT_EQ(result.decisions.size(), clean.decisions.size());
  for (std::size_t i = 0; i < clean.decisions.size(); ++i) {
    const UserDecision& a = result.decisions[i];
    const UserDecision& e = clean.decisions[i];
    ASSERT_EQ(a.user, e.user);
    if (a.user == victim) {
      EXPECT_TRUE(a.quarantined);
      EXPECT_FALSE(a.quarantine_reason.empty());
      EXPECT_GT(a.dead_letters, 0u);
      continue;
    }
    EXPECT_FALSE(a.quarantined) << a.user;
    EXPECT_EQ(a.decision, e.decision) << a.user;
    EXPECT_EQ(a.winner, e.winner) << a.user;
    EXPECT_EQ(a.events, e.events) << a.user;
    EXPECT_EQ(a.window_points, e.window_points) << a.user;
  }
}

TEST_F(StreamTest, LoopInjectedDecideFaultQuarantinesExactlyOneUser) {
  const StreamConfig config = sharded(1);
  const auto clean = replay_with(config);

  // Under the strict default the worker's injected fault is rethrown on
  // the producer and propagates out of the replay.
  testing::FailPoint::arm("stream.decide.user", testing::FailAction::kThrow);
  StreamEngine strict(harness_->make_engine(), config);
  EXPECT_THROW(run_replay(strict, *events_, {}), testing::InjectedFault);

  // Under quarantine the faulting user is isolated, the worker survives,
  // and every healthy user matches the clean run.
  StreamConfig quarantine = config;
  quarantine.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
  testing::FailPoint::arm("stream.decide.user", testing::FailAction::kThrow);
  StreamEngine engine(harness_->make_engine(), quarantine);
  const auto result = run_replay(engine, *events_, {});

  EXPECT_EQ(result.stats.quarantined_users, 1u);
  std::size_t quarantined = 0;
  ASSERT_EQ(result.decisions.size(), clean.decisions.size());
  for (std::size_t i = 0; i < clean.decisions.size(); ++i) {
    const UserDecision& a = result.decisions[i];
    if (a.quarantined) {
      ++quarantined;
      EXPECT_NE(a.quarantine_reason.find("injected a fault"),
                std::string::npos);
      EXPECT_GT(a.dead_letters, 0u);
      continue;
    }
    EXPECT_EQ(a.decision, clean.decisions[i].decision) << a.user;
    EXPECT_EQ(a.winner, clean.decisions[i].winner) << a.user;
    EXPECT_EQ(a.events, clean.decisions[i].events) << a.user;
  }
  EXPECT_EQ(quarantined, 1u);
}

TEST_F(StreamTest, LoopShedEngagesOnRingDepthAndFinishRepairs) {
  const BatchOracle oracle = batch_oracle(*harness_);
  StreamConfig config = sharded(1);
  config.loop_autostart = false;
  config.resilience.shed_high_watermark = 64;
  config.resilience.shed_low_watermark = 16;
  StreamEngine engine(harness_->make_engine(), config);
  // Pre-fill the ring beyond the high watermark before any worker runs:
  // the first dequeue sees the full backlog, so the latch engages
  // deterministically even though ring depth is otherwise timing-shaped.
  for (const StreamEvent& event : *events_) engine.ingest(event);
  engine.start_loop();
  engine.quiesce();

  const StreamStats mid = engine.stats();
  EXPECT_GE(mid.degraded_batches, 1u);
  EXPECT_GT(mid.shed_decisions, 0u);
  // Draining to empty crossed the low watermark: the latch released.
  EXPECT_EQ(engine.capture_snapshot().shard_shedding,
            (std::vector<std::uint8_t>{0}));

  // finish() re-searches every held/degraded verdict, so the published
  // decisions still match the batch evaluators exactly.
  engine.finish();
  expect_matches_batch(engine.decisions(), oracle);
}

TEST_F(StreamTest, LoopBackpressureSignalsWithoutChangingDecisions) {
  const auto reference = replay_with(sharded(2));

  // Bounded rings (capacity 2*max_pending): the producer outruns the
  // deciding workers, so the slow signal must fire; it stays a signal —
  // nothing is dropped and decisions are untouched.
  StreamConfig bounded = sharded(2);
  bounded.resilience.max_pending_per_shard = 8;
  StreamEngine engine(harness_->make_engine(), bounded);
  const auto result = run_replay(engine, *events_, {});

  EXPECT_GT(result.stats.backpressure_events, 0u);
  EXPECT_EQ(result.latency_histogram.count, result.events);
  ASSERT_EQ(result.decisions.size(), reference.decisions.size());
  for (std::size_t i = 0; i < reference.decisions.size(); ++i) {
    EXPECT_EQ(result.decisions[i].decision, reference.decisions[i].decision);
    EXPECT_EQ(result.decisions[i].winner, reference.decisions[i].winner);
  }
}

TEST_F(StreamTest, LoopPacingFloorsWallClockNotDecisionCoverage) {
  ReplayOptions paced;
  paced.target_rate = 50000.0;  // fast, but a real open-loop floor
  StreamEngine engine(harness_->make_engine(), sharded(2));
  const auto result = run_replay(engine, *events_, paced);

  // The last event is scheduled at (n-1)/rate seconds: the wall clock
  // cannot beat the arrival process.
  EXPECT_GE(result.wall_seconds,
            static_cast<double>(result.session_events - 1) / 50000.0);
  EXPECT_EQ(result.latency_histogram.count, result.events);
  EXPECT_EQ(result.events, events_->size());
}

}  // namespace
}  // namespace mood::stream
