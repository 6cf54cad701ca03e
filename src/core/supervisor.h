// Variant lifecycle supervisor (paper §4.3 + Fig. 6 update protocol):
// the bookkeeping half of the detection → repair loop.
//
// Each panel slot carries a lifecycle state machine
//
//   Healthy -> Suspect -> Quarantined -> Rebootstrapping
//                               ^              |
//                               |   (ok)       v  (fail: backoff, retry;
//                               +--------- Probation     budget spent ->
//                               |              |          Retired)
//                               +-(dissent)----+-(agreed x N)-> Healthy
//
// driven by checkpoint verdicts (dissent), hard failures (crash
// reports, recv timeouts, channel authentication errors) and bootstrap
// outcomes. The supervisor decides *what* should happen — shrink the
// voting panel (never below ReactionPolicy::min_panel), schedule a
// re-bootstrap with capped exponential backoff, count probation
// shadow-agreements, retire on an exhausted retry budget — while the
// monitor performs the mechanics (channel teardown, the attested
// two-stage re-bootstrap, evidence records).
//
// Thread-safety: every call is internally locked; in practice all
// mutation happens on the monitor's event-loop thread, with Snapshot()
// usable from tests after a run returns.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/reaction_policy.h"
#include "obs/metrics.h"

namespace mvtee::core {

enum class VariantLifecycle : uint8_t {
  kHealthy = 0,
  kSuspect,          // dissented, still voting
  kQuarantined,      // out of the panel, awaiting re-bootstrap (backoff)
  kRebootstrapping,  // a bootstrap attempt is in progress
  kProbation,        // re-bootstrapped; shadow-voting until readmission
  kRetired,          // retry budget exhausted; permanently out
};

std::string_view LifecycleName(VariantLifecycle state);

// Hard (non-verdict) failure classes that quarantine immediately.
enum class FailureKind : uint8_t {
  kCrash = 0,  // variant reported ok=false (or a synthesized timeout)
  kTimeout,    // recv deadline expired with the report owed
  kChannel,    // authentication / replay / decode / disconnect
};

std::string_view FailureKindName(FailureKind kind);

class Supervisor {
 public:
  struct SlotInfo {
    std::string variant_id;
    size_t stage = 0;
    size_t index = 0;  // panel slot within the stage
    VariantLifecycle state = VariantLifecycle::kHealthy;
    int dissents = 0;            // verdict dissents since last healthy
    int bootstrap_attempts = 0;  // since the first quarantine
    int probation_left = 0;      // clean checkpoints still required
    int64_t next_retry_us = 0;   // wall deadline of the next attempt
    uint64_t quarantines = 0;
    uint64_t readmissions = 0;
  };

  enum class ProbationOutcome : uint8_t {
    kNone = 0,      // still on probation (or not probing)
    kReadmitted,    // shadow-agreed enough: back to Healthy
    kRequarantined, // shadow dissent with budget left
    kRetired,       // shadow dissent with the budget spent
  };

  Supervisor(ReactionPolicy policy, obs::Registry* registry);

  // (Re)builds the slot table; every slot starts Healthy. `stage_ids`
  // is the active selection, panel order per stage.
  void Reset(const std::vector<std::vector<std::string>>& stage_ids);

  // A checkpoint verdict marked this voting slot a dissenter. Returns
  // true when the slot transitioned to Quarantined (the panel shrank).
  bool ReportDissent(size_t stage, size_t index, int64_t now_us);

  // Hard failure. Returns true when the slot transitioned to
  // Quarantined; false when the floor blocks the shrink (the caller
  // keeps its previous error handling) or the slot is already out.
  bool ReportFailure(size_t stage, size_t index, FailureKind kind,
                     int64_t now_us);

  // A probation (shadow) checkpoint for a kProbation slot.
  ProbationOutcome ReportProbation(size_t stage, size_t index, bool agreed,
                                   int64_t now_us);

  // Quarantined slots whose backoff deadline expired and whose retry
  // budget is not exhausted.
  std::vector<std::pair<size_t, size_t>> DueForRebootstrap(int64_t now_us);
  void BeginRebootstrap(size_t stage, size_t index);
  // Outcome of a bootstrap attempt: ok -> kProbation; failure -> next
  // backoff step or kRetired once the budget is spent. Returns the
  // resulting state.
  VariantLifecycle FinishRebootstrap(size_t stage, size_t index, bool ok,
                                     int64_t now_us);

  // --- queries (monitor vote/ingestion paths) ---
  // In the voting panel (Healthy or Suspect).
  bool Voting(size_t stage, size_t index) const;
  // Shadow-executing (kProbation): receives inputs, never votes.
  bool Shadow(size_t stage, size_t index) const;
  // Channel usable (not Quarantined/Rebootstrapping/Retired).
  bool ChannelLive(size_t stage, size_t index) const;
  size_t ActiveCount(size_t stage) const;  // voting members
  VariantLifecycle state(size_t stage, size_t index) const;
  SlotInfo slot(size_t stage, size_t index) const;
  std::vector<SlotInfo> Snapshot() const;

  uint64_t quarantines_total() const;
  uint64_t readmissions_total() const;
  uint64_t retirements_total() const;
  // Any lifecycle transition since Reset (evidence-dump trigger).
  bool AnyEvents() const;
  // Some slot is quarantined, re-bootstrapping or on probation: a
  // lifecycle episode is still open (it settles on readmit or retire).
  bool Recovering() const;

  const ReactionPolicy& policy() const { return policy_; }

 private:
  int64_t BackoffDelayUs(int attempts_done) const;
  size_t ActiveCountLocked(size_t stage) const;
  bool QuarantineLocked(SlotInfo& si, int64_t now_us);

  ReactionPolicy policy_;
  mutable std::mutex mu_;
  std::vector<std::vector<SlotInfo>> slots_;
  uint64_t quarantines_ = 0;
  uint64_t readmissions_ = 0;
  uint64_t retirements_ = 0;

  obs::Counter* m_quarantines_ = nullptr;
  obs::Counter* m_readmissions_ = nullptr;
  obs::Counter* m_rebootstraps_ = nullptr;
  obs::Counter* m_rebootstrap_failures_ = nullptr;
  obs::Counter* m_retirements_ = nullptr;
};

}  // namespace mvtee::core
