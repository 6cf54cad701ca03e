#include "core/supervisor.h"

#include <algorithm>
#include <cmath>

namespace mvtee::core {

std::string_view LifecycleName(VariantLifecycle state) {
  switch (state) {
    case VariantLifecycle::kHealthy: return "healthy";
    case VariantLifecycle::kSuspect: return "suspect";
    case VariantLifecycle::kQuarantined: return "quarantined";
    case VariantLifecycle::kRebootstrapping: return "rebootstrapping";
    case VariantLifecycle::kProbation: return "probation";
    case VariantLifecycle::kRetired: return "retired";
  }
  return "?";
}

std::string_view FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kCrash: return "crash";
    case FailureKind::kTimeout: return "timeout";
    case FailureKind::kChannel: return "channel";
  }
  return "?";
}

Supervisor::Supervisor(ReactionPolicy policy, obs::Registry* registry)
    : policy_(policy) {
  m_quarantines_ = &registry->GetCounter("supervisor.quarantines_total");
  m_readmissions_ = &registry->GetCounter("supervisor.readmissions_total");
  m_rebootstraps_ = &registry->GetCounter("supervisor.rebootstraps_total");
  m_rebootstrap_failures_ =
      &registry->GetCounter("supervisor.rebootstrap_failures_total");
  m_retirements_ = &registry->GetCounter("supervisor.retirements_total");
}

void Supervisor::Reset(
    const std::vector<std::vector<std::string>>& stage_ids) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  slots_.resize(stage_ids.size());
  for (size_t s = 0; s < stage_ids.size(); ++s) {
    slots_[s].resize(stage_ids[s].size());
    for (size_t i = 0; i < stage_ids[s].size(); ++i) {
      SlotInfo& si = slots_[s][i];
      si = SlotInfo{};
      si.variant_id = stage_ids[s][i];
      si.stage = s;
      si.index = i;
    }
  }
  quarantines_ = readmissions_ = retirements_ = 0;
}

int64_t Supervisor::BackoffDelayUs(int attempts_done) const {
  double delay = static_cast<double>(policy_.initial_backoff_us);
  for (int i = 0; i < attempts_done; ++i) {
    delay *= policy_.backoff_multiplier;
    if (delay >= static_cast<double>(policy_.max_backoff_us)) break;
  }
  return std::min<int64_t>(policy_.max_backoff_us,
                           static_cast<int64_t>(delay));
}

size_t Supervisor::ActiveCountLocked(size_t stage) const {
  size_t n = 0;
  for (const SlotInfo& si : slots_[stage]) {
    if (si.state == VariantLifecycle::kHealthy ||
        si.state == VariantLifecycle::kSuspect) {
      ++n;
    }
  }
  return n;
}

bool Supervisor::QuarantineLocked(SlotInfo& si, int64_t now_us) {
  if (si.state != VariantLifecycle::kHealthy &&
      si.state != VariantLifecycle::kSuspect) {
    return false;  // already out of the panel
  }
  // Panel floor: never shrink the stage below min_panel voters.
  if (ActiveCountLocked(si.stage) <=
      static_cast<size_t>(std::max(1, policy_.min_panel))) {
    si.state = VariantLifecycle::kSuspect;
    return false;
  }
  si.state = VariantLifecycle::kQuarantined;
  si.next_retry_us = now_us + BackoffDelayUs(si.bootstrap_attempts);
  ++si.quarantines;
  ++quarantines_;
  m_quarantines_->Add(1);
  return true;
}

bool Supervisor::ReportDissent(size_t stage, size_t index, int64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  SlotInfo& si = slots_[stage][index];
  if (si.state != VariantLifecycle::kHealthy &&
      si.state != VariantLifecycle::kSuspect) {
    return false;
  }
  ++si.dissents;
  if (si.dissents < std::max(1, policy_.dissent_threshold)) {
    si.state = VariantLifecycle::kSuspect;
    return false;
  }
  return QuarantineLocked(si, now_us);
}

bool Supervisor::ReportFailure(size_t stage, size_t index, FailureKind kind,
                               int64_t now_us) {
  (void)kind;  // classes are recorded by the caller's evidence trail
  std::lock_guard<std::mutex> lock(mu_);
  SlotInfo& si = slots_[stage][index];
  ++si.dissents;
  return QuarantineLocked(si, now_us);
}

Supervisor::ProbationOutcome Supervisor::ReportProbation(size_t stage,
                                                         size_t index,
                                                         bool agreed,
                                                         int64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  SlotInfo& si = slots_[stage][index];
  if (si.state != VariantLifecycle::kProbation) {
    return ProbationOutcome::kNone;
  }
  if (agreed) {
    if (--si.probation_left > 0) return ProbationOutcome::kNone;
    si.state = VariantLifecycle::kHealthy;
    si.dissents = 0;
    ++si.readmissions;
    ++readmissions_;
    m_readmissions_->Add(1);
    return ProbationOutcome::kReadmitted;
  }
  // Shadow dissent: the fresh instance is still bad.
  if (si.bootstrap_attempts >= policy_.retry_budget) {
    si.state = VariantLifecycle::kRetired;
    ++retirements_;
    m_retirements_->Add(1);
    return ProbationOutcome::kRetired;
  }
  si.state = VariantLifecycle::kQuarantined;
  si.next_retry_us = now_us + BackoffDelayUs(si.bootstrap_attempts);
  ++si.quarantines;
  ++quarantines_;
  m_quarantines_->Add(1);
  return ProbationOutcome::kRequarantined;
}

std::vector<std::pair<size_t, size_t>> Supervisor::DueForRebootstrap(
    int64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<size_t, size_t>> due;
  for (auto& stage : slots_) {
    for (SlotInfo& si : stage) {
      if (si.state != VariantLifecycle::kQuarantined) continue;
      if (si.bootstrap_attempts >= policy_.retry_budget) {
        si.state = VariantLifecycle::kRetired;
        ++retirements_;
        m_retirements_->Add(1);
        continue;
      }
      if (now_us >= si.next_retry_us) due.push_back({si.stage, si.index});
    }
  }
  return due;
}

void Supervisor::BeginRebootstrap(size_t stage, size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  SlotInfo& si = slots_[stage][index];
  si.state = VariantLifecycle::kRebootstrapping;
  ++si.bootstrap_attempts;
  m_rebootstraps_->Add(1);
}

VariantLifecycle Supervisor::FinishRebootstrap(size_t stage, size_t index,
                                               bool ok, int64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  SlotInfo& si = slots_[stage][index];
  if (ok) {
    si.state = VariantLifecycle::kProbation;
    si.probation_left = std::max(1, policy_.probation_batches);
    return si.state;
  }
  m_rebootstrap_failures_->Add(1);
  if (si.bootstrap_attempts >= policy_.retry_budget) {
    si.state = VariantLifecycle::kRetired;
    ++retirements_;
    m_retirements_->Add(1);
  } else {
    si.state = VariantLifecycle::kQuarantined;
    si.next_retry_us = now_us + BackoffDelayUs(si.bootstrap_attempts);
  }
  return si.state;
}

bool Supervisor::Voting(size_t stage, size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  const VariantLifecycle st = slots_[stage][index].state;
  return st == VariantLifecycle::kHealthy ||
         st == VariantLifecycle::kSuspect;
}

bool Supervisor::Shadow(size_t stage, size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_[stage][index].state == VariantLifecycle::kProbation;
}

bool Supervisor::ChannelLive(size_t stage, size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  const VariantLifecycle st = slots_[stage][index].state;
  return st == VariantLifecycle::kHealthy ||
         st == VariantLifecycle::kSuspect ||
         st == VariantLifecycle::kProbation;
}

size_t Supervisor::ActiveCount(size_t stage) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ActiveCountLocked(stage);
}

VariantLifecycle Supervisor::state(size_t stage, size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_[stage][index].state;
}

Supervisor::SlotInfo Supervisor::slot(size_t stage, size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_[stage][index];
}

std::vector<Supervisor::SlotInfo> Supervisor::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SlotInfo> out;
  for (const auto& stage : slots_) {
    out.insert(out.end(), stage.begin(), stage.end());
  }
  return out;
}

uint64_t Supervisor::quarantines_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantines_;
}

uint64_t Supervisor::readmissions_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return readmissions_;
}

uint64_t Supervisor::retirements_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retirements_;
}

bool Supervisor::AnyEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantines_ > 0 || readmissions_ > 0 || retirements_ > 0;
}

bool Supervisor::Recovering() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& stage : slots_) {
    for (const auto& si : stage) {
      if (si.state == VariantLifecycle::kQuarantined ||
          si.state == VariantLifecycle::kRebootstrapping ||
          si.state == VariantLifecycle::kProbation) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace mvtee::core
