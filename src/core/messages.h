// Monitor <-> variant and variant <-> variant protocol messages
// (carried over SecureChannel / MsgChannel frames).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "obs/trace.h"
#include "tensor/tensor.h"
#include "transport/msg_channel.h"
#include "util/bytes.h"
#include "util/status.h"

namespace mvtee::core {

enum class MsgType : uint8_t {
  kAssignIdentity = 1,  // monitor -> variant: id + variant key
  kIdentityAck,         // variant -> monitor: locked manifest evidence
  kInfer,               // monitor -> variant: slot-addressed stage inputs
  kInferResult,         // variant -> monitor: outputs or an error
  kShutdown,            // monitor -> variant
  kSetupRoutes,         // monitor -> variant: fast-path wiring (Fig. 7)
  kRoutesAck,           // variant -> monitor
  kStageData,           // variant -> variant: direct fast-path tensors
  kProvision,           // owner -> monitor: MVX config + keys + nonce
  kProvisionResult,     // monitor -> owner: init outcome bound to nonce
  kAttestQuery,         // user/owner -> monitor: combined attestation
  kAttestReply,         // monitor -> user/owner: all bound TEE reports
  kSessionSubmit,       // client -> service: one inference request
  kSessionReply,        // service -> client: outputs or an error
  kRelease,             // monitor -> variant: an abandoned batch's id
};

struct AssignIdentityMsg {
  std::string variant_id;
  util::Bytes variant_key;
};

struct IdentityAckMsg {
  std::string variant_id;
  crypto::Sha256Digest manifest_hash{};  // installed second-stage manifest
  bool ok = false;
  std::string error;
};

// Stage inputs addressed by slot (= index into the stage subgraph's
// input list). A message may carry any subset of slots; the variant
// assembles a batch from monitor messages and direct upstream messages
// and runs once every slot is filled.
struct InferMsg {
  uint64_t batch_id = 0;
  // Virtual-time arrival stamp (performance model; see monitor.h).
  uint64_t vtime_us = 0;
  std::vector<uint32_t> slots;
  std::vector<tensor::Tensor> inputs;  // parallel to slots
};

struct InferResultMsg {
  uint64_t batch_id = 0;
  uint64_t vtime_us = 0;
  bool ok = false;
  std::vector<tensor::Tensor> outputs;
  std::string error;
};

// Fast-path routing (Fig. 7). Upstream entries describe pipes this
// variant consumes from; downstream entries describe pipes it produces
// into, with an (output index -> remote slot) map per pipe.
struct UpstreamRoute {
  uint64_t pipe_id = 0;
};
struct DownstreamRoute {
  uint64_t pipe_id = 0;
  std::vector<std::pair<uint32_t, uint32_t>> output_to_slot;
};
struct SetupRoutesMsg {
  std::vector<UpstreamRoute> upstream;
  std::vector<DownstreamRoute> downstream;
  // Whether full outputs must still be reported to the monitor (MVX
  // panels and stages producing model outputs).
  bool report_to_monitor = true;
};

struct RoutesAckMsg {
  bool ok = false;
  std::string error;
};

// Direct variant->variant payload: tensors addressed to consumer slots.
struct StageDataMsg {
  uint64_t batch_id = 0;
  uint64_t vtime_us = 0;
  std::vector<uint32_t> slots;
  std::vector<tensor::Tensor> tensors;  // parallel to slots
};

// The monitor no longer wants this variant's report for `batch_id` or
// any earlier batch: its sliding window abandoned them (an async
// straggler fell behind). The variant drops their inputs unrun.
struct ReleaseMsg {
  uint64_t batch_id = 0;
};

util::Bytes EncodeAssignIdentity(const AssignIdentityMsg& msg);
util::Bytes EncodeIdentityAck(const IdentityAckMsg& msg);
util::Bytes EncodeInfer(const InferMsg& msg);
util::Bytes EncodeInferResult(const InferResultMsg& msg);
util::Bytes EncodeShutdown();
util::Bytes EncodeSetupRoutes(const SetupRoutesMsg& msg);
util::Bytes EncodeRoutesAck(const RoutesAckMsg& msg);
util::Bytes EncodeStageData(const StageDataMsg& msg);
util::Bytes EncodeRelease(const ReleaseMsg& msg);

// ---- single-pass encoding (zero-copy data plane, DESIGN.md §10) ----
//
// EncodedSize() returns the exact length Encode*/Encode*Into produce
// for a message, so a sender can acquire one right-sized pooled buffer
// and write the whole record (header + payload) in a single pass.
// Encode*Into appends to `out`; tensor containers insert 0-3 zero pad
// bytes before each tensor so its float payload lands 4-byte aligned
// relative to the frame start (out.size() at entry) — the property
// that lets the receiver alias tensors in the opened record.
size_t EncodedSize(const AssignIdentityMsg& msg);
size_t EncodedSize(const IdentityAckMsg& msg);
size_t EncodedSize(const InferMsg& msg);
size_t EncodedSize(const InferResultMsg& msg);
size_t EncodedSizeShutdown();
size_t EncodedSize(const SetupRoutesMsg& msg);
size_t EncodedSize(const RoutesAckMsg& msg);
size_t EncodedSize(const StageDataMsg& msg);

void EncodeAssignIdentityInto(const AssignIdentityMsg& msg, util::Bytes& out);
void EncodeIdentityAckInto(const IdentityAckMsg& msg, util::Bytes& out);
void EncodeInferInto(const InferMsg& msg, util::Bytes& out);
void EncodeInferResultInto(const InferResultMsg& msg, util::Bytes& out);
void EncodeShutdownInto(util::Bytes& out);
void EncodeSetupRoutesInto(const SetupRoutesMsg& msg, util::Bytes& out);
void EncodeRoutesAckInto(const RoutesAckMsg& msg, util::Bytes& out);
void EncodeStageDataInto(const StageDataMsg& msg, util::Bytes& out);

// Encodes the message straight into the channel's pooled wire buffer
// (no intermediate frame) and sends it.
util::Status SendFrame(transport::MsgChannel& channel, const InferMsg& msg,
                       util::ByteSpan header = {});
util::Status SendFrame(transport::MsgChannel& channel,
                       const InferResultMsg& msg, util::ByteSpan header = {});
util::Status SendFrame(transport::MsgChannel& channel, const StageDataMsg& msg,
                       util::ByteSpan header = {});

// Zero-copy decode of a pooled frame: tensors in the result are views
// aliasing the frame's buffer (pinned via its keepalive), not copies.
util::Result<InferMsg> DecodeInfer(const transport::InFrame& frame);
util::Result<InferResultMsg> DecodeInferResult(const transport::InFrame& frame);
util::Result<StageDataMsg> DecodeStageData(const transport::InFrame& frame);

// ---- owner <-> monitor provisioning (Fig. 6 steps 2-3 and 8) ----

struct ProvisionMsg {
  util::Bytes nonce;              // anti-replay (Fig. 6 step 3)
  util::Bytes bundle_config;      // OfflineBundle::SerializeConfig()
  std::vector<std::vector<std::string>> stage_variant_ids;  // MVX config
};

struct ProvisionResultMsg {
  util::Bytes nonce;  // echoed for verification (Fig. 6 step 8)
  bool ok = false;
  std::string error;
  // Binding summary (variant id per stage, in binding order).
  std::vector<std::string> bound_variant_ids;
};

struct AttestQueryMsg {
  util::Bytes nonce;
};

struct AttestReplyMsg {
  util::Bytes nonce;
  // Serialized AttestationReports of every bound variant TEE (launch
  // measurements), attested collectively through the monitor.
  std::vector<util::Bytes> variant_reports;
};

// ---- client <-> service session requests (DESIGN.md §11) ----
//
// Carried over the per-session RA-TLS channel established by the
// inference service front end. The channel already binds a per-record
// monotonic sequence number into the AAD; `seq` additionally names the
// request inside the session's application-level sequence space, so the
// service can pair replies to requests and detect replayed/reordered
// Submit frames even if a future transport multiplexes records.

struct SessionSubmitMsg {
  uint64_t seq = 0;
  // Relative per-request budget, microseconds; 0 = no deadline. A
  // negative value decodes fine (it consumes the seq) and is rejected
  // at admission with kAdmissionRejected — an expired budget is a
  // client-side condition, not a malformed frame.
  int64_t deadline_us = 0;
  // Scheduling hints (DESIGN.md §13): plaintext-equivalent labels for
  // the multi-tenant scheduler. They steer WFQ/quota/EDF ordering only
  // and are never bound into the attested channel's AAD — a forged
  // label can skew fairness for the forging client, never integrity.
  std::string tenant;    // "" = shared default tenant
  int32_t priority = 0;  // higher dispatches earlier within a tenant
  std::vector<tensor::Tensor> inputs;  // one model-input batch
};

struct SessionReplyMsg {
  uint64_t seq = 0;  // echoes the request
  uint8_t code = 0;  // util::StatusCode of the outcome
  int64_t latency_us = 0;  // admission -> completion, service clock
  std::string error;
  std::vector<tensor::Tensor> outputs;
};

size_t EncodedSize(const SessionSubmitMsg& msg);
size_t EncodedSize(const SessionReplyMsg& msg);
void EncodeSessionSubmitInto(const SessionSubmitMsg& msg, util::Bytes& out);
void EncodeSessionReplyInto(const SessionReplyMsg& msg, util::Bytes& out);
util::Bytes EncodeSessionSubmit(const SessionSubmitMsg& msg);
util::Bytes EncodeSessionReply(const SessionReplyMsg& msg);
util::Result<SessionSubmitMsg> DecodeSessionSubmit(util::ByteSpan frame);
util::Result<SessionSubmitMsg> DecodeSessionSubmit(
    const transport::InFrame& frame);
util::Result<SessionReplyMsg> DecodeSessionReply(util::ByteSpan frame);
util::Result<SessionReplyMsg> DecodeSessionReply(
    const transport::InFrame& frame);
util::Status SendFrame(transport::MsgChannel& channel,
                       const SessionSubmitMsg& msg,
                       util::ByteSpan header = {});
util::Status SendFrame(transport::MsgChannel& channel,
                       const SessionReplyMsg& msg,
                       util::ByteSpan header = {});

size_t EncodedSize(const ProvisionMsg& msg);
size_t EncodedSize(const ProvisionResultMsg& msg);
size_t EncodedSize(const AttestQueryMsg& msg);
size_t EncodedSize(const AttestReplyMsg& msg);
util::Bytes EncodeProvision(const ProvisionMsg& msg);
util::Bytes EncodeProvisionResult(const ProvisionResultMsg& msg);
util::Bytes EncodeAttestQuery(const AttestQueryMsg& msg);
util::Bytes EncodeAttestReply(const AttestReplyMsg& msg);
util::Result<ProvisionMsg> DecodeProvision(util::ByteSpan frame);
util::Result<ProvisionResultMsg> DecodeProvisionResult(util::ByteSpan frame);
util::Result<AttestQueryMsg> DecodeAttestQuery(util::ByteSpan frame);
util::Result<AttestReplyMsg> DecodeAttestReply(util::ByteSpan frame);

// Peeks the type tag; error on empty/unknown frames.
util::Result<MsgType> PeekType(util::ByteSpan frame);

// ---- cross-TEE trace-context header (DESIGN.md §8) ----
//
// Carried as the secure channel's *authenticated plaintext* record
// header alongside kInfer / kInferResult / kStageData frames: 16 bytes,
// trace_id(8) || span_id(8), big-endian. Integrity-protected via the
// record AAD; contains ids only, never model data. An empty header
// decodes to an invalid (all-zero) context.
util::Bytes EncodeTraceContext(const obs::TraceContext& ctx);
util::Result<obs::TraceContext> DecodeTraceContext(util::ByteSpan header);

// Overwrites the vtime field of an already-encoded kInfer/kInferResult/
// kStageData frame (fixed offset) — lets senders stamp virtual arrival
// times that depend on the encoded frame's size without re-encoding.
void PatchVtime(util::Bytes& frame, uint64_t vtime_us);

util::Result<AssignIdentityMsg> DecodeAssignIdentity(util::ByteSpan frame);
util::Result<IdentityAckMsg> DecodeIdentityAck(util::ByteSpan frame);
util::Result<InferMsg> DecodeInfer(util::ByteSpan frame);
util::Result<InferResultMsg> DecodeInferResult(util::ByteSpan frame);
util::Result<SetupRoutesMsg> DecodeSetupRoutes(util::ByteSpan frame);
util::Result<RoutesAckMsg> DecodeRoutesAck(util::ByteSpan frame);
util::Result<StageDataMsg> DecodeStageData(util::ByteSpan frame);
util::Result<ReleaseMsg> DecodeRelease(util::ByteSpan frame);

}  // namespace mvtee::core
