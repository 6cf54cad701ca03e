#include "core/messages.h"

#include <memory>

namespace mvtee::core {

namespace {
// Tensor container: count(4), then per tensor
//   pad_len(1) || <pad_len zero bytes> || len(4) || tensor bytes
// pad_len (0-3) is chosen so the tensor's serialized bytes start 4-byte
// aligned relative to the *frame base*. The inner tensor header is a
// multiple of 4 bytes, so the float payload is then frame-aligned too,
// which is what lets a receiver alias it in place via
// tensor::Tensor::DeserializeView instead of copying.
uint8_t TensorPad(size_t pos) {
  // `pos` is the frame-relative offset of the pad_len byte; the tensor
  // bytes start at pos + 1 + pad + 4.
  return static_cast<uint8_t>((4 - ((pos + 5) % 4)) % 4);
}

size_t TensorsEncodedSize(size_t pos,
                          const std::vector<tensor::Tensor>& tensors) {
  size_t end = pos + 4;
  for (const auto& t : tensors) {
    end += 1 + TensorPad(end) + 4 + t.SerializedSize();
  }
  return end - pos;
}

void AppendTensors(util::Bytes& out, size_t frame_base,
                   const std::vector<tensor::Tensor>& tensors) {
  util::AppendU32(out, static_cast<uint32_t>(tensors.size()));
  for (const auto& t : tensors) {
    const uint8_t pad = TensorPad(out.size() - frame_base);
    util::AppendU8(out, pad);
    for (uint8_t i = 0; i < pad; ++i) util::AppendU8(out, 0);
    util::AppendU32(out, static_cast<uint32_t>(t.SerializedSize()));
    t.SerializeInto(out);
  }
}

// With a keepalive, decoded tensors are views aliasing the frame buffer
// (DeserializeView falls back to an owned copy if the payload landed
// misaligned); without one they are owned copies as before.
util::Status ReadTensors(util::ByteReader& reader,
                         std::vector<tensor::Tensor>& out,
                         const std::shared_ptr<const void>& keepalive) {
  uint32_t count;
  if (!reader.ReadU32(count) || count > 1024) {
    return util::InvalidArgument("bad tensor count");
  }
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t pad;
    uint32_t len;
    util::ByteSpan payload;
    if (!reader.ReadU8(pad) || pad > 3 || !reader.Skip(pad) ||
        !reader.ReadU32(len) || !reader.ReadSpan(len, payload)) {
      return util::InvalidArgument("truncated tensor");
    }
    MVTEE_ASSIGN_OR_RETURN(tensor::Tensor t,
                           tensor::Tensor::DeserializeView(payload, keepalive));
    out.push_back(std::move(t));
  }
  return util::OkStatus();
}

void AppendSlots(util::Bytes& out, const std::vector<uint32_t>& slots) {
  util::AppendU32(out, static_cast<uint32_t>(slots.size()));
  for (uint32_t s : slots) util::AppendU32(out, s);
}

size_t SlotsSize(const std::vector<uint32_t>& slots) {
  return 4 + 4 * slots.size();
}

size_t LpSize(size_t payload) { return 4 + payload; }

bool ReadSlots(util::ByteReader& reader, std::vector<uint32_t>& slots) {
  uint32_t count;
  if (!reader.ReadU32(count) || count > 1024) return false;
  slots.resize(count);
  for (auto& s : slots) {
    if (!reader.ReadU32(s)) return false;
  }
  return true;
}

util::Status ConsumeTag(util::ByteReader& reader, MsgType expected) {
  uint8_t tag;
  if (!reader.ReadU8(tag) || tag != static_cast<uint8_t>(expected)) {
    return util::InvalidArgument("unexpected message tag");
  }
  return util::OkStatus();
}
}  // namespace

size_t EncodedSize(const AssignIdentityMsg& msg) {
  return 1 + LpSize(msg.variant_id.size()) + LpSize(msg.variant_key.size());
}

void EncodeAssignIdentityInto(const AssignIdentityMsg& msg, util::Bytes& out) {
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kAssignIdentity));
  util::AppendLengthPrefixedStr(out, msg.variant_id);
  util::AppendLengthPrefixed(out, msg.variant_key);
}

util::Bytes EncodeAssignIdentity(const AssignIdentityMsg& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  EncodeAssignIdentityInto(msg, out);
  return out;
}

size_t EncodedSize(const IdentityAckMsg& msg) {
  return 1 + LpSize(msg.variant_id.size()) + crypto::kSha256DigestSize + 1 +
         LpSize(msg.error.size());
}

void EncodeIdentityAckInto(const IdentityAckMsg& msg, util::Bytes& out) {
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kIdentityAck));
  util::AppendLengthPrefixedStr(out, msg.variant_id);
  util::AppendBytes(out, util::ByteSpan(msg.manifest_hash.data(),
                                        msg.manifest_hash.size()));
  util::AppendU8(out, msg.ok ? 1 : 0);
  util::AppendLengthPrefixedStr(out, msg.error);
}

util::Bytes EncodeIdentityAck(const IdentityAckMsg& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  EncodeIdentityAckInto(msg, out);
  return out;
}

size_t EncodedSize(const InferMsg& msg) {
  const size_t head = 1 + 8 + 8 + SlotsSize(msg.slots);
  return head + TensorsEncodedSize(head, msg.inputs);
}

void EncodeInferInto(const InferMsg& msg, util::Bytes& out) {
  MVTEE_CHECK(msg.slots.size() == msg.inputs.size());
  const size_t frame_base = out.size();
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kInfer));
  util::AppendU64(out, msg.batch_id);
  util::AppendU64(out, msg.vtime_us);
  AppendSlots(out, msg.slots);
  AppendTensors(out, frame_base, msg.inputs);
}

util::Bytes EncodeInfer(const InferMsg& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  EncodeInferInto(msg, out);
  return out;
}

size_t EncodedSize(const InferResultMsg& msg) {
  const size_t head = 1 + 8 + 8 + 1;
  return head + TensorsEncodedSize(head, msg.outputs) +
         LpSize(msg.error.size());
}

void EncodeInferResultInto(const InferResultMsg& msg, util::Bytes& out) {
  const size_t frame_base = out.size();
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kInferResult));
  util::AppendU64(out, msg.batch_id);
  util::AppendU64(out, msg.vtime_us);
  util::AppendU8(out, msg.ok ? 1 : 0);
  AppendTensors(out, frame_base, msg.outputs);
  util::AppendLengthPrefixedStr(out, msg.error);
}

util::Bytes EncodeInferResult(const InferResultMsg& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  EncodeInferResultInto(msg, out);
  return out;
}

size_t EncodedSizeShutdown() { return 1; }

void EncodeShutdownInto(util::Bytes& out) {
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kShutdown));
}

util::Bytes EncodeShutdown() {
  return {static_cast<uint8_t>(MsgType::kShutdown)};
}

util::Bytes EncodeRelease(const ReleaseMsg& msg) {
  util::Bytes out;
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kRelease));
  util::AppendU64(out, msg.batch_id);
  return out;
}

size_t EncodedSize(const SetupRoutesMsg& msg) {
  size_t size = 1 + 4 + 8 * msg.upstream.size() + 4 + 1;
  for (const auto& down : msg.downstream) {
    size += 8 + 4 + 8 * down.output_to_slot.size();
  }
  return size;
}

void EncodeSetupRoutesInto(const SetupRoutesMsg& msg, util::Bytes& out) {
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kSetupRoutes));
  util::AppendU32(out, static_cast<uint32_t>(msg.upstream.size()));
  for (const auto& up : msg.upstream) util::AppendU64(out, up.pipe_id);
  util::AppendU32(out, static_cast<uint32_t>(msg.downstream.size()));
  for (const auto& down : msg.downstream) {
    util::AppendU64(out, down.pipe_id);
    util::AppendU32(out, static_cast<uint32_t>(down.output_to_slot.size()));
    for (const auto& [output, slot] : down.output_to_slot) {
      util::AppendU32(out, output);
      util::AppendU32(out, slot);
    }
  }
  util::AppendU8(out, msg.report_to_monitor ? 1 : 0);
}

util::Bytes EncodeSetupRoutes(const SetupRoutesMsg& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  EncodeSetupRoutesInto(msg, out);
  return out;
}

size_t EncodedSize(const RoutesAckMsg& msg) {
  return 1 + 1 + LpSize(msg.error.size());
}

void EncodeRoutesAckInto(const RoutesAckMsg& msg, util::Bytes& out) {
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kRoutesAck));
  util::AppendU8(out, msg.ok ? 1 : 0);
  util::AppendLengthPrefixedStr(out, msg.error);
}

util::Bytes EncodeRoutesAck(const RoutesAckMsg& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  EncodeRoutesAckInto(msg, out);
  return out;
}

size_t EncodedSize(const StageDataMsg& msg) {
  const size_t head = 1 + 8 + 8 + SlotsSize(msg.slots);
  return head + TensorsEncodedSize(head, msg.tensors);
}

void EncodeStageDataInto(const StageDataMsg& msg, util::Bytes& out) {
  MVTEE_CHECK(msg.slots.size() == msg.tensors.size());
  const size_t frame_base = out.size();
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kStageData));
  util::AppendU64(out, msg.batch_id);
  util::AppendU64(out, msg.vtime_us);
  AppendSlots(out, msg.slots);
  AppendTensors(out, frame_base, msg.tensors);
}

util::Bytes EncodeStageData(const StageDataMsg& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  EncodeStageDataInto(msg, out);
  return out;
}

util::Status SendFrame(transport::MsgChannel& channel, const InferMsg& msg,
                       util::ByteSpan header) {
  return channel.SendEncoded(EncodedSize(msg), header, [&msg](util::Bytes& out) {
    EncodeInferInto(msg, out);
  });
}

util::Status SendFrame(transport::MsgChannel& channel,
                       const InferResultMsg& msg, util::ByteSpan header) {
  return channel.SendEncoded(EncodedSize(msg), header, [&msg](util::Bytes& out) {
    EncodeInferResultInto(msg, out);
  });
}

util::Status SendFrame(transport::MsgChannel& channel, const StageDataMsg& msg,
                       util::ByteSpan header) {
  return channel.SendEncoded(EncodedSize(msg), header, [&msg](util::Bytes& out) {
    EncodeStageDataInto(msg, out);
  });
}

size_t EncodedSize(const SessionSubmitMsg& msg) {
  const size_t head = 1 + 8 + 8 + 4 + LpSize(msg.tenant.size());
  return head + TensorsEncodedSize(head, msg.inputs);
}

void EncodeSessionSubmitInto(const SessionSubmitMsg& msg, util::Bytes& out) {
  const size_t frame_base = out.size();
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kSessionSubmit));
  util::AppendU64(out, msg.seq);
  util::AppendU64(out, static_cast<uint64_t>(msg.deadline_us));
  util::AppendU32(out, static_cast<uint32_t>(msg.priority));
  util::AppendLengthPrefixedStr(out, msg.tenant);
  AppendTensors(out, frame_base, msg.inputs);
}

util::Bytes EncodeSessionSubmit(const SessionSubmitMsg& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  EncodeSessionSubmitInto(msg, out);
  return out;
}

size_t EncodedSize(const SessionReplyMsg& msg) {
  const size_t head = 1 + 8 + 1 + 8 + LpSize(msg.error.size());
  return head + TensorsEncodedSize(head, msg.outputs);
}

void EncodeSessionReplyInto(const SessionReplyMsg& msg, util::Bytes& out) {
  const size_t frame_base = out.size();
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kSessionReply));
  util::AppendU64(out, msg.seq);
  util::AppendU8(out, msg.code);
  util::AppendU64(out, static_cast<uint64_t>(msg.latency_us));
  util::AppendLengthPrefixedStr(out, msg.error);
  AppendTensors(out, frame_base, msg.outputs);
}

util::Bytes EncodeSessionReply(const SessionReplyMsg& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  EncodeSessionReplyInto(msg, out);
  return out;
}

util::Status SendFrame(transport::MsgChannel& channel,
                       const SessionSubmitMsg& msg, util::ByteSpan header) {
  return channel.SendEncoded(EncodedSize(msg), header, [&msg](util::Bytes& out) {
    EncodeSessionSubmitInto(msg, out);
  });
}

util::Status SendFrame(transport::MsgChannel& channel,
                       const SessionReplyMsg& msg, util::ByteSpan header) {
  return channel.SendEncoded(EncodedSize(msg), header, [&msg](util::Bytes& out) {
    EncodeSessionReplyInto(msg, out);
  });
}

size_t EncodedSize(const ProvisionMsg& msg) {
  size_t size = 1 + LpSize(msg.nonce.size()) + LpSize(msg.bundle_config.size()) + 4;
  for (const auto& stage : msg.stage_variant_ids) {
    size += 4;
    for (const auto& id : stage) size += LpSize(id.size());
  }
  return size;
}

util::Bytes EncodeProvision(const ProvisionMsg& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kProvision));
  util::AppendLengthPrefixed(out, msg.nonce);
  util::AppendLengthPrefixed(out, msg.bundle_config);
  util::AppendU32(out, static_cast<uint32_t>(msg.stage_variant_ids.size()));
  for (const auto& stage : msg.stage_variant_ids) {
    util::AppendU32(out, static_cast<uint32_t>(stage.size()));
    for (const auto& id : stage) util::AppendLengthPrefixedStr(out, id);
  }
  return out;
}

util::Result<ProvisionMsg> DecodeProvision(util::ByteSpan frame) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kProvision));
  ProvisionMsg msg;
  uint32_t stages;
  if (!reader.ReadLengthPrefixed(msg.nonce) ||
      !reader.ReadLengthPrefixed(msg.bundle_config) ||
      !reader.ReadU32(stages) || stages > 256) {
    return util::InvalidArgument("malformed Provision");
  }
  for (uint32_t s = 0; s < stages; ++s) {
    uint32_t count;
    if (!reader.ReadU32(count) || count > 64) {
      return util::InvalidArgument("malformed Provision stage");
    }
    std::vector<std::string> ids(count);
    for (auto& id : ids) {
      if (!reader.ReadLengthPrefixedStr(id)) {
        return util::InvalidArgument("malformed Provision id");
      }
    }
    msg.stage_variant_ids.push_back(std::move(ids));
  }
  if (!reader.done()) return util::InvalidArgument("Provision trailing");
  return msg;
}

size_t EncodedSize(const ProvisionResultMsg& msg) {
  size_t size = 1 + LpSize(msg.nonce.size()) + 1 + LpSize(msg.error.size()) + 4;
  for (const auto& id : msg.bound_variant_ids) size += LpSize(id.size());
  return size;
}

util::Bytes EncodeProvisionResult(const ProvisionResultMsg& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kProvisionResult));
  util::AppendLengthPrefixed(out, msg.nonce);
  util::AppendU8(out, msg.ok ? 1 : 0);
  util::AppendLengthPrefixedStr(out, msg.error);
  util::AppendU32(out, static_cast<uint32_t>(msg.bound_variant_ids.size()));
  for (const auto& id : msg.bound_variant_ids) {
    util::AppendLengthPrefixedStr(out, id);
  }
  return out;
}

util::Result<ProvisionResultMsg> DecodeProvisionResult(util::ByteSpan frame) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kProvisionResult));
  ProvisionResultMsg msg;
  uint8_t ok;
  uint32_t count;
  if (!reader.ReadLengthPrefixed(msg.nonce) || !reader.ReadU8(ok) ||
      !reader.ReadLengthPrefixedStr(msg.error) || !reader.ReadU32(count) ||
      count > 4096) {
    return util::InvalidArgument("malformed ProvisionResult");
  }
  msg.ok = ok != 0;
  msg.bound_variant_ids.resize(count);
  for (auto& id : msg.bound_variant_ids) {
    if (!reader.ReadLengthPrefixedStr(id)) {
      return util::InvalidArgument("malformed ProvisionResult id");
    }
  }
  if (!reader.done()) {
    return util::InvalidArgument("ProvisionResult trailing");
  }
  return msg;
}

size_t EncodedSize(const AttestQueryMsg& msg) {
  return 1 + LpSize(msg.nonce.size());
}

util::Bytes EncodeAttestQuery(const AttestQueryMsg& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kAttestQuery));
  util::AppendLengthPrefixed(out, msg.nonce);
  return out;
}

util::Result<AttestQueryMsg> DecodeAttestQuery(util::ByteSpan frame) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kAttestQuery));
  AttestQueryMsg msg;
  if (!reader.ReadLengthPrefixed(msg.nonce) || !reader.done()) {
    return util::InvalidArgument("malformed AttestQuery");
  }
  return msg;
}

size_t EncodedSize(const AttestReplyMsg& msg) {
  size_t size = 1 + LpSize(msg.nonce.size()) + 4;
  for (const auto& r : msg.variant_reports) size += LpSize(r.size());
  return size;
}

util::Bytes EncodeAttestReply(const AttestReplyMsg& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  util::AppendU8(out, static_cast<uint8_t>(MsgType::kAttestReply));
  util::AppendLengthPrefixed(out, msg.nonce);
  util::AppendU32(out, static_cast<uint32_t>(msg.variant_reports.size()));
  for (const auto& r : msg.variant_reports) {
    util::AppendLengthPrefixed(out, r);
  }
  return out;
}

util::Result<AttestReplyMsg> DecodeAttestReply(util::ByteSpan frame) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kAttestReply));
  AttestReplyMsg msg;
  uint32_t count;
  if (!reader.ReadLengthPrefixed(msg.nonce) || !reader.ReadU32(count) ||
      count > 4096) {
    return util::InvalidArgument("malformed AttestReply");
  }
  msg.variant_reports.resize(count);
  for (auto& r : msg.variant_reports) {
    if (!reader.ReadLengthPrefixed(r)) {
      return util::InvalidArgument("malformed AttestReply report");
    }
  }
  if (!reader.done()) return util::InvalidArgument("AttestReply trailing");
  return msg;
}

void PatchVtime(util::Bytes& frame, uint64_t vtime_us) {
  // Layout: tag (1 byte) + batch_id (8) + vtime (8).
  MVTEE_CHECK(frame.size() >= 17);
  for (int i = 0; i < 8; ++i) {
    frame[9 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(vtime_us >> (56 - 8 * i));
  }
}

util::Result<MsgType> PeekType(util::ByteSpan frame) {
  if (frame.empty()) return util::InvalidArgument("empty frame");
  uint8_t tag = frame[0];
  if (tag < static_cast<uint8_t>(MsgType::kAssignIdentity) ||
      tag > static_cast<uint8_t>(MsgType::kRelease)) {
    return util::InvalidArgument("unknown message type " +
                                 std::to_string(tag));
  }
  return static_cast<MsgType>(tag);
}

util::Result<AssignIdentityMsg> DecodeAssignIdentity(util::ByteSpan frame) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kAssignIdentity));
  AssignIdentityMsg msg;
  if (!reader.ReadLengthPrefixedStr(msg.variant_id) ||
      !reader.ReadLengthPrefixed(msg.variant_key) || !reader.done()) {
    return util::InvalidArgument("malformed AssignIdentity");
  }
  return msg;
}

util::Result<IdentityAckMsg> DecodeIdentityAck(util::ByteSpan frame) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kIdentityAck));
  IdentityAckMsg msg;
  util::Bytes digest;
  uint8_t ok;
  if (!reader.ReadLengthPrefixedStr(msg.variant_id) ||
      !reader.ReadBytes(crypto::kSha256DigestSize, digest) ||
      !reader.ReadU8(ok) || !reader.ReadLengthPrefixedStr(msg.error) ||
      !reader.done()) {
    return util::InvalidArgument("malformed IdentityAck");
  }
  std::copy(digest.begin(), digest.end(), msg.manifest_hash.begin());
  msg.ok = ok != 0;
  return msg;
}

namespace {
util::Result<InferMsg> DecodeInferImpl(
    util::ByteSpan frame, const std::shared_ptr<const void>& keepalive) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kInfer));
  InferMsg msg;
  if (!reader.ReadU64(msg.batch_id) || !reader.ReadU64(msg.vtime_us) ||
      !ReadSlots(reader, msg.slots)) {
    return util::InvalidArgument("malformed Infer");
  }
  MVTEE_RETURN_IF_ERROR(ReadTensors(reader, msg.inputs, keepalive));
  if (msg.slots.size() != msg.inputs.size() || !reader.done()) {
    return util::InvalidArgument("inconsistent Infer");
  }
  return msg;
}

util::Result<InferResultMsg> DecodeInferResultImpl(
    util::ByteSpan frame, const std::shared_ptr<const void>& keepalive) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kInferResult));
  InferResultMsg msg;
  uint8_t ok;
  if (!reader.ReadU64(msg.batch_id) || !reader.ReadU64(msg.vtime_us) ||
      !reader.ReadU8(ok)) {
    return util::InvalidArgument("malformed InferResult");
  }
  msg.ok = ok != 0;
  MVTEE_RETURN_IF_ERROR(ReadTensors(reader, msg.outputs, keepalive));
  if (!reader.ReadLengthPrefixedStr(msg.error) || !reader.done()) {
    return util::InvalidArgument("malformed InferResult tail");
  }
  return msg;
}
}  // namespace

util::Result<InferMsg> DecodeInfer(util::ByteSpan frame) {
  return DecodeInferImpl(frame, nullptr);
}

util::Result<InferMsg> DecodeInfer(const transport::InFrame& frame) {
  return DecodeInferImpl(frame.span(), frame.keepalive());
}

util::Result<InferResultMsg> DecodeInferResult(util::ByteSpan frame) {
  return DecodeInferResultImpl(frame, nullptr);
}

util::Result<InferResultMsg> DecodeInferResult(const transport::InFrame& frame) {
  return DecodeInferResultImpl(frame.span(), frame.keepalive());
}

util::Result<SetupRoutesMsg> DecodeSetupRoutes(util::ByteSpan frame) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kSetupRoutes));
  SetupRoutesMsg msg;
  uint32_t up_count;
  if (!reader.ReadU32(up_count) || up_count > 256) {
    return util::InvalidArgument("malformed SetupRoutes");
  }
  for (uint32_t i = 0; i < up_count; ++i) {
    UpstreamRoute up;
    if (!reader.ReadU64(up.pipe_id)) {
      return util::InvalidArgument("truncated upstream route");
    }
    msg.upstream.push_back(up);
  }
  uint32_t down_count;
  if (!reader.ReadU32(down_count) || down_count > 256) {
    return util::InvalidArgument("malformed SetupRoutes downstream");
  }
  for (uint32_t i = 0; i < down_count; ++i) {
    DownstreamRoute down;
    uint32_t pairs;
    if (!reader.ReadU64(down.pipe_id) || !reader.ReadU32(pairs) ||
        pairs > 1024) {
      return util::InvalidArgument("truncated downstream route");
    }
    for (uint32_t p = 0; p < pairs; ++p) {
      uint32_t output, slot;
      if (!reader.ReadU32(output) || !reader.ReadU32(slot)) {
        return util::InvalidArgument("truncated output map");
      }
      down.output_to_slot.push_back({output, slot});
    }
    msg.downstream.push_back(std::move(down));
  }
  uint8_t report;
  if (!reader.ReadU8(report) || !reader.done()) {
    return util::InvalidArgument("malformed SetupRoutes tail");
  }
  msg.report_to_monitor = report != 0;
  return msg;
}

util::Result<RoutesAckMsg> DecodeRoutesAck(util::ByteSpan frame) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kRoutesAck));
  RoutesAckMsg msg;
  uint8_t ok;
  if (!reader.ReadU8(ok) || !reader.ReadLengthPrefixedStr(msg.error) ||
      !reader.done()) {
    return util::InvalidArgument("malformed RoutesAck");
  }
  msg.ok = ok != 0;
  return msg;
}

util::Result<ReleaseMsg> DecodeRelease(util::ByteSpan frame) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kRelease));
  ReleaseMsg msg;
  if (!reader.ReadU64(msg.batch_id) || !reader.done()) {
    return util::InvalidArgument("malformed Release");
  }
  return msg;
}

namespace {
util::Result<StageDataMsg> DecodeStageDataImpl(
    util::ByteSpan frame, const std::shared_ptr<const void>& keepalive) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kStageData));
  StageDataMsg msg;
  if (!reader.ReadU64(msg.batch_id) || !reader.ReadU64(msg.vtime_us) ||
      !ReadSlots(reader, msg.slots)) {
    return util::InvalidArgument("malformed StageData");
  }
  MVTEE_RETURN_IF_ERROR(ReadTensors(reader, msg.tensors, keepalive));
  if (msg.slots.size() != msg.tensors.size() || !reader.done()) {
    return util::InvalidArgument("inconsistent StageData");
  }
  return msg;
}
}  // namespace

util::Result<StageDataMsg> DecodeStageData(util::ByteSpan frame) {
  return DecodeStageDataImpl(frame, nullptr);
}

util::Result<StageDataMsg> DecodeStageData(const transport::InFrame& frame) {
  return DecodeStageDataImpl(frame.span(), frame.keepalive());
}

namespace {
util::Result<SessionSubmitMsg> DecodeSessionSubmitImpl(
    util::ByteSpan frame, const std::shared_ptr<const void>& keepalive) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kSessionSubmit));
  SessionSubmitMsg msg;
  uint64_t deadline;
  uint32_t priority;
  if (!reader.ReadU64(msg.seq) || !reader.ReadU64(deadline) ||
      !reader.ReadU32(priority) ||
      !reader.ReadLengthPrefixedStr(msg.tenant)) {
    return util::InvalidArgument("malformed SessionSubmit");
  }
  // A negative deadline is NOT a decode error: the server answers it
  // with kAdmissionRejected so the session (and its sequence space)
  // survives a client clock skew.
  msg.deadline_us = static_cast<int64_t>(deadline);
  msg.priority = static_cast<int32_t>(priority);
  MVTEE_RETURN_IF_ERROR(ReadTensors(reader, msg.inputs, keepalive));
  if (!reader.done()) return util::InvalidArgument("SessionSubmit tail");
  return msg;
}

util::Result<SessionReplyMsg> DecodeSessionReplyImpl(
    util::ByteSpan frame, const std::shared_ptr<const void>& keepalive) {
  util::ByteReader reader(frame);
  MVTEE_RETURN_IF_ERROR(ConsumeTag(reader, MsgType::kSessionReply));
  SessionReplyMsg msg;
  uint64_t latency;
  if (!reader.ReadU64(msg.seq) || !reader.ReadU8(msg.code) ||
      !reader.ReadU64(latency) ||
      msg.code > static_cast<uint8_t>(util::StatusCode::kHandshakeFailure) ||
      !reader.ReadLengthPrefixedStr(msg.error)) {
    return util::InvalidArgument("malformed SessionReply");
  }
  msg.latency_us = static_cast<int64_t>(latency);
  MVTEE_RETURN_IF_ERROR(ReadTensors(reader, msg.outputs, keepalive));
  if (!reader.done()) return util::InvalidArgument("SessionReply tail");
  return msg;
}
}  // namespace

util::Result<SessionSubmitMsg> DecodeSessionSubmit(util::ByteSpan frame) {
  return DecodeSessionSubmitImpl(frame, nullptr);
}

util::Result<SessionSubmitMsg> DecodeSessionSubmit(
    const transport::InFrame& frame) {
  return DecodeSessionSubmitImpl(frame.span(), frame.keepalive());
}

util::Result<SessionReplyMsg> DecodeSessionReply(util::ByteSpan frame) {
  return DecodeSessionReplyImpl(frame, nullptr);
}

util::Result<SessionReplyMsg> DecodeSessionReply(
    const transport::InFrame& frame) {
  return DecodeSessionReplyImpl(frame.span(), frame.keepalive());
}

util::Bytes EncodeTraceContext(const obs::TraceContext& ctx) {
  util::Bytes out;
  util::AppendU64(out, ctx.trace_id);
  util::AppendU64(out, ctx.span_id);
  return out;
}

util::Result<obs::TraceContext> DecodeTraceContext(util::ByteSpan header) {
  obs::TraceContext ctx;
  if (header.empty()) return ctx;  // headerless frame: no context
  util::ByteReader reader(header);
  if (!reader.ReadU64(ctx.trace_id) || !reader.ReadU64(ctx.span_id) ||
      !reader.done()) {
    return util::InvalidArgument("malformed trace-context header");
  }
  return ctx;
}

}  // namespace mvtee::core
