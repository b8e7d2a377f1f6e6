// Wire protocol between RdmaCopier (ReduceTask) and the TaskTracker's
// RDMA shuffle service (§III-B1): every request/response carries the
// identification parameters the paper lists — map id, reduce id, job id,
// cursor, and the number of key-value pairs shipped.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "net/message.h"

namespace hmr::rdmashuffle {

inline constexpr std::uint64_t kTagDataRequest = 0x10;
inline constexpr std::uint64_t kTagDataResponse = 0x11;

inline constexpr std::uint64_t kRequestWireBytes = 64;
inline constexpr std::uint64_t kResponseHeaderBytes = 64;

struct DataRequest {
  std::uint32_t job_id = 0;
  std::uint32_t map_id = 0;
  std::uint32_t reduce_id = 0;
  std::uint64_t cursor_real = 0;     // real-byte offset into the partition
  std::uint64_t max_pairs = 0;       // fixed-count mode (Hadoop-A)
  std::uint64_t max_real_bytes = 0;  // byte-budget mode (OSU-IB)

  // Encoded size: the six fixed-width fields.
  static constexpr size_t kEncodedBytes = 3 * 4 + 3 * 8;

  Bytes encode() const {
    ByteWriter w;
    w.reserve(kEncodedBytes);
    w.put_u32(job_id);
    w.put_u32(map_id);
    w.put_u32(reduce_id);
    w.put_u64(cursor_real);
    w.put_u64(max_pairs);
    w.put_u64(max_real_bytes);
    return w.take();
  }
  // A request is exactly the six fixed-width fields; anything truncated
  // or with trailing bytes is malformed. Callers drop malformed messages
  // (counting shuffle.malformed_msgs) and let the copier's fetch timeout
  // retry — a bad frame must never take the responder down.
  static Result<DataRequest> decode(const Bytes& data) {
    ByteReader r(data);
    DataRequest req;
    const auto job_id = r.u32();
    if (!job_id.ok()) return job_id.status();
    req.job_id = *job_id;
    const auto map_id = r.u32();
    if (!map_id.ok()) return map_id.status();
    req.map_id = *map_id;
    const auto reduce_id = r.u32();
    if (!reduce_id.ok()) return reduce_id.status();
    req.reduce_id = *reduce_id;
    const auto cursor_real = r.u64();
    if (!cursor_real.ok()) return cursor_real.status();
    req.cursor_real = *cursor_real;
    const auto max_pairs = r.u64();
    if (!max_pairs.ok()) return max_pairs.status();
    req.max_pairs = *max_pairs;
    const auto max_real_bytes = r.u64();
    if (!max_real_bytes.ok()) return max_real_bytes.status();
    req.max_real_bytes = *max_real_bytes;
    if (!r.at_end()) {
      return Status::InvalidArgument("trailing bytes after DataRequest");
    }
    return req;
  }
  // A frame as the TaskTracker's receiver takes it off an endpoint: a
  // kTagDataRequest message whose payload decodes. A wrong tag or a
  // missing payload is as malformed as a short one.
  static Result<DataRequest> from_frame(const net::Message& msg) {
    if (msg.tag != kTagDataRequest || msg.payload == nullptr) {
      return Status::InvalidArgument("not a DataRequest frame");
    }
    return decode(*msg.payload);
  }
};

struct DataResponse {
  std::uint32_t job_id = 0;
  std::uint32_t map_id = 0;
  std::uint32_t reduce_id = 0;
  std::uint64_t cursor_real = 0;  // echo of the request's cursor: the
                                  // copier uses it to discard stale
                                  // duplicates of timed-out requests
  std::uint64_t n_pairs = 0;
  std::uint64_t chunk_real_bytes = 0;
  std::uint32_t chunk_crc = 0;  // CRC-32C of the chunk payload: the
                                // index CRC computed at spill time when
                                // the chunk is the whole partition, else
                                // the responder's scan of the bytes it
                                // sends (DESIGN.md §6.2)
  bool eof = false;
  // Raw serialized kv records follow the header on the wire.

  // Encoded header size, and where map_id sits in it.
  static constexpr size_t kEncodedHeaderBytes = 3 * 4 + 3 * 8 + 4 + 1;
  static constexpr size_t kMapIdOffset = 4;

  // Writes the header into `w`; `extra` more bytes (the chunk that
  // follows) are reserved with it so the frame grows once.
  void encode_header(ByteWriter& w, size_t extra = 0) const {
    w.reserve(kEncodedHeaderBytes + extra);
    w.put_u32(job_id);
    w.put_u32(map_id);
    w.put_u32(reduce_id);
    w.put_u64(cursor_real);
    w.put_u64(n_pairs);
    w.put_u64(chunk_real_bytes);
    w.put_u32(chunk_crc);
    w.put_u8(eof ? 1 : 0);
  }
  Bytes encode_header() const {
    ByteWriter w;
    encode_header(w);
    return w.take();
  }
  // The map_id of a response frame without decoding the rest of the
  // header; a frame shorter than the header is malformed.
  static Result<std::uint32_t> peek_map_id(const Bytes& frame) {
    if (frame.size() < kEncodedHeaderBytes) {
      return Status::OutOfRange("short DataResponse header");
    }
    ByteReader r(std::span<const std::uint8_t>(frame).subspan(kMapIdOffset));
    return r.u32();
  }
  // Consumes the header, leaving `r` at the first kv record. A short
  // header is malformed (see DataRequest::decode); the payload length is
  // checked by the caller against chunk_real_bytes.
  static Result<DataResponse> decode_header(ByteReader& r) {
    DataResponse resp;
    const auto job_id = r.u32();
    if (!job_id.ok()) return job_id.status();
    resp.job_id = *job_id;
    const auto map_id = r.u32();
    if (!map_id.ok()) return map_id.status();
    resp.map_id = *map_id;
    const auto reduce_id = r.u32();
    if (!reduce_id.ok()) return reduce_id.status();
    resp.reduce_id = *reduce_id;
    const auto cursor_real = r.u64();
    if (!cursor_real.ok()) return cursor_real.status();
    resp.cursor_real = *cursor_real;
    const auto n_pairs = r.u64();
    if (!n_pairs.ok()) return n_pairs.status();
    resp.n_pairs = *n_pairs;
    const auto chunk_real_bytes = r.u64();
    if (!chunk_real_bytes.ok()) return chunk_real_bytes.status();
    resp.chunk_real_bytes = *chunk_real_bytes;
    const auto chunk_crc = r.u32();
    if (!chunk_crc.ok()) return chunk_crc.status();
    resp.chunk_crc = *chunk_crc;
    const auto eof = r.u8();
    if (!eof.ok()) return eof.status();
    resp.eof = *eof != 0;
    return resp;
  }
};

}  // namespace hmr::rdmashuffle
