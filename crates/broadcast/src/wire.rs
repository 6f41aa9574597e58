//! Bucket wire format.
//!
//! The simulator's timing model charges one tick per bucket; this module
//! pins down what a bucket physically carries so tick counts translate
//! to real airtime. Each POI record is 21 bytes (`id: u32`, `x: f64`,
//! `y: f64`, `category: u8`), and a bucket frame is a 14-byte header
//! (`bucket id: u32`, `Hilbert range lo: u64`, `record count: u16` —
//! range hi is implied by the next bucket's lo, and deltas would shrink
//! this further; kept plain for clarity) followed by the records and a
//! 4-byte CRC-32 trailer over everything before it, so receivers can
//! detect corruption instead of consuming garbage positions.
//!
//! Encoding uses the `bytes` crate's `BufMut`/`Buf` so frames can be
//! assembled into transmit buffers without intermediate copies.

use crate::{Bucket, Poi, PoiCategory};
use airshare_geom::Point;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Bytes per serialized POI record.
pub const POI_RECORD_BYTES: usize = 4 + 8 + 8 + 1;

/// Bytes of the bucket frame header.
pub const BUCKET_HEADER_BYTES: usize = 4 + 8 + 2;

/// Bytes of the CRC-32 frame trailer.
pub const CRC_TRAILER_BYTES: usize = 4;

/// Serialized size of a bucket with `n` POIs.
pub fn bucket_frame_bytes(n: usize) -> usize {
    BUCKET_HEADER_BYTES + n * POI_RECORD_BYTES + CRC_TRAILER_BYTES
}

/// CRC-32 (IEEE 802.3, reflected, poly `0xEDB88320`) lookup table.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Errors from [`encode_bucket`] and [`decode_bucket`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before the declared record count was read.
    Truncated,
    /// The declared record count disagrees with the payload length.
    LengthMismatch,
    /// A field exceeds its wire-format range (bucket id > `u32::MAX` or
    /// record count > `u16::MAX`).
    Overflow,
    /// The CRC-32 trailer does not match the frame contents.
    ChecksumMismatch,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "bucket frame truncated"),
            WireError::LengthMismatch => write!(f, "record count does not match payload"),
            WireError::Overflow => write!(f, "field exceeds wire-format range"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a bucket into its on-air frame.
///
/// Fails with [`WireError::Overflow`] when the bucket id or record count
/// does not fit its wire field, rather than silently truncating.
pub fn encode_bucket(bucket: &Bucket) -> Result<Bytes, WireError> {
    let id = u32::try_from(bucket.id).map_err(|_| WireError::Overflow)?;
    let n = u16::try_from(bucket.pois.len()).map_err(|_| WireError::Overflow)?;
    let mut buf = BytesMut::with_capacity(bucket_frame_bytes(bucket.pois.len()));
    buf.put_u32(id);
    buf.put_u64(bucket.hilbert_range.0);
    buf.put_u16(n);
    for poi in &bucket.pois {
        buf.put_u32(poi.id);
        buf.put_f64(poi.pos.x);
        buf.put_f64(poi.pos.y);
        buf.put_u8(poi.category.0);
    }
    let crc = crc32(&buf);
    buf.put_u32(crc);
    Ok(buf.freeze())
}

/// Decodes an on-air frame back into `(bucket id, hilbert lo, POIs)`.
///
/// Verifies the CRC-32 trailer before interpreting any field, so a
/// corrupted frame surfaces as [`WireError::ChecksumMismatch`] instead of
/// bogus coordinates.
pub fn decode_bucket(mut frame: Bytes) -> Result<(usize, u64, Vec<Poi>), WireError> {
    if frame.len() < BUCKET_HEADER_BYTES + CRC_TRAILER_BYTES {
        return Err(WireError::Truncated);
    }
    let body_len = frame.len() - CRC_TRAILER_BYTES;
    let expected = {
        let trailer = frame.slice(body_len..);
        u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]])
    };
    if crc32(&frame[..body_len]) != expected {
        return Err(WireError::ChecksumMismatch);
    }
    let id = frame.get_u32() as usize;
    let h_lo = frame.get_u64();
    let n = frame.get_u16() as usize;
    if frame.len() - CRC_TRAILER_BYTES != n * POI_RECORD_BYTES {
        return Err(WireError::LengthMismatch);
    }
    let mut pois = Vec::with_capacity(n);
    for _ in 0..n {
        let id = frame.get_u32();
        let x = frame.get_f64();
        let y = frame.get_f64();
        let cat = frame.get_u8();
        pois.push(Poi::with_category(id, Point::new(x, y), PoiCategory(cat)));
    }
    Ok((id, h_lo, pois))
}

/// Appends the CRC-32 trailer to an arbitrary payload, producing a
/// complete on-air frame.
///
/// Backend index buckets ([`crate::AirIndexBackend::encode_index_bucket`])
/// carry backend-specific payloads — curve-range descriptors for the
/// Hilbert index, MBR descriptors for the R-tree — but all of them use
/// this shared framing so receivers detect corruption uniformly with
/// [`verify_payload`].
pub fn frame_payload(payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(payload.len() + CRC_TRAILER_BYTES);
    buf.put_slice(payload);
    buf.put_u32(crc32(payload));
    buf.freeze()
}

/// Verifies a [`frame_payload`] frame and returns the payload slice.
///
/// Fails with [`WireError::Truncated`] when the frame is shorter than the
/// trailer, and [`WireError::ChecksumMismatch`] when the CRC does not
/// match.
pub fn verify_payload(frame: &[u8]) -> Result<&[u8], WireError> {
    if frame.len() < CRC_TRAILER_BYTES {
        return Err(WireError::Truncated);
    }
    let (payload, trailer) = frame.split_at(frame.len() - CRC_TRAILER_BYTES);
    let expected = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if crc32(payload) != expected {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AirIndex, AirIndexBackend};
    use airshare_geom::Rect;
    use airshare_hilbert::Grid;

    fn sample_bucket() -> Bucket {
        let world = Rect::from_coords(0.0, 0.0, 8.0, 8.0);
        let pois = vec![
            Poi::new(3, Point::new(1.0, 2.0)),
            Poi::with_category(9, Point::new(2.5, 2.5), PoiCategory(4)),
        ];
        let index = AirIndex::try_build(pois, Grid::new(world, 3), 8).unwrap();
        index.buckets()[0].clone()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let b = sample_bucket();
        let frame = encode_bucket(&b).unwrap();
        assert_eq!(frame.len(), bucket_frame_bytes(b.pois.len()));
        let (id, h_lo, pois) = decode_bucket(frame).unwrap();
        assert_eq!(id, b.id);
        assert_eq!(h_lo, b.hilbert_range.0);
        assert_eq!(pois.len(), b.pois.len());
        for (a, e) in pois.iter().zip(&b.pois) {
            assert_eq!(a.id, e.id);
            assert_eq!(a.pos, e.pos);
            assert_eq!(a.category, e.category);
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let b = sample_bucket();
        let frame = encode_bucket(&b).unwrap();
        let short = frame.slice(0..BUCKET_HEADER_BYTES + CRC_TRAILER_BYTES - 1);
        assert_eq!(decode_bucket(short), Err(WireError::Truncated));
        // Losing payload bytes also invalidates the checksum, which is
        // checked first.
        let clipped = frame.slice(0..frame.len() - 3);
        assert_eq!(decode_bucket(clipped), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn corrupted_frames_fail_checksum() {
        let b = sample_bucket();
        let frame = encode_bucket(&b).unwrap();
        for pos in 0..frame.len() {
            let mut bytes = frame.to_vec();
            bytes[pos] ^= 0x01;
            assert_eq!(
                decode_bucket(Bytes::from(bytes)),
                Err(WireError::ChecksumMismatch),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn oversized_fields_are_rejected() {
        let mut b = sample_bucket();
        b.id = u32::MAX as usize + 1;
        assert_eq!(encode_bucket(&b), Err(WireError::Overflow));
    }

    #[test]
    fn crc32_known_vector() {
        // Standard check value for the ASCII digits "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn payload_framing_roundtrips_and_detects_corruption() {
        let payload = b"arbitrary index-bucket payload";
        let frame = frame_payload(payload);
        assert_eq!(frame.len(), payload.len() + CRC_TRAILER_BYTES);
        assert_eq!(verify_payload(&frame).unwrap(), payload);
        // Every single-bit flip is caught.
        for pos in 0..frame.len() {
            let mut bytes = frame.to_vec();
            bytes[pos] ^= 0x01;
            assert_eq!(
                verify_payload(&bytes),
                Err(WireError::ChecksumMismatch),
                "flip at byte {pos} went undetected"
            );
        }
        // Empty payloads frame fine; sub-trailer frames are truncated.
        assert_eq!(verify_payload(&frame_payload(b"")).unwrap(), b"");
        assert_eq!(verify_payload(b"abc"), Err(WireError::Truncated));
    }

    #[test]
    fn empty_bucket_frame() {
        let world = Rect::from_coords(0.0, 0.0, 8.0, 8.0);
        let pois = vec![Poi::new(0, Point::new(1.0, 1.0))];
        let index = AirIndex::try_build(pois, Grid::new(world, 3), 4).unwrap();
        let mut b = index.buckets()[0].clone();
        b.pois.clear();
        let (_, _, decoded) = decode_bucket(encode_bucket(&b).unwrap()).unwrap();
        assert!(decoded.is_empty());
    }
}
