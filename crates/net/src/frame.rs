//! Frame integrity: a CRC32C checksum wrapper.
//!
//! Real devp2p runs over RLPx, whose per-frame MAC makes corrupted frames
//! die at the transport instead of reaching the protocol decoder. Without
//! this, a corrupted-but-decodable `NewBlock` becomes a *mutant block* with
//! a fresh hash — and at simulation-scale proof-of-work, mutants can pass
//! the seal check and self-replicate through gossip (a branching process
//! that melts the event queue; found the hard way, kept as a regression
//! test). [`seal_frame`]/[`open_frame`] reproduce the MAC's effect.
//!
//! The seal is CRC32C ([`fork_crypto::crc32c()`]), not a keyed MAC: the
//! simulation models accidental and injected damage, not a forger. CRC32C
//! detects every burst of up to 32 bits, so every single-byte flip the
//! `CorruptFrames` byzantine injects is caught with certainty, at several
//! times the speed of a truncated Keccak. The same kernel seals the
//! archive's frames and the `fork-serve` wire frames.

use fork_crypto::crc32c;

/// Checksum length in bytes (CRC32C — integrity, not crypto).
pub const CHECKSUM_LEN: usize = 4;

/// The checksum [`seal_frame`] prepends and [`open_frame`] verifies: the
/// payload's CRC32C, little-endian. Public so a caller that lays a frame
/// out in its own buffer seals it with the same bytes.
pub fn frame_checksum(payload: &[u8]) -> [u8; CHECKSUM_LEN] {
    crc32c(payload).to_le_bytes()
}

/// Wraps a payload with its checksum.
pub fn seal_frame(payload: &[u8]) -> Vec<u8> {
    crate::telemetry::record_seal();
    let mut out = Vec::with_capacity(payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&frame_checksum(payload));
    out.extend_from_slice(payload);
    out
}

/// Verifies and strips the checksum; `None` for corrupted or truncated
/// frames.
pub fn open_frame(frame: &[u8]) -> Option<&[u8]> {
    if frame.len() < CHECKSUM_LEN {
        crate::telemetry::record_open(false);
        return None;
    }
    let (checksum, payload) = frame.split_at(CHECKSUM_LEN);
    if frame_checksum(payload) == checksum {
        crate::telemetry::record_open(true);
        Some(payload)
    } else {
        crate::telemetry::record_open(false);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let payload = b"hello gossip";
        let frame = seal_frame(payload);
        assert_eq!(open_frame(&frame), Some(payload.as_slice()));
    }

    #[test]
    fn any_single_byte_flip_detected() {
        let payload = vec![0xABu8; 64];
        let frame = seal_frame(&payload);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            assert_eq!(open_frame(&bad), None, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn truncated_frames_rejected() {
        let frame = seal_frame(b"x");
        assert_eq!(open_frame(&frame[..frame.len() - 1]), None);
        assert_eq!(open_frame(&[]), None);
        assert_eq!(open_frame(&frame[..3]), None);
    }

    #[test]
    fn frame_checksum_is_the_seal_prefix() {
        for payload in [&b""[..], b"x", &[0xABu8; 300]] {
            let frame = seal_frame(payload);
            assert_eq!(frame[..CHECKSUM_LEN], frame_checksum(payload));
        }
    }

    #[test]
    fn checksum_is_little_endian_crc32c() {
        assert_eq!(frame_checksum(b"123456789"), 0xE306_9283u32.to_le_bytes());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let frame = seal_frame(b"");
        assert_eq!(open_frame(&frame), Some(&b""[..]));
    }
}
