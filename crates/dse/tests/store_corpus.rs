//! Named regression corpus for store-entry rejection classes.
//!
//! Each test pins one corruption class `reno-fuzz`'s `store` surface
//! probes randomly: the class must map to a structured rejection — which the
//! store turns into quarantine + recompute — never a panic, a wrong
//! payload, or an attacker-sized allocation.

use reno_dse::{decode_entry, encode_entry, EntryKind, StoreError, HEADER_LEN};

const KEY: u64 = 0x0123_4567_89ab_cdef;

fn frame() -> Vec<u8> {
    encode_entry(EntryKind::Cell, KEY, b"corpus payload bytes")
}

#[test]
fn pristine_frame_roundtrips() {
    let f = frame();
    assert_eq!(
        decode_entry(&f, EntryKind::Cell, KEY).unwrap(),
        b"corpus payload bytes"
    );
}

#[test]
fn empty_and_short_inputs_are_truncated() {
    assert_eq!(
        decode_entry(&[], EntryKind::Cell, KEY).unwrap_err(),
        StoreError::Truncated
    );
    assert_eq!(
        decode_entry(b"RENO", EntryKind::Cell, KEY).unwrap_err(),
        StoreError::Truncated
    );
    // Long enough to show a magic, but the magic is wrong.
    assert_eq!(
        decode_entry(b"NOTMAGIC", EntryKind::Cell, KEY).unwrap_err(),
        StoreError::BadMagic
    );
}

#[test]
fn every_truncation_point_rejects() {
    let f = frame();
    for n in 0..f.len() {
        assert!(
            decode_entry(&f[..n], EntryKind::Cell, KEY).is_err(),
            "prefix of {n} bytes must be rejected"
        );
    }
}

#[test]
fn bad_magic_rejects() {
    let mut f = frame();
    f[0] ^= 0x20;
    assert_eq!(
        decode_entry(&f, EntryKind::Cell, KEY).unwrap_err(),
        StoreError::BadMagic
    );
}

#[test]
fn unknown_version_rejects() {
    let mut f = frame();
    f[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert_eq!(
        decode_entry(&f, EntryKind::Cell, KEY).unwrap_err(),
        StoreError::BadVersion(99)
    );
}

#[test]
fn unknown_kind_tag_rejects() {
    let mut f = frame();
    f[12] = 0x7f;
    assert_eq!(
        decode_entry(&f, EntryKind::Cell, KEY).unwrap_err(),
        StoreError::BadKind(0x7f)
    );
}

#[test]
fn kind_swap_rejects_as_mismatch() {
    // A pass frame read back where a cell result was expected — a
    // renamed/moved object file must not be trusted.
    let f = encode_entry(EntryKind::Pass, KEY, b"x");
    assert_eq!(
        decode_entry(&f, EntryKind::Cell, KEY).unwrap_err(),
        StoreError::KindMismatch {
            expected: 2,
            got: 1
        }
    );
}

#[test]
fn renamed_key_rejects() {
    let f = frame();
    let e = decode_entry(&f, EntryKind::Cell, KEY ^ 1).unwrap_err();
    assert!(matches!(e, StoreError::KeyMismatch { .. }), "{e:?}");
}

#[test]
fn length_lie_rejects_before_allocating() {
    // Claim u64::MAX payload bytes: must reject from the frame arithmetic,
    // never attempt a 16-EiB allocation.
    let mut f = frame();
    f[21..29].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        decode_entry(&f, EntryKind::Cell, KEY).unwrap_err(),
        StoreError::LengthMismatch {
            claimed: u64::MAX,
            ..
        }
    ));
}

#[test]
fn trailing_garbage_rejects() {
    let mut f = frame();
    f.extend_from_slice(b"tail");
    assert!(matches!(
        decode_entry(&f, EntryKind::Cell, KEY).unwrap_err(),
        StoreError::LengthMismatch { .. }
    ));
}

#[test]
fn duplicated_frame_rejects() {
    // A frame concatenated with itself (e.g. a botched copy) disagrees
    // with its own length field.
    let mut f = frame();
    let dup = f.clone();
    f.extend_from_slice(&dup);
    assert!(matches!(
        decode_entry(&f, EntryKind::Cell, KEY).unwrap_err(),
        StoreError::LengthMismatch { .. }
    ));
}

#[test]
fn payload_bit_rot_rejects_via_checksum() {
    let mut f = frame();
    let last = f.len() - 1;
    f[last] ^= 0x01;
    assert!(matches!(
        decode_entry(&f, EntryKind::Cell, KEY).unwrap_err(),
        StoreError::ChecksumMismatch { .. }
    ));
}

#[test]
fn checksum_field_lie_rejects() {
    let mut f = frame();
    f[29..37].copy_from_slice(&0u64.to_le_bytes());
    assert!(matches!(
        decode_entry(&f, EntryKind::Cell, KEY).unwrap_err(),
        StoreError::ChecksumMismatch { .. }
    ));
}

#[test]
fn empty_payload_is_legal() {
    let f = encode_entry(EntryKind::Cell, KEY, &[]);
    assert_eq!(f.len(), HEADER_LEN);
    assert_eq!(
        decode_entry(&f, EntryKind::Cell, KEY).unwrap(),
        Vec::<u8>::new()
    );
}

#[test]
fn cell_result_payload_is_strict() {
    use reno_dse::CellResult;
    let r = CellResult {
        cycles: 1000,
        retired: 900,
        checksum: 42,
        halted: true,
    };
    let b = r.to_bytes();
    assert_eq!(CellResult::from_bytes(&b).unwrap(), r);
    // Wrong size and non-boolean halt flags are structured rejections.
    assert!(CellResult::from_bytes(&b[..31]).is_err());
    let mut bad = b.clone();
    bad[24] = 2;
    assert!(matches!(
        CellResult::from_bytes(&bad).unwrap_err(),
        StoreError::BadPayload(_)
    ));
}
