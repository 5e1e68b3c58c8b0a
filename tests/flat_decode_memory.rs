//! The `dpsd-bin` decoder reserves no memory for bytes it has not
//! read. A hostile blob can declare a large tree in a few hundred
//! bytes: `POST /synopses/{name}` decodes unauthenticated bodies, so a
//! decoder that sized its columns from the header before checking that
//! their bytes exist would let a 304-byte request reserve hundreds of
//! megabytes.
//!
//! This suite is a test binary of its own with a single test, so the
//! process's peak virtual size (`VmPeak` in `/proc/self/status`) moves
//! only with what this decode reserves.

use dpsd::prelude::*;

/// FNV-1a 64, the format's checksum primitive.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A well-framed header for a `D = 4`, height-6 quadtree (fanout 16,
/// 17,895,697 nodes, under the node cap) that ends right after its
/// level table: every column the header declares is missing.
fn truncated_blob() -> Vec<u8> {
    const DIMS: u32 = 4;
    const HEIGHT: u64 = 6;
    let fanout = 16u64;
    let mut level_starts = vec![0u64];
    for _ in 0..=HEIGHT {
        let last = *level_starts.last().unwrap();
        let width = fanout.pow(u32::try_from(level_starts.len() - 1).unwrap());
        level_starts.push(last + width);
    }
    let nodes = *level_starts.last().unwrap();
    assert_eq!(nodes, 17_895_697);

    let mut blob = Vec::new();
    blob.extend_from_slice(b"DPSDBIN1");
    blob.extend_from_slice(&[0; 8]); // checksum, patched below
    for field in [1u32, DIMS, 0, 0] {
        // version, dims, kind code (quadtree), flags
        blob.extend_from_slice(&field.to_le_bytes());
    }
    for field in [fanout, HEIGHT, nodes] {
        blob.extend_from_slice(&field.to_le_bytes());
    }
    blob.extend_from_slice(&1.0f64.to_le_bytes()); // epsilon
    let domain = [0.0f64, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
    let eps_count = [1.0f64 / 7.0; 7];
    let eps_median = [0.0f64; 7];
    for v in domain.iter().chain(&eps_count).chain(&eps_median) {
        blob.extend_from_slice(&v.to_le_bytes());
    }
    for start in &level_starts {
        blob.extend_from_slice(&start.to_le_bytes());
    }
    let sum = fnv1a(&blob[16..]);
    blob[8..16].copy_from_slice(&sum.to_le_bytes());
    blob
}

/// The process's peak virtual size, in kB.
fn vm_peak_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmPeak:"))
        .expect("VmPeak line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kb| kb.parse().ok())
        .expect("VmPeak value")
}

#[test]
fn a_truncated_blob_reserves_no_memory_for_its_missing_columns() {
    let blob = truncated_blob();
    assert_eq!(blob.len(), 304);
    let before = vm_peak_kb();
    match FlatSynopsis::<4>::from_bytes(&blob) {
        Err(DpsdError::Format { reason }) => {
            assert!(reason.contains("truncated"), "unexpected reason: {reason}")
        }
        other => panic!("a truncated blob must be a Format error, got {other:?}"),
    }
    let grown_mb = (vm_peak_kb() - before) / 1024;
    assert!(
        grown_mb < 64,
        "decoding a 304-byte blob raised VmPeak by {grown_mb} MB"
    );
}
