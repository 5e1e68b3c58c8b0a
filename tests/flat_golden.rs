//! Byte-exact golden pins for the `dpsd-bin/v1` binary synopsis
//! format, in the same spirit as `tests/bit_identity.rs` and
//! `tests/serve_wire_golden.rs`: one tiny seeded release per tree
//! family and per supported dimension, encoded and compared against a
//! pinned hex blob. Any change to the wire layout — field order, a
//! header width, the checksum, bitmap packing — shows up here as a
//! diff, so a format change is a deliberate, reviewed `v2` instead of
//! a silent incompatibility.
//!
//! To regenerate after an *intentional* format change, run with
//! `PRINT_FLAT_GOLDEN=1` and paste the printed table:
//!
//! ```text
//! PRINT_FLAT_GOLDEN=1 cargo test --test flat_golden -- --nocapture
//! ```
//!
//! The second half is the decoder's corruption matrix: every header
//! field tampered, every prefix truncation, checksum flips, trailing
//! bytes — all must come back as typed [`DpsdError::Format`] values,
//! never a panic. Last, one table applies each semantic corruption to
//! the same release in both wire formats, and both loaders must name
//! the same reason.

use dpsd::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("bad hex digit"))
        .collect()
}

/// Five fixed points per dimension — the same tiny reviewable dataset
/// shape the wire-golden suite uses, lifted to `D` dimensions.
fn tiny_points<const D: usize>() -> (Rect<D>, Vec<Point<D>>) {
    let domain = Rect::from_corners([0.0; D], [8.0; D]).unwrap();
    let coords = [
        [1.0, 1.0, 2.0, 3.0],
        [2.0, 6.5, 1.5, 5.0],
        [5.5, 2.5, 6.0, 1.0],
        [6.0, 6.0, 3.0, 7.0],
        [7.5, 0.5, 7.0, 2.0],
    ];
    let pts = coords
        .iter()
        .map(|c| {
            let mut p = [0.0; D];
            p.copy_from_slice(&c[..D]);
            Point::from_coords(p)
        })
        .collect();
    (domain, pts)
}

/// `(label, blob)` per family and dimension. Heights are 1 so every
/// blob stays a few hundred bytes — small enough to review as hex.
fn golden_cases() -> Vec<(&'static str, Vec<u8>)> {
    let (d2, p2) = tiny_points::<2>();
    let (d1, p1) = tiny_points::<1>();
    let (d3, p3) = tiny_points::<3>();
    vec![
        (
            "quadtree-2d",
            PsdConfig::quadtree(d2, 1, 2.0)
                .with_seed(4242)
                .build(&p2)
                .unwrap()
                .release()
                .to_flat_bytes(),
        ),
        (
            "kd-standard-2d",
            PsdConfig::kd_standard(d2, 1, 1.0)
                .with_seed(7)
                .build(&p2)
                .unwrap()
                .release()
                .to_flat_bytes(),
        ),
        (
            "kd-hybrid-2d",
            PsdConfig::kd_hybrid(d2, 2, 1.0, 1)
                .with_seed(11)
                .build(&p2)
                .unwrap()
                .release()
                .to_flat_bytes(),
        ),
        (
            "hilbert-r-2d",
            PsdConfig::hilbert_r(d2, 1, 1.0)
                .with_hilbert_order(6)
                .with_seed(9)
                .build(&p2)
                .unwrap()
                .release()
                .to_flat_bytes(),
        ),
        (
            "kd-standard-1d",
            PsdConfig::kd_standard(d1, 1, 1.0)
                .with_seed(13)
                .build(&p1)
                .unwrap()
                .release()
                .to_flat_bytes(),
        ),
        (
            "quadtree-3d",
            PsdConfig::quadtree(d3, 1, 1.0)
                .with_seed(17)
                .build(&p3)
                .unwrap()
                .release()
                .to_flat_bytes(),
        ),
    ]
}

/// The pinned hex blobs, regenerated with `PRINT_FLAT_GOLDEN=1`.
/// (`unhex` strips whitespace, so the pins wrap freely.)
fn pinned(label: &str) -> &'static str {
    match label {
        "quadtree-2d" => {
            "4450534442494e31a409676606be255001000000020000000000000001000000040000000000000001000000 \
             0000000005000000000000000000000000000040000000000000000000000000000000000000000000002040 \
             00000000000020403458353818d7f13f974f958fcf51ec3f0000000000000000000000000000000000000000 \
             0000000001000000000000000500000000000000000000000000000000000000000000000000000000000000 \
             0000000000001040000000000000104000000000000000000000000000000000000000000000104000000000 \
             0000000000000000000010400000000000002040000000000000104000000000000010400000000000002040 \
             0000000000002040000000000000204000000000000010400000000000002040000000000000104000000000 \
             00002040fda2ed7c7aca1740229528aa0d86ebbf7204daf353d5e93f94fb16d86af909407c58edeb5a4ff03f \
             1f00"
        }
        "kd-standard-2d" => {
            "4450534442494e31c80cb1126abc00c001000000020000000100000001000000040000000000000001000000 \
             000000000500000000000000000000000000f03f000000000000000000000000000000000000000000002040 \
             00000000000020407b7b17b5eef9d83f4f51b517ded2d33f0000000000000000343333333333d33f00000000 \
             0000000001000000000000000500000000000000000000000000000000000000000000000000000000000000 \
             9ce4c3596ea116409ce4c3596ea11640000000000000000000000000000000000941076ea4f3024000000000 \
             00000000a5c000bde1971a4000000000000020409ce4c3596ea116409ce4c3596ea116400000000000002040 \
             000000000000204000000000000020400941076ea4f302400000000000002040a5c000bde1971a4000000000 \
             000020402fb1829c04262f4099f5f45a7382264022cb291638071640f6fccb0477350bc037eb5a0d2a0d10c0 \
             1f00"
        }
        "kd-hybrid-2d" => {
            "4450534442494e31eb84b235dda724cf01000000020000000200000001000000040000000000000002000000 \
             000000001500000000000000000000000000f03f000000000000000000000000000000000000000000002040 \
             00000000000020402498edca037cd23f484ea6f49a57cd3f091b180ff749c73f000000000000000000000000 \
             00000000343333333333d33f0000000000000000010000000000000005000000000000001500000000000000 \
             0000000000000000000000000000000000000000000000007c5dd8204528ff3f7c5dd8204528ff3f00000000 \
             0000000000000000000000007c5dd8204528ef3f7c5dd8204528ef3f00000000000000000000000000000000 \
             7c5dd8204528ef3f7c5dd8204528ef3f7c5dd8204528ff3f7c5dd8204528ff3fb00b1ba408e51340b00b1ba4 \
             08e513407c5dd8204528ff3f7c5dd8204528ff3fb00b1ba408e51340b00b1ba408e513400000000000000000 \
             00000000000000001a9e0a5499dae73f000000000000000022f2a74cad3c004000000000000000001a9e0a54 \
             99dad73f00000000000000001a9e0a5499dad73f1a9e0a5499dae73fe2a94095a97d11401a9e0a5499dae73f \
             e2a94095a97d1140000000000000000022f2a74cad3cf03f000000000000000022f2a74cad3cf03f22f2a74c \
             ad3c004088fc29532b0f144022f2a74cad3c004088fc29532b0f144000000000000020407c5dd8204528ff3f \
             7c5dd8204528ff3f000000000000204000000000000020407c5dd8204528ef3f7c5dd8204528ef3f7c5dd820 \
             4528ff3f7c5dd8204528ff3f7c5dd8204528ef3f7c5dd8204528ef3f7c5dd8204528ff3f7c5dd8204528ff3f \
             b00b1ba408e51340b00b1ba408e5134000000000000020400000000000002040b00b1ba408e51340b00b1ba4 \
             08e513400000000000002040000000000000204000000000000020401a9e0a5499dae73f0000000000002040 \
             22f2a74cad3c004000000000000020401a9e0a5499dad73f1a9e0a5499dae73f1a9e0a5499dad73f1a9e0a54 \
             99dae73fe2a94095a97d11400000000000002040e2a94095a97d1140000000000000204022f2a74cad3cf03f \
             22f2a74cad3c004022f2a74cad3cf03f22f2a74cad3c004088fc29532b0f1440000000000000204088fc2953 \
             2b0f14400000000000002040a1c592969f6011405accba5521de1ec09ab0a297711ef2bf169c94a7eec1f13f \
             e5f2c26738cf3740a97e0b5a2dfbf03f32c84189bd9d05c07974246f01961cc0d73e6262078ff5bf75c1fe78 \
             1fcb1040d98df54c99471ac000663cbcc183533f1af29f3de63a0f409da77d15e76825c03d646dfccd7d17c0 \
             5e03e0cd1d8f01c09cfc972363c22c40cd7a3b3747d70bc04a3c163751f8f73fd83f2705572dedbf1dfee698 \
             d2a82440ffff1f000000"
        }
        "hilbert-r-2d" => {
            "4450534442494e311b598708dfeaafd301000000020000000700000001000000040000000000000001000000 \
             000000000500000000000000000000000000f03f000000000000000000000000000000000000000000002040 \
             00000000000020407b7b17b5eef9d83f4f51b517ded2d33f0000000000000000343333333333d33f00000000 \
             000000000100000000000000050000000000000000000000000000000000000000000000000000000000c03f \
             0000000000000000000000000000000000000000000000000000000000000000000000000000d03f00000000 \
             0000000000000000000000000000000000002040000000000000d03f000000000000e03f0000000000001040 \
             00000000000020400000000000002040000000000000e03f000000000000e03f000000000000144000000000 \
             000020409812877577c5e63ffb07e2ee93acf93f786af8d7d1db1240a15055d075c105404e2b6597b5aa1440 \
             1f00"
        }
        "kd-standard-1d" => {
            "4450534442494e31cb3e78ea9a12884301000000010000000100000001000000020000000000000001000000 \
             000000000300000000000000000000000000f03f00000000000000000000000000002040666666666666d63f \
             666666666666d63f0000000000000000343333333333d33f0000000000000000010000000000000003000000 \
             0000000000000000000000000000000000000000e17c2447b4f101400000000000002040e17c2447b4f10140 \
             00000000000020408dea511474871d40194c72d946dd22400c88e1f49999f6bf0700"
        }
        "quadtree-3d" => {
            "4450534442494e31e62de1a5c891a98a01000000030000000000000001000000080000000000000001000000 \
             000000000900000000000000000000000000f03f000000000000000000000000000000000000000000000000 \
             000000000000204000000000000020400000000000002040dc36747ae3a1e33f4892170b39bcd83f00000000 \
             0000000000000000000000000000000000000000010000000000000009000000000000000000000000000000 \
             0000000000000000000000000000000000000000000000000000000000000000000000000000104000000000 \
             0000104000000000000010400000000000001040000000000000000000000000000000000000000000000000 \
             0000000000001040000000000000104000000000000000000000000000000000000000000000104000000000 \
             0000104000000000000000000000000000000000000000000000104000000000000000000000000000001040 \
             0000000000000000000000000000104000000000000000000000000000001040000000000000204000000000 \
             0000104000000000000010400000000000001040000000000000104000000000000020400000000000002040 \
             0000000000002040000000000000204000000000000020400000000000001040000000000000104000000000 \
             0000204000000000000020400000000000001040000000000000104000000000000020400000000000002040 \
             0000000000002040000000000000104000000000000020400000000000001040000000000000204000000000 \
             0000104000000000000020400000000000001040000000000000204048b35f4636ee1740d885dd8e9b82fc3f \
             4bed7111c1650b409edeb3344ed01540bc6958e05018e53f32c724d570f30b4026864a629fc71040fe7ce9ac \
             b3ed0a40126d69eb7308c23fff010000"
        }
        other => panic!("no golden pinned for `{other}`"),
    }
}

#[test]
fn binary_blobs_match_the_pinned_goldens() {
    let print = std::env::var("PRINT_FLAT_GOLDEN").is_ok();
    for (label, blob) in golden_cases() {
        if print {
            println!("== {label}:\n{}", hex(&blob));
            continue;
        }
        let want = unhex(pinned(label));
        assert_eq!(
            hex(&blob),
            hex(&want),
            "{label}: wire bytes drifted — if intentional, regenerate with PRINT_FLAT_GOLDEN=1"
        );
    }
}

#[test]
fn pinned_goldens_still_load_and_answer() {
    // The pins are not just frozen bytes: each must decode into a
    // working synopsis whose root query equals the released total.
    if std::env::var("PRINT_FLAT_GOLDEN").is_ok() {
        return;
    }
    for (label, blob) in golden_cases() {
        assert_eq!(blob, unhex(pinned(label)), "{label}: drifted");
    }
    let (domain, _) = tiny_points::<2>();
    let loaded = ReleasedSynopsis::<2>::from_bytes(&unhex(pinned("quadtree-2d"))).unwrap();
    let root = loaded.posted_count(0).or(loaded.noisy_count(0)).unwrap();
    assert_eq!(
        loaded.query(&domain).to_bits(),
        root.to_bits(),
        "the domain query of the pin must read the root count"
    );
    let one_d = FlatSynopsis::<1>::from_bytes(&unhex(pinned("kd-standard-1d"))).unwrap();
    assert_eq!(one_d.node_count(), 3);
    let three_d = FlatSynopsis::<3>::from_bytes(&unhex(pinned("quadtree-3d"))).unwrap();
    assert_eq!(three_d.node_count(), 9);
}

/// Every tampered artifact must be a typed `DpsdError`, never a panic:
/// the corruption matrix walks the header field by field, then the
/// structural failure modes.
#[test]
fn corruption_matrix_yields_typed_errors() {
    let good = unhex(pinned("quadtree-2d"));
    assert!(ReleasedSynopsis::<2>::from_bytes(&good).is_ok());

    // Rewrites `range` to `value` and re-hashes the checksum so the
    // tampered field (not the checksum) is what the decoder sees.
    let tamper = |offset: usize, value: &[u8]| {
        let mut bad = good.clone();
        bad[offset..offset + value.len()].copy_from_slice(value);
        let sum = {
            // FNV-1a 64, the format's checksum primitive.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in &bad[16..] {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h
        };
        bad[8..16].copy_from_slice(&sum.to_le_bytes());
        bad
    };

    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        (
            "bad magic",
            {
                let mut b = good.clone();
                b[0] ^= 0xff;
                b
            },
            "magic",
        ),
        (
            "flipped payload byte",
            {
                let mut b = good.clone();
                let last = b.len() - 1;
                b[last] ^= 0x01;
                b
            },
            "checksum",
        ),
        (
            "unsupported version",
            tamper(16, &9u32.to_le_bytes()),
            "version",
        ),
        ("zero dims", tamper(20, &0u32.to_le_bytes()), "dimensional"),
        (
            "unknown kind code",
            tamper(24, &200u32.to_le_bytes()),
            "kind",
        ),
        (
            "unknown flag bits",
            tamper(28, &0x80u32.to_le_bytes()),
            "flag",
        ),
        (
            "fanout not 2^dims",
            tamper(32, &3u64.to_le_bytes()),
            "fanout",
        ),
        (
            "absurd height",
            tamper(40, &(1u64 << 40).to_le_bytes()),
            "node cap",
        ),
        (
            "wrong node count",
            tamper(48, &4u64.to_le_bytes()),
            "node count",
        ),
        (
            "negative epsilon",
            tamper(56, &(-1.0f64).to_le_bytes()),
            "epsilon",
        ),
        (
            "NaN epsilon",
            tamper(56, &f64::NAN.to_le_bytes()),
            "epsilon",
        ),
        (
            "trailing bytes",
            {
                let mut b = good.clone();
                b.push(0);
                tamper_rehash(b)
            },
            "trailing",
        ),
    ];
    for (label, blob, needle) in cases {
        match ReleasedSynopsis::<2>::from_bytes(&blob) {
            Err(DpsdError::Format { reason }) => assert!(
                reason.to_lowercase().contains(needle),
                "{label}: error `{reason}` does not mention `{needle}`"
            ),
            other => panic!("{label}: expected a Format error, got {other:?}"),
        }
    }

    // Every prefix truncation is a typed error too (the arena loader
    // shares the decoder, so one loader covers both).
    for len in 0..good.len() {
        assert!(
            matches!(
                FlatSynopsis::<2>::from_bytes(&good[..len]),
                Err(DpsdError::Format { .. })
            ),
            "prefix of {len} bytes must be a typed error"
        );
    }
}

/// Re-hashes a tampered blob so only the intended field is corrupt.
fn tamper_rehash(mut blob: Vec<u8>) -> Vec<u8> {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &blob[16..] {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    blob[8..16].copy_from_slice(&h.to_le_bytes());
    blob
}

/// Rewrites the value of the `nth` (0-based) `"key":` field in a JSON
/// artifact: `edit` gets the old value's text and returns the new one.
fn edit_json(json: &str, key: &str, nth: usize, edit: impl Fn(&str) -> String) -> String {
    let pattern = format!("\"{key}\":");
    let (at, _) = json
        .match_indices(&pattern)
        .nth(nth)
        .unwrap_or_else(|| panic!("no field `{key}` #{nth}"));
    let start = at + pattern.len();
    let rest = &json[start..];
    let len = if rest.starts_with('[') {
        rest.find(']').unwrap() + 1
    } else {
        rest.find([',', '}']).unwrap()
    };
    format!("{}{}{}", &json[..start], edit(&rest[..len]), &rest[len..])
}

/// Replaces element `i` of a JSON number array's text.
fn set_element(array: &str, i: usize, value: &str) -> String {
    let mut items: Vec<&str> = array[1..array.len() - 1].split(',').collect();
    items[i] = value;
    format!("[{}]", items.join(","))
}

/// The same semantic corruptions, applied to one release in both wire
/// formats, must come back from both loaders as a `Format` error that
/// names the same thing: every rule about the release lives in the one
/// constructor both loaders end in.
#[test]
fn both_formats_reject_each_corruption_alike() {
    let good = unhex(pinned("quadtree-2d"));
    let json = ReleasedSynopsis::<2>::from_bytes(&good).unwrap().to_json();
    assert!(ReleasedSynopsis::<2>::from_json(&json).is_ok());

    // Byte offsets of the `D = 2`, `h = 1` (5-node) pin's fields.
    let (n, d) = (5, 2);
    let eps_count = 64 + 16 * d;
    let eps_median = eps_count + 16;
    let mins = eps_median + 16 + 8 * 3;
    let noisy = mins + 2 * 8 * d * n;
    let tamper = |offset: usize, value: &[u8]| {
        let mut bad = good.clone();
        bad[offset..offset + value.len()].copy_from_slice(value);
        tamper_rehash(bad)
    };
    let f64le = |x: f64| x.to_le_bytes();

    // JSON numbers cannot spell a non-finite value, so the text parser
    // rejects `1e999` first; its reason and the constructor's both say
    // the value is no finite f64.
    let cases: Vec<(&str, String, Vec<u8>, &str)> = vec![
        (
            "fanout not 2^dims",
            edit_json(&json, "fanout", 0, |_| "3".into()),
            tamper(32, &3u64.to_le_bytes()),
            "fanout 3 must be 2^dims",
        ),
        (
            "height past the node cap",
            edit_json(&json, "height", 0, |_| "4000000".into()),
            tamper(40, &4_000_000u64.to_le_bytes()),
            "height 4000000 exceeds the node cap",
        ),
        (
            "node count off the complete tree",
            edit_json(&json, "height", 0, |_| "2".into()),
            tamper(48, &4u64.to_le_bytes()),
            "does not match the complete tree",
        ),
        (
            "negative epsilon",
            edit_json(&json, "epsilon", 0, |_| "-1.0".into()),
            tamper(56, &f64le(-1.0)),
            "epsilon -1 is not a finite, non-negative f64",
        ),
        (
            "non-finite epsilon",
            edit_json(&json, "epsilon", 0, |_| "1e999".into()),
            tamper(56, &f64le(f64::INFINITY)),
            "f64",
        ),
        (
            "negative level budget",
            edit_json(&json, "eps_count", 0, |a| set_element(a, 1, "-1.0")),
            tamper(eps_count + 8, &f64le(-1.0)),
            "`eps_count` entry -1 is not a finite, non-negative f64",
        ),
        (
            "inverted node box",
            edit_json(&json, "rect", 1, |r| set_element(r, 0, "5.0")),
            tamper(mins + 8, &f64le(5.0)),
            "node 1: invalid box [5.0, 0.0] x [4.0, 4.0]",
        ),
        (
            "non-finite count",
            edit_json(&json, "count", 2, |_| "1e999".into()),
            tamper(noisy + 16, &f64le(f64::INFINITY)),
            "f64",
        ),
        (
            "post-processed with a zero leaf budget",
            edit_json(&json, "eps_count", 0, |a| set_element(a, 0, "0.0")),
            tamper(eps_count, &f64le(0.0)),
            "leaf-level count budget",
        ),
        (
            "post-processed with a level budget OLS cannot weigh",
            edit_json(&json, "eps_count", 0, |a| set_element(a, 1, "1e-200")),
            tamper(eps_count + 8, &f64le(1e-200)),
            "cannot weigh OLS",
        ),
    ];
    for (label, text, blob, needle) in cases {
        assert_ne!(text, json, "{label}: the JSON edit changed nothing");
        let loads = [
            ("json", ReleasedSynopsis::<2>::from_json(&text).map(|_| ())),
            (
                "dpsd-bin",
                ReleasedSynopsis::<2>::from_bytes(&blob).map(|_| ()),
            ),
        ];
        for (format, loaded) in loads {
            match loaded {
                Err(DpsdError::Format { reason }) => assert!(
                    reason.contains(needle),
                    "{label} ({format}): `{reason}` does not name `{needle}`"
                ),
                other => panic!("{label} ({format}): expected a Format error, got {other:?}"),
            }
        }
    }
}
